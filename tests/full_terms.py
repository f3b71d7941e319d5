"""The Koornwinder layer as it was before it held its invariant polynomials
as orbit forms: the reference the orbit-form path is checked against.

g_series_list grows each G_m with all of its terms, and row_sum adds
full-term polynomials one Fraction product at a time.  use_full_terms swaps
both in at the module globals the one-row displays read, so the shipped
g_row_general, mac_row and lassalle_form run on full terms and return
LaurentPolys; OrbitPoly.from_poly of such a result must equal the shipped
orbit form.
"""

from qbc import koornwinder, macdonald_bcd
from qbc.algebra import LaurentPoly
from qbc.qseries import qbinom_series
from conftest import zero_poly

#: the full-term G table of each (n, P), for the test process
_TABLES: dict = {}


def g_entry(m, n, P) -> LaurentPoly:
    """G_m at rank n with all its terms, grown from the rank below: the
    rank-n product is the rank-(n - 1) one times the two factors in x_n, so
    G_m is the sum over j of G'_(m - j) H_j(x_n), with G' the rank-(n - 1)
    table (the series 1 at rank 0) and H_j = sum_(a + b = j) h_a h_b
    x_n^(a - b) for h_j = (t;q)_j/(q;q)_j."""
    h = qbinom_series(P.t, P.q, m)
    if n > 1:
        lower = [g.terms for g in g_series_list(m, n - 1, P)]
    else:
        lower = [{(): 1}] + [{}] * m
    terms: dict = {}
    for j in range(m + 1):
        H = [(2 * a - j, h[a] * h[j - a]) for a in range(j + 1)]
        for exps, c in lower[m - j].items():
            for e, w in H:
                key = exps + (e,)
                terms[key] = terms.get(key, 0) + c * w
    return LaurentPoly(n, terms)


def g_series_list(rmax, n, P) -> tuple:
    """(G_0, ..., G_rmax) at rank n with all their terms."""
    table = _TABLES.setdefault((n, P), [])
    while len(table) <= rmax:
        table.append(g_entry(len(table), n, P))
    return tuple(table[: rmax + 1])


def row_sum(n, terms) -> LaurentPoly:
    """Sum of p * w over the (p, w) pairs of terms, one Fraction product
    and one Fraction sum per term."""
    total = zero_poly(n)
    for p, w in terms:
        if w:
            total = total + p * w
    return total


def use_full_terms(monkeypatch):
    """Run the one-row displays on full terms for the rest of the test: the
    G tables and row sums above at the koornwinder and macdonald_bcd
    globals.  The displays' memos hold scalar weights, which do not depend
    on the form the G table takes."""
    for module in (koornwinder, macdonald_bcd):
        monkeypatch.setattr(module, "g_series_list", g_series_list)
        monkeypatch.setattr(module, "row_sum", row_sum)
