"""The one-row displays as they were before each became one walked weight
vector on the G table: the references the walked displays are checked
against.

Each weight of mac_row, lassalle_form and lassalle_b_forms is built term by
term from its own Pochhammer ratios and pivot; g_row_general is layered, a
row sum of g_row_sym rows, each of which builds its primed even family at
its own spectral value; fourfold_poly builds its families at s = q^-lam for
each lam and combines them one Fraction product at a time.  The G tables
and row sums are the shipped ones, read at their module globals.
"""

from fractions import Fraction

from qbc import askey_wilson, koornwinder
from qbc.algebra import LaurentPoly, OrbitPoly, ParamPoint, rat
from qbc.macdonald_bcd import FAMILY_B, FAMILY_C, FAMILY_D, FamilyTag
from qbc.qseries import qpoch, qpoch_ratio, walk


def _head(r: int, P: ParamPoint) -> Fraction:
    return qpoch_ratio((P.q,), (P.t,), P.q, r, "the one-row prefactor")


def _pivot(x: Fraction, qk: Fraction, what: str) -> Fraction:
    # the well-poised factor (1 - x q^k) / (1 - x), given q^k: a quotient of
    # length-one ladders, whose base plays no part
    return qpoch_ratio((x * qk,), (x,), qk, 1, what)


def _weight_cd(j: int, r: int, b: Fraction, P: ParamPoint, n: int) -> Fraction:
    # family D is the b = 1 case of the same single-ladder weight
    q, t = P.q, P.t
    x = t ** -n * q ** -r
    what = "the one-row weight"
    return (
        qpoch_ratio((b / t, x), (q, t ** (1 - n) * q ** (1 - r) / b), q, j, what)
        * _pivot(x, q ** (2 * j), what)
        * (t * t / (q * b)) ** j
    )


def _weight_b(i: int, j: int, r: int, a: Fraction, P: ParamPoint, n: int) -> Fraction:
    # the two (i+j)-ladders share the base t^(1-n) q^(1-r), so the numerator
    # i-ladder is cancelled against the denominator head, leaving only the
    # tail of length j; the uncancelled form is 0/0 at n = 1, i + j = r
    q, t = P.q, P.t
    x = t ** -n * q ** -r
    t2 = t ** (2 - 2 * n)
    what = "the one-row weight"
    return (
        qpoch(x, q, i + j)
        * qpoch_ratio((a, t2 * q ** (-2 * r)), (q, t * x, t2 * q ** (1 - 2 * r) / a), q, i, what)
        * qpoch_ratio((1 / t,), (q, t ** (1 - n) * q ** (1 - r + i)), q, j, what)
        * _pivot(x, q ** (i + 2 * j), what)
        * (t / a) ** i
        * (t * t / q) ** j
    )


def _cd_row(r: int, b: Fraction, P: ParamPoint, n: int, head) -> OrbitPoly:
    gs = koornwinder.g_series_list(r, n, P)
    terms = ((gs[r - 2 * j], _weight_cd(j, r, b, P, n) * head) for j in range(r // 2 + 1))
    return koornwinder.row_sum(n, terms)


def mac_row(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    head = _head(r, P)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        return _cd_row(r, b, P, n, head)
    a = tag.param
    gs = koornwinder.g_series_list(r, n, P)
    terms = (
        (gs[r - i - 2 * j], _weight_b(i, j, r, a, P, n) * head)
        for i in range(r + 1)
        for j in range((r - i) // 2 + 1)
    )
    return koornwinder.row_sum(n, terms)


def _lassalle_cd_sum(r: int, b: Fraction, P: ParamPoint, n: int, head) -> OrbitPoly:
    # positive-power display, each weight times head; the shifted pivot
    # 1 - t^n q^(r-i) replaces the boundary factor of the numerator ladder
    q, t = P.q, P.t
    what = "the conjectured weight"

    def weight(i):
        x = t ** n * q ** (r - i)
        ratio = qpoch_ratio((b / t, x), (q, b * t ** (n - 1) * q ** (r - i)), q, i, what)
        return t ** i * ratio * _pivot(x, q ** -i, what)

    gs = koornwinder.g_series_list(r, n, P)
    return koornwinder.row_sum(
        n, ((gs[r - 2 * i], weight(i) * head) for i in range(r // 2 + 1))
    )


def lassalle_form(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    q, t = P.q, P.t
    head = _head(r, P)
    if tag.family == FAMILY_C:
        return _lassalle_cd_sum(r, tag.param, P, n, head)
    if tag.family == FAMILY_D:
        return koornwinder.row_sum(n, [(_lassalle_cd_sum(r, Fraction(1), P, n, 1), head)])
    a = tag.param
    inner = [_lassalle_cd_sum(k, Fraction(1), P, n, 1) for k in range(r + 1)]
    t2 = t ** (2 * n - 2)

    def weight(i):
        return qpoch_ratio(
            (a, t ** n * q ** (r - i), t2 * q ** (2 * r - i + 1)),
            (q, t ** (n - 1) * q ** (r - i + 1), a * t2 * q ** (2 * r - i)),
            q, i, "the conjectured weight",
        )

    return koornwinder.row_sum(n, ((inner[r - i], weight(i) * head) for i in range(r + 1)))


def lassalle_b_forms(tag: FamilyTag, r: int, P: ParamPoint, n: int):
    if tag.family != FAMILY_B:
        raise ValueError("the rewrite chain is specific to family B")
    P.require("sqrt_t")
    q, t = P.q, P.t
    a = tag.param
    head = _head(r, P)
    t2 = t ** (2 - 2 * n)

    def iblock(i):
        return qpoch_ratio(
            (a, t ** -n * q ** (1 - r), t2 * q ** (-2 * r)),
            (q, t ** (1 - n) * q ** -r, t2 * q ** (1 - 2 * r) / a),
            q, i, "the rewritten weight",
        ) * (t / a) ** i

    outer = [(r - i, iblock(i) * head) for i in range(r + 1)]
    first = koornwinder.row_sum(
        n, ((_cd_row(k, Fraction(1), P, n, 1), w) for k, w in outer if w)
    )
    gs = koornwinder.g_series_list(r, n, P)
    second = koornwinder.row_sum(
        n,
        (
            (gs[k - 2 * j], w * _weight_cd(j, k, Fraction(1), P, n))
            for k, w in outer
            if w
            for j in range(k // 2 + 1)
        ),
    )
    return first, second, mac_row(tag, r, P, n)


def ce_prime_sums(s, P: ParamPoint, D: int) -> list:
    """c'_e(k, l; s) summed along k + l = K for K = 0..D, where c'_e
    absorbs a (1 - x^2) prefactor:
    (1 - x^2) sum c_e(k,l;s) x^(2k+2l) = sum c'_e(k,l;s) x^(2k+2l); the
    primed even family built at s and walked there."""
    s = rat(s)
    return askey_wilson._primed_walk(askey_wilson._coupled_steps(s, P, 1), P.q, s, D, 0)


def g_row_sym(r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """The chained family's row, its primed even family built at its own
    spectral value q^(1-r) t^(-n)."""
    P.require("a", "c", "sqrt_t")
    q, t = P.q, P.t
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, c=hat * P.c)
    shat = q ** (1 - r) * t ** -n
    gs = koornwinder.g_series_list(r, n, P)
    sums = ce_prime_sums(shat, Phat, r // 2)
    return koornwinder.row_sum(
        n, ((gs[r - 2 * K], value * (t / q) ** K) for K, value in enumerate(sums))
    )


def g_row_general(r: int, P: ParamPoint, n: int) -> OrbitPoly:
    """The general row layered over g_row_sym: row r - w of it weighed by
    the odd sum along i + j = w, at the row's own spectral value."""
    P.require("a", "b", "c", "d", "sqrt_t")
    q, t = P.q, P.t
    hat = P.sqrt_q / P.sqrt_t
    Phat = P.replace(a=hat * P.a, b=hat * P.b, c=hat * P.c, d=hat * P.d)
    shat = q ** (1 - r) * t ** -n
    half = P.sqrt_t / P.sqrt_q
    syms = [g_row_sym(k, P, n) for k in range(r + 1)]
    sums = askey_wilson.odd_sums(shat, Phat, r)
    return koornwinder.row_sum(
        n, ((syms[r - w], value * half ** w) for w, value in enumerate(sums))
    )


def fourfold_poly(lam: int, P: ParamPoint) -> LaurentPoly:
    """The fourfold polynomial with both families built at s = q^-lam and
    combined one Fraction product and sum per (w, K) pair."""
    P.require("a", "b", "c", "d")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    q = P.q
    s = q ** -lam
    odd = askey_wilson.odd_sums(s, P, lam)
    outer, inner = askey_wilson._even_steps(s, P)
    terms: dict = {}
    for w in range(lam + 1):
        if not odd[w]:
            continue
        tops = [lam - w - 2 * l for l in range((lam - w) // 2 + 1)]
        even = walk(tops, q, outer, inner, "the even family", w)
        for K, value in enumerate(even):
            e = (-lam + 2 * K + w,)
            terms[e] = terms.get(e, Fraction(0)) + odd[w] * value
    pref = qpoch(P.abcd() * q ** (lam - 1), q, lam)
    return LaurentPoly(1, terms) * pref
