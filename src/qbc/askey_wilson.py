"""One-variable layer: the four-parameter q-difference operator, its Laurent
polynomial eigenfunctions, and the fourfold summation formula with every
rewrite of its even and odd coefficient families.

Everything is exact: series are truncated coefficient lists over Fraction and
polynomial identities are checked by the callers at explicit rational points.
The same coefficient families reappear in the several-variable layers with
rescaled parameters, so the c_e / c_o style functions read their parameters
from a ParamPoint that the caller may have rebuilt.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import ClearedShiftOperator, LaurentPoly, ParamPoint, rat
from .errors import ParameterDegeneracy
from .qseries import (
    PhiSpec, _Pair, phi_sum, qbinom_series, qpoch, qpoch_multi, qpoch_ratio,
)

#: variants of the twofold simplification of the fourfold series
HALF_BASE = "half-base"
FULL_BASE = "full-base"


class EvenSumForms(NamedTuple):
    """The even sum computed four independent ways; entry K is the
    coefficient of x^(2K)."""

    raw: list
    closed: list
    bibasic_split: list
    bibasic_coupled: list


def aw_eigenvalue(n, P: ParamPoint) -> Fraction:
    """Operator eigenvalue s + abcd/(qs) - 1 - abcd/q.

    An integer n stands for s = q^-n; a rational argument is taken as a
    generic s.  The value is symmetric under s <-> abcd/(qs).
    """
    P.require("a", "b", "c", "d")
    q = P.q
    s = q ** -n if isinstance(n, int) else rat(n)
    if s == 0:
        raise ParameterDegeneracy("eigenvalue needs s != 0")
    abcd = P.abcd()
    return s + abcd / (q * s) - 1 - abcd / q


@lru_cache(maxsize=None)
def aw_poly(n: int, P: ParamPoint) -> LaurentPoly:
    """Degree-n symmetric Laurent polynomial eigenfunction.

    a^-n (ab,ac,ad;q)_n times the terminating series with upper parameters
    q^-n, abcd q^(n-1), ax, a/x and lower parameters ab, ac, ad, where the
    x-dependent pair is expanded into Laurent factors (1 - a q^i x^(+-1)).

    Several checks at a point read the same degree, so the result is
    memoized per (n, P) for the process; it is shared by every caller and
    must not be mutated.
    """
    P.require("a", "b", "c", "d")
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    for prod in (a * b, a * c, a * d):
        if qpoch(prod, q, n) == 0:
            raise ParameterDegeneracy(
                f"lower Pochhammer ({prod};q)_m vanishes for some m <= {n}"
            )
    x = LaurentPoly.monomial((1,))
    xinv = LaurentPoly.monomial((-1,))
    one = LaurentPoly.one(1)
    abcd = a * b * c * d
    total = LaurentPoly.zero(1)
    scalar = Fraction(1)
    pair = one
    qm = Fraction(1)
    for m in range(n + 1):
        total = total + pair * scalar
        if m == n:
            break
        ratio = (1 - q ** -n * qm) * (1 - abcd * q ** (n - 1) * qm) * q
        ratio /= (1 - q * qm) * (1 - a * b * qm) * (1 - a * c * qm) * (1 - a * d * qm)
        scalar *= ratio
        pair = pair * (one - x * (a * qm)) * (one - xinv * (a * qm))
        qm *= q
    return total * (qpoch_multi((a * b, a * c, a * d), q, n) * a ** -n)


def _aw_generator(P: ParamPoint) -> tuple:
    """The records (u, e), each the factor 1 - u x^e, of the up-shift
    coefficient's numerator and denominator, and the scalar 1; x -> 1/x
    gives the down-shift."""
    x, x2 = (1,), (2,)
    return [(u, x) for u in (P.a, P.b, P.c, P.d)], [(1, x2), (P.q, x2)], 1


@lru_cache(maxsize=None)
def _aw_operator(P: ParamPoint) -> ClearedShiftOperator:
    return ClearedShiftOperator(P, 1, *_aw_generator(P))


def aw_apply(f: LaurentPoly, P: ParamPoint) -> LaurentPoly:
    """Apply the q-difference operator to a symmetric Laurent polynomial.

    f must be invariant under x -> 1/x; any other input raises ValueError.
    Denominators are cleared against their least common multiple and divided
    back out exactly, so a result is produced only when the input really lies
    in the operator's polynomial domain.
    """
    P.require("a", "b", "c", "d")
    return _aw_operator(P).apply(f)


def _ladder_walk(tops, outer, inner, what: str):
    """Anti-diagonal sums of a two-index coefficient family, built by running
    ratios over the region 0 <= i < len(tops), 0 <= j <= tops[i].

    tops must be non-increasing, so the region is closed downward and each
    term is reached from a neighbour inside it: (i, 0) from (i - 1, 0) by
    outer(i - 1), and (i, j) from (i, j - 1) by inner(i)(j - 1).  A ratio is
    a (numerator, denominator) pair of unreduced factor products (_Pair)
    whose denominator holds exactly the lower Pochhammer factors the step
    adds; a zero one is a vanishing lower ladder at the term it builds and
    raises ParameterDegeneracy, as the per-term definitions do.  Each term is
    reduced once, into a Fraction.  sums[d] adds the terms with i + j = d.
    """

    def advance(term: Fraction, ratio) -> Fraction:
        num, den = ratio
        if den.is_zero():
            raise ParameterDegeneracy(f"vanishing lower Pochhammer in {what}")
        return Fraction(
            term.numerator * num.num * den.den, term.denominator * num.den * den.num
        )

    size = max((i + top for i, top in enumerate(tops)), default=-1) + 1
    sums = [Fraction(0)] * size
    head = Fraction(1)
    for i, top in enumerate(tops):
        if i:
            head = advance(head, outer(i - 1))
        term = head
        step = inner(i)
        for j in range(top + 1):
            if j:
                term = advance(term, step(j - 1))
            sums[i + j] += term
    return sums


def _even_sums(s, P: ParamPoint, tops):
    """c_e(k, l; s) summed along k + l over 0 <= l < len(tops),
    0 <= k <= tops[l]: a walk along l at k = 0, then along k."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    a2, c2, s2 = a * a, c * c, s * s
    q, q2, s, a2, s2, cq, sa2, sac3, qsa, sa4, lw, kw = map(_Pair.of, (
        q, q2, s, a2, s2, c2 / q, s2 / a2, q ** 3 * s2 / (a2 * c2), q * s / a2,
        q2 * s2 / (a2 * a2), q2 / c2, q2 / a2,
    ))

    def outer(l):
        x = q2 ** l
        xx = x * x
        num = (
            (1 - cq * x) * (1 - sa2 * x) * (1 - s * x) * (1 - s * x * q)
            * (1 - sa4 * xx) * (1 - sa4 * xx * q2)
        )
        den = (
            (1 - q2 * x) * (1 - sac3 * x) * (1 - qsa * x) * (1 - qsa * x * q)
            * (1 - sa2 * xx) * (1 - sa2 * xx * q2)
        )
        return num * lw, den

    def inner(l):
        up = q2 ** (2 * l) * s2
        down = up * kw

        def step(k):
            x = q2 ** k
            return (1 - a2 * x) * (1 - up * x) * kw, (1 - q2 * x) * (1 - down * x)

        return step

    return _ladder_walk(tops, outer, inner, "the even family")


def _odd_sums(s, P: ParamPoint, tops):
    """c_o(m, n; s) summed along m + n over 0 <= m < len(tops),
    0 <= n <= tops[m]: a walk along m at n = 0, then along n."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    q, s, sac, sabcd, ba, scd, dc, sab, sacn, mw, nw = map(_Pair.of, (
        q, s, q * s * s / (a * a * c * c), q * q * s * s / (a * b * c * d),
        -b / a, q * s / (c * d), -d / c, q * s / (a * b), -q * s / (a * c), q / b, q / d,
    ))

    def outer(m):
        x = q ** m
        num = (1 - ba * x) * (1 - s * x) * (1 - scd * x) * (1 - sac * x)
        return num * mw, (1 - q * x) * (1 - sabcd * x) * (1 - sac * x * x)

    def inner(m):
        qm = q ** m
        up_s, up_sacn, up_sac = qm * s, qm * sacn, qm * sac
        down_sabcd, down_sac = qm * sabcd, qm * qm * sac

        def step(n):
            y = q ** n
            num = (
                (1 - dc * y) * (1 - sab * y)
                * (1 - up_s * y) * (1 - up_sacn * y) * (1 - up_sac * y)
            )
            den = (1 - q * y) * (1 - down_sabcd * y) * (1 - sacn * y) * (1 - down_sac * y * y)
            return num * nw, den

        return step

    return _ladder_walk(tops, outer, inner, "the odd family")


def _coupled_sums(s, P: ParamPoint, tops, cu, su, what: str) -> list:
    """Sums along k + l, over 0 <= l < len(tops), 0 <= k <= tops[l], of

        (q a^2/c^2, q^3 s/c^2, q^2 s^2/c^4; q^2)_k (q^2/a^2)^k
        / (q^2, q s/c^2, q^3 s^2/(a^2 c^2); q^2)_k
        * (cu; q)_l (su; q)_(2k+l) (q^2/c^2)^l / ((q; q)_l (q^2 s/c^2; q)_(2k+l)),

    a walk along l at k = 0, then along k.  The coupled even route takes
    (cu, su) = (c^2/q, s), the primed even family (c^2/q^2, s/q)."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    a2, c2 = a * a, c * c
    q, q2, cu, su, q2sc, qac, q3sc, sc4, qsc, sac3, lw, kw = map(_Pair.of, (
        q, q2, cu, su, q2 * s / c2, q * a2 / c2, q ** 3 * s / c2,
        q2 * s * s / (c2 * c2), q * s / c2, q ** 3 * s * s / (a2 * c2), q2 / c2, q2 / a2,
    ))

    def outer(l):
        x = q ** l
        return (1 - cu * x) * (1 - su * x) * lw, (1 - q * x) * (1 - q2sc * x)

    def inner(l):
        ql = q ** l

        def step(k):
            x = q2 ** k
            y = x * ql  # q^(2k+l): the (.; q)_(2k+l) ladders add two factors per step in k
            num = (
                (1 - qac * x) * (1 - q3sc * x) * (1 - sc4 * x)
                * (1 - su * y) * (1 - su * y * q)
            )
            den = (
                (1 - q2 * x) * (1 - qsc * x) * (1 - sac3 * x)
                * (1 - q2sc * y) * (1 - q2sc * y * q)
            )
            return num * kw, den

        return step

    return _ladder_walk(tops, outer, inner, what)


def ce_prime_sums(s, P: ParamPoint, D: int) -> list:
    """c'_e(k, l; s) summed along k + l = K for K = 0..D, where c'_e
    absorbs a (1 - x^2) prefactor:
    (1 - x^2) sum c_e(k,l;s) x^(2k+2l) = sum c'_e(k,l;s) x^(2k+2l).
    The coupled walk covers every factor but the ratio
    (1 - q^(2k+2l-1) s) / (1 - s/q), which depends on k + l alone and
    multiplies each sum."""
    P.require("a", "c")
    q, s = P.q, rat(s)
    if s == q:
        raise ParameterDegeneracy("the ratio factor needs s != q")
    sums = _coupled_sums(
        s, P, [D - l for l in range(D + 1)], P.c ** 2 / q ** 2, s / q, "the primed even family"
    )
    return [
        value * (1 - q ** (2 * K - 1) * s) / (1 - s / q) for K, value in enumerate(sums)
    ]


def co_recast_sums(s, P: ParamPoint, W: int) -> list:
    """c_o(m, n; s), regrouped so the parameter-symmetric part ladders in
    m + n, summed along m + n = w for w = 0..W: a walk along m at n = 0,
    then along n; each step also adds one factor to the ladders in m + n.
    Two of the grouped lower ladders, (q^(1/2) s/(ac), -q^(1/2) s/(ac); q),
    sit at a half power of q."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    q, s, sabcd, sacn, sac, ba, scd, dc, sab, mw, nw = map(_Pair.of, (
        q, s, q * q * s * s / (a * b * c * d), -q * s / (a * c), q * s * s / (a * a * c * c),
        -b / a, q * s / (c * d), -d / c, q * s / (a * b), q / b, q / d,
    ))

    def diagonal(w):
        # the lower pair (half, -half; q)_w, half = q^(1/2) s/(a c), steps
        # by (1 - half x)(1 + half x) = 1 - sac x^2
        x = q ** w
        num = (1 - s * x) * (1 - sacn * x) * (1 - sac * x)
        return num, (1 - sabcd * x) * (1 - sac * x * x)

    def outer(m):
        x = q ** m
        num, den = diagonal(m)
        num *= (1 - ba * x) * (1 - scd * x) * mw
        return num, den * (1 - q * x) * (1 - sacn * x)

    def inner(m):
        def step(n):
            y = q ** n
            num, den = diagonal(m + n)
            num *= (1 - dc * y) * (1 - sab * y) * nw
            return num, den * (1 - q * y) * (1 - sacn * y)

        return step

    return _ladder_walk(
        [W - m for m in range(W + 1)], outer, inner, "the regrouped odd family"
    )


def phi_series(s, P: ParamPoint, N: int) -> tuple:
    """Coefficients through x^N of the fourfold series
    sum c_e(k, l; q^(m+n) s) c_o(m, n; s) x^(2k+2l+m+n), a tuple of
    Fractions indexed by the power of x, under the generic-s convention:
    the symbolic prefactor x^-lambda with s = q^-lambda is never expanded.

    The odd sums over m + n = w come from one walk over m + n <= N; the
    even triangle k + l <= (N - w) / 2 is walked once per w at q^w s."""
    s = rat(s)
    q = P.q
    odd = _odd_sums(s, P, [N - m for m in range(N + 1)])
    coeffs = [Fraction(0)] * (N + 1)
    for w in range(N + 1):
        deg = (N - w) // 2
        even = _even_sums(q ** w * s, P, [deg - l for l in range(deg + 1)])
        for K, value in enumerate(even):
            coeffs[w + 2 * K] += value * odd[w]
    return tuple(coeffs)


def psi_series(s, P: ParamPoint, N: int) -> tuple:
    """Coefficients through x^N of the single-sum form of the series: the
    binomial prefactor in qx/a times terminating inner sums of length n+1."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    sq = P.sqrt_q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the series needs s != 0")
    pref = qbinom_series(a ** 2 / q, q, N)
    inner = []
    outer = Fraction(1)
    qn = Fraction(1)
    for n in range(N + 1):
        spec = PhiSpec(
            uppers=(
                q ** -n,
                q ** (n + 1) * s ** 2 / a ** 2,
                s,
                q * s / (a * b),
                q * s / (a * c),
                q * s / (a * d),
            ),
            lowers=(
                q ** 2 * s ** 2 / (a * b * c * d),
                sq * s / a,
                -sq * s / a,
                q * s / a,
                -q * s / a,
            ),
            base=q,
            argument=q,
        )
        inner.append(outer * phi_sum(spec, n))
        outer *= (1 - q * s ** 2 / a ** 2 * qn) / (1 - q * qn) * (a / s)
        qn *= q
    coeffs = []
    for j in range(N + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += pref[i] * (q / a) ** i * inner[j - i]
        coeffs.append(acc)
    return tuple(coeffs)


def fourfold_poly(lam: int, P: ParamPoint) -> LaurentPoly:
    """One-row polynomial as a finite sum over the lattice polyhedron
    0 <= m <= lam, 0 <= n <= lam-m, 0 <= 2l <= lam-m-n, 0 <= k <= lam-2l-m-n,
    with s pinned to q^-lam.

    The even walk at m + n = w is skipped when the odd sum there is zero.
    That cannot hide a degenerate point: every lower factor the even family
    meets at w >= 1 is either met again at w = 0, whose odd sum is 1, or
    forces a vanishing (q s^2/(a^2 c^2); q^2)_m in the odd walk."""
    P.require("a", "b", "c", "d")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    q = P.q
    odd = _odd_sums(q ** -lam, P, [lam - m for m in range(lam + 1)])
    terms: dict = {}
    for w in range(lam + 1):
        if not odd[w]:
            continue
        tops = [lam - w - 2 * l for l in range((lam - w) // 2 + 1)]
        even = _even_sums(q ** (w - lam), P, tops)
        for K, value in enumerate(even):
            e = (-lam + 2 * K + w,)
            terms[e] = terms.get(e, Fraction(0)) + odd[w] * value
    pref = qpoch(P.abcd() * q ** (lam - 1), q, lam)
    return LaurentPoly(1, terms) * pref


def even_sum_closed(s, P: ParamPoint, N: int) -> list:
    """Coefficients of x^(2K), K = 0..N, of sum c_e(k,l;s) x^(2k+2l) by the
    per-degree closed form: a head factor times a terminating 4phi3 in q^2."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    closed = []
    for K in range(N + 1):
        head = qpoch_ratio(
            (a ** 2 * c ** 2 / q, s ** 2), (q2, q ** 3 * s ** 2 / (a ** 2 * c ** 2)),
            q2, K, "the head factor of the closed even form",
        )
        spec = PhiSpec(
            uppers=(a ** 2 / q, c ** 2 / q, q ** (2 * K) * s ** 2, q ** (-2 * K)),
            lowers=(-s, -q * s, a ** 2 * c ** 2 / q),
            base=q2,
            argument=q2,
        )
        closed.append(head * (q ** 3 / (a ** 2 * c ** 2)) ** K * phi_sum(spec, K))
    return closed


def _split_sums(s, P: ParamPoint, tops) -> list:
    """The split bibasic form of c_e(k, l; s) summed along k + l, over
    0 <= l < len(tops), 0 <= k <= tops[l]: a walk along l at k = 0, then
    along k."""
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    a2, c2, s2 = a * a, c * c, s * s
    q, q2, s, s2, cq, qac, sac3, sa4, qsa, q3ac, lw, kw = map(_Pair.of, (
        q, q2, s, s2, c2 / q, q * a2 / c2, q ** 3 * s2 / (a2 * c2), q2 * s2 / (a2 * a2),
        q * s / a2, q ** 3 / (a2 * c2), q2 / c2, q2 / a2,
    ))

    def outer(l):
        x = q ** l
        num = (1 - cq * x) * (1 - s * x) * (1 - sa4 * x * x)
        return num * lw, (1 - q * x) * (1 - qsa * x) * (1 - sac3 * x * x)

    def inner(l):
        up = q ** (2 * l) * s2
        down = up * q3ac

        def step(k):
            x = q2 ** k
            return (1 - qac * x) * (1 - up * x) * kw, (1 - q2 * x) * (1 - down * x)

        return step

    return _ladder_walk(tops, outer, inner, "the split form")


def even_sum_forms(s, P: ParamPoint, N: int) -> EvenSumForms:
    """Coefficients of x^(2K), K = 0..N, of sum c_e(k,l;s) x^(2k+2l) by four
    routes: the raw double sum, the per-degree closed form, and the two
    bibasic rewrites (split ladders, and ladders coupled through 2k+l).

    Every route but the closed one walks the triangle k + l <= N by running
    ratios, along l at k = 0 and then along k; the coupled route is the walk
    ce_prime_sums takes at shifted ladders."""
    P.require("a", "c")
    s = rat(s)
    tops = [N - l for l in range(N + 1)]
    raw = _even_sums(s, P, tops)
    closed = even_sum_closed(s, P, N)
    split = _split_sums(s, P, tops)
    coupled = _coupled_sums(s, P, tops, P.c ** 2 / P.q, s, "the coupled form")
    return EvenSumForms(raw, closed, split, coupled)


def odd_sum_check(l: int, s, P: ParamPoint):
    """Pair (direct, closed) for the degree-l odd sum sum_m c_o(m, l-m; s);
    equality of the two entries is the caller's test.  The direct side is
    the last anti-diagonal of the odd walk over m + n <= l, the closed side
    a head factor times a terminating 4phi3."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the closed odd form needs s != 0")
    direct = _odd_sums(s, P, [l - m for m in range(l + 1)])[l]
    half = P.sqrt_q * s / (a * c)
    head = qpoch_ratio(
        (-d / c, q * s / (a * b), s, q * s ** 2 / (a ** 2 * c ** 2)),
        (q, q ** 2 * s ** 2 / (a * b * c * d), half, -half),
        q, l, "the head factor of the closed odd form",
    )
    spec = PhiSpec(
        uppers=(q ** -l, -(q ** -l) * a * c / s, -b / a, q * s / (c * d)),
        lowers=(-(q ** (-l + 1)) * c / d, q ** -l * a * b / s, -q * s / (a * c)),
        base=q,
        argument=q,
    )
    closed = head * (q / d) ** l * phi_sum(spec, l)
    return direct, closed


def simplified_series(variant: str, s, P: ParamPoint, N: int) -> tuple:
    """Twofold rewrite of the fourfold series at a chained parameter point.

    HALF_BASE expects (a, b, c, d) = (-A, B, -q^(1/2) A, q^(1/2) B) and mixes
    bases q^(1/2) and q; FULL_BASE expects (-A, B, -q^(1/2) A, q^(1/2) A) and
    stays in base q.  Coefficients are indexed by the true x power 2m + l.
    """
    P.require("a", "b", "c", "d")
    sq = P.sqrt_q
    q = P.q
    s = rat(s)
    A = -P.a
    B = P.b
    if P.c != -sq * A:
        raise ParameterDegeneracy("variant needs c = -q^(1/2) a chained to a")
    if variant == HALF_BASE:
        if P.d != sq * B:
            raise ParameterDegeneracy("half-base variant needs d = q^(1/2) b")
    elif variant == FULL_BASE:
        if P.d != sq * A:
            raise ParameterDegeneracy("full-base variant needs d = q^(1/2) a")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    coeffs = [Fraction(0)] * (N + 1)
    for l in range(N + 1):
        if variant == HALF_BASE:
            lterm = (
                qpoch_ratio((B / A, s / A ** 2), (sq, sq * s / (A * B)), sq, l, "the l ladder")
                * qpoch_ratio((s,), (s / A ** 2,), q, l, "the l ladder")
                * (sq / B) ** l
            )
        else:
            lterm = qpoch_ratio(
                (B / A, s ** 2 / A ** 4, s), (q, q * s ** 2 / (A ** 3 * B), s / A ** 2),
                q, l, "the l ladder",
            ) * (q / B) ** l
        for m in range((N - l) // 2 + 1):
            mterm = qpoch_ratio(
                (A ** 2, q ** l * s), (q, q ** (l + 1) * s / A ** 2), q, m, "the m ladder"
            )
            coeffs[2 * m + l] += lterm * mterm * (q / A ** 2) ** m
    return tuple(coeffs)
