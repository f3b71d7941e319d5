"""One-variable layer: the four-parameter q-difference operator, its Laurent
polynomial eigenfunctions, and the fourfold summation formula with every
rewrite of its even and odd coefficient families.

Everything is exact: series are truncated coefficient lists over Fraction and
polynomial identities are checked by the callers at explicit rational points.
The same coefficient families reappear in the several-variable layers with
rescaled parameters, so the c_e / c_o style functions read their parameters
from a ParamPoint that the caller may have rebuilt.  The families are
summed by qseries' integer walk kernel: walk and convolve for the two-index
families, and its terminating-row kernel for psi_series' rows, which
convolve multiplies by their prefactor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import ClearedShiftOperator, LaurentPoly, OrbitPoly, ParamPoint, rat
from .errors import ParameterDegeneracy
from .qseries import (
    PhiSpec, _compiled, _factors, _terminating_row, convolve, phi_sum, qbinom_series, qpoch,
    qpoch_ratio, walk,
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
    pref = a ** -n
    for prod in (a * b, a * c, a * d):
        low = qpoch(prod, q, n)
        if low == 0:
            raise ParameterDegeneracy(
                f"lower Pochhammer ({prod};q)_m vanishes for some m <= {n}"
            )
        pref *= low
    # r_m, the scalar term ratio from m to m + 1
    [step] = _compiled(
        q,
        (q, [(q ** -n, 1, 0), (P.abcd() * q ** (n - 1), 1, 0)],
         [(q, 1, 0), (a * b, 1, 0), (a * c, 1, 0), (a * d, 1, 0)]),
    )
    # The sum is T_0 by Horner's rule: T_n = 1, T_m = 1 + r_m f_m T_(m+1),
    # where f_m = (1 - a q^m x)(1 - a q^m/x) = ((ud^2 + un^2) - ud un
    # (x + 1/x)) / ud^2 for a q^m = un/ud.  Each T_m is symmetric under
    # x -> 1/x, and half[e] / den is its coefficient of x^(+-e).
    half, den = [1], 1
    for m in reversed(range(n)):
        num, rden, low = _factors(step, m, 0)
        ratio = Fraction(num, rden * low)
        aqm = a * q ** m
        un, ud = aqm.numerator, aqm.denominator
        mid, side = ud * ud + un * un, ud * un
        padded = (half[1:2] or [0]) + half + [0, 0]  # padded[e + 1] goes with x^e
        half = [
            ratio.numerator * (mid * padded[e + 1] - side * (padded[e] + padded[e + 2]))
            for e in range(len(half) + 1)
        ]
        den *= ratio.denominator * ud * ud
        half[0] += den
    pn, pd = pref.numerator, den * pref.denominator
    terms = {}
    for e, value in enumerate(half):
        if value:
            terms[(e,)] = terms[(-e,)] = Fraction(value * pn, pd)
    return LaurentPoly._raw(1, terms)


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
    The operator applies to f's orbit form and the image is expanded; a
    result is produced only when the input really lies in the operator's
    polynomial domain, else InexactDivision.
    """
    P.require("a", "b", "c", "d")
    return _aw_operator(P).apply(OrbitPoly.from_poly(f)).expand()


def _even_steps(s, P: ParamPoint) -> tuple:
    """The outer and inner steps of c_e(k, l; s), a walk along l at k = 0,
    then along k; each record (C, x, y, p) has a C carrying s^p, so one
    compiled family serves every shift s -> q^w s."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    a2, c2, s2 = a * a, c * c, s * s
    sa4 = q2 * s2 / (a2 * a2)
    outer = (
        q2 / c2,
        [
            (c2 / q, 2, 0, 0), (s2 / a2, 2, 0, 2), (s, 2, 0, 1), (q * s, 2, 0, 1),
            (sa4, 4, 0, 2), (sa4 * q2, 4, 0, 2),
        ],
        [
            (q2, 2, 0, 0), (q ** 3 * s2 / (a2 * c2), 2, 0, 2), (q * s / a2, 2, 0, 1),
            (q2 * s / a2, 2, 0, 1), (s2 / a2, 4, 0, 2), (q2 * s2 / a2, 4, 0, 2),
        ],
    )
    inner = (q2 / a2, [(a2, 0, 2, 0), (s2, 4, 2, 2)], [(q2, 0, 2, 0), (q2 * s2 / a2, 4, 2, 2)])
    return outer, inner


def _odd_steps(s, P: ParamPoint) -> tuple:
    """The outer and inner steps of c_o(m, n; s), a walk along m at n = 0,
    then along n; each record (C, x, y, p) has a C carrying s^p, so one
    family serves every shift s -> q^w s.  The walk also sums the regrouped
    display, whose ladders in m + n step by the records with x = y: the two
    walks' inner steps are one, and their outer steps differ by
    1 + q^(m+1) s/(ac) over itself."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    sac = q * s * s / (a * a * c * c)
    sabcd = q * q * s * s / (a * b * c * d)
    sacn = -q * s / (a * c)
    outer = (
        q / b,
        [(-b / a, 1, 0, 0), (s, 1, 0, 1), (q * s / (c * d), 1, 0, 1), (sac, 1, 0, 2)],
        [(q, 1, 0, 0), (sabcd, 1, 0, 2), (sac, 2, 0, 2)],
    )
    inner = (
        q / d,
        [
            (-d / c, 0, 1, 0), (q * s / (a * b), 0, 1, 1), (s, 1, 1, 1), (sacn, 1, 1, 1),
            (sac, 1, 1, 2),
        ],
        [(q, 0, 1, 0), (sabcd, 1, 1, 2), (sacn, 0, 1, 1), (sac, 2, 2, 2)],
    )
    return outer, inner


def _odd_walk(steps, q, W: int, shift: int) -> list:
    """c_o(m, n) summed along m + n = w for w = 0..W, from the odd family's
    steps taken at q^shift s."""
    return walk([W - m for m in range(W + 1)], q, *steps, "the odd family", shift)


def odd_sums(s, P: ParamPoint, W: int) -> list:
    """c_o(m, n; s) summed along m + n = w for w = 0..W: a walk along m at
    n = 0, then along n."""
    return _odd_walk(_odd_steps(rat(s), P), P.q, W, 0)


def _coupled_steps(s, P: ParamPoint, twist: int) -> tuple:
    """The outer and inner steps of

        (q a^2/c^2, q^3 s/c^2, q^2 s^2/c^4; q^2)_k (q^2/a^2)^k
        / (q^2, q s/c^2, q^3 s^2/(a^2 c^2); q^2)_k
        * (cu; q)_l (su; q)_(2k+l) (q^2/c^2)^l / ((q; q)_l (q^2 s/c^2; q)_(2k+l)),

    with cu = c^2/q^(1 + twist) and su = s/q^twist, a walk along l at
    k = 0, then along k; the (.; q)_(2k+l) ladders add two factors per step
    in k.  The coupled even route takes twist 0, the primed even family
    twist 1.  Each record (C, x, y, p) has a C carrying s^p."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    a2, c2 = a * a, c * c
    q2sc = q2 * s / c2
    cu, su = c2 / q ** (1 + twist), s / q ** twist
    outer = (q2 / c2, [(cu, 1, 0, 0), (su, 1, 0, 1)], [(q, 1, 0, 0), (q2sc, 1, 0, 1)])
    inner = (
        q2 / a2,
        [
            (q * a2 / c2, 0, 2, 0), (q ** 3 * s / c2, 0, 2, 1),
            (q2 * s * s / (c2 * c2), 0, 2, 2), (su, 1, 2, 1), (su * q, 1, 2, 1),
        ],
        [
            (q2, 0, 2, 0), (q * s / c2, 0, 2, 1), (q ** 3 * s * s / (a2 * c2), 0, 2, 2),
            (q2sc, 1, 2, 1), (q2sc * q, 1, 2, 1),
        ],
    )
    return outer, inner


def _primed_walk(steps, q, s, D: int, shift: int) -> list:
    """c'_e(k, l) summed along k + l = K for K = 0..D, from the primed even
    family's steps built at s and taken at q^shift s.  The coupled walk
    covers every factor but the ratio (1 - q^(2k+2l-1) s) / (1 - s/q),
    which depends on k + l alone and multiplies each sum."""
    s = s * q ** shift
    if s == q:
        raise ParameterDegeneracy("the ratio factor needs s != q")
    sums = walk([D - l for l in range(D + 1)], q, *steps, "the primed even family", shift)
    return [
        value * (1 - q ** (2 * K - 1) * s) / (1 - s / q) for K, value in enumerate(sums)
    ]


def phi_series(s, P: ParamPoint, N: int) -> tuple:
    """Coefficients through x^N of the fourfold series
    sum c_e(k, l; q^(m+n) s) c_o(m, n; s) x^(2k+2l+m+n), a tuple of
    Fractions indexed by the power of x, under the generic-s convention:
    the symbolic prefactor x^-lambda with s = q^-lambda is never expanded.

    The odd sums over m + n = w come from one walk over m + n <= N; the
    even triangle k + l <= (N - w) / 2 is walked once per w at q^w s, from
    one even family built at s."""
    s, q = rat(s), P.q
    odd = _odd_walk(_odd_steps(s, P), q, N, 0)
    steps = _even_steps(s, P)
    walks = (
        (w, walk(
            [(N - w) // 2 - l for l in range((N - w) // 2 + 1)], q, *steps, "the even family", w
        ))
        for w in range(N + 1)
    )
    return tuple(convolve(odd, walks, N + 1))


def psi_series(s, P: ParamPoint, N: int) -> tuple:
    """Coefficients through x^N of the single-sum form of the series: the
    binomial prefactor in qx/a times terminating inner sums of length n+1.

    The inner sums are the rows of one walk over the triangle
    0 <= k <= n <= N, whose term (n, k) is the k-th term of the n-th
    terminating 6phi5 times its outer factor.  Each row is summed by
    _terminating_row, phi_sum's kernel, on one compiled step: it stops at
    its first zero upper factor, as phi_sum stops at its first cutoff, and
    a vanishing lower factor inside it raises phi_sum's PoleInLower, naming
    the row n and the term.  The prefactor's coefficients multiply the
    rows by convolve at stride 1, one Fraction per coefficient of x^j."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    sq = P.sqrt_q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the series needs s != 0")
    pref = qbinom_series(a ** 2 / q, q, N)
    s2a2 = s * s / (a * a)
    # outer: the factor (q s^2/a^2; q)_n (a/s)^n / (q; q)_n, from n to n + 1;
    # its lower (q; q)_n never vanishes, as q > 0 and q != 1.  inner: the
    # 6phi5 term ratio from k to k + 1 in row n
    outer, inner = _compiled(
        q,
        (a / s, [(q * s2a2, 1, 0)], [(q, 1, 0)]),
        (
            q,
            [
                (Fraction(1), -1, 1), (q * s2a2, 1, 1), (s, 0, 1),
                (q * s / (a * b), 0, 1), (q * s / (a * c), 0, 1), (q * s / (a * d), 0, 1),
            ],
            [
                (q, 0, 1), (q * q * s * s / P.abcd(), 0, 1), (sq * s / a, 0, 1),
                (-sq * s / a, 0, 1), (q * s / a, 0, 1), (-q * s / a, 0, 1),
            ],
        ),
    )
    rows = []
    head = Fraction(1)
    for n in range(N + 1):
        if n:
            num, den, low = _factors(outer, n - 1, 0)
            head = Fraction(head.numerator * num, head.denominator * den * low)
        total = _terminating_row(inner, n, n + 1, f"row {n} of the inner 6phi5")
        rows.append(head * Fraction(*total))
    # the prefactor's coefficients of x^i, (a^2/q; q)_i / (q; q)_i (q/a)^i,
    # each times the rows truncated to x^N
    qa = q / a
    weights = [value * qa ** i for i, value in enumerate(pref)]
    truncated = ((i, rows[: N + 1 - i]) for i in range(N + 1))
    return tuple(convolve(weights, truncated, N + 1, stride=1))


@lru_cache(maxsize=None)
def _unit_families(P: ParamPoint) -> tuple:
    """The odd and even families' steps built at s = 1: fourfold_poly takes
    them at s = q^-lam for every lam.  Memoized per point for the process;
    shared, and must not be mutated."""
    one = Fraction(1)
    return _odd_steps(one, P), _even_steps(one, P)


def fourfold_poly(lam: int, P: ParamPoint) -> LaurentPoly:
    """One-row polynomial as a finite sum over the lattice polyhedron
    0 <= m <= lam, 0 <= n <= lam-m, 0 <= 2l <= lam-m-n, 0 <= k <= lam-2l-m-n,
    with s pinned to q^-lam: the odd family walked at shift -lam, the even
    one at w - lam, and the prefactor folded into each coefficient's
    one Fraction.

    The even walk at m + n = w is skipped when the odd sum there is zero.
    That cannot hide a degenerate point: every lower factor the even family
    meets at w >= 1 is either met again at w = 0, whose odd sum is 1, or
    forces a vanishing (q s^2/(a^2 c^2); q^2)_m in the odd walk."""
    P.require("a", "b", "c", "d")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    odd_steps, even_steps = _unit_families(P)
    q = P.q
    odd = _odd_walk(odd_steps, q, lam, -lam)
    walks = (
        (w, walk(
            [lam - w - 2 * l for l in range((lam - w) // 2 + 1)], q, *even_steps,
            "the even family", w - lam,
        ))
        for w in range(lam + 1)
        if odd[w]
    )
    pref = qpoch(P.abcd() * q ** (lam - 1), q, lam)
    coeffs = convolve(odd, walks, 2 * lam + 1, pref)
    terms = {(e - lam,): c for e, c in enumerate(coeffs) if c}
    return LaurentPoly._raw(1, terms)


def even_sum_closed(s, P: ParamPoint, N: int) -> list:
    """Coefficients of x^(2K), K = 0..N, of sum c_e(k,l;s) x^(2k+2l) by the
    per-degree closed form: a head factor times a terminating 4phi3 in q^2.

    The parameters free of K are built once; q^(2K) s^2, q^(-2K) and the
    power (q^3/(a^2 c^2))^K each step by one multiply per degree."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    a2, c2, s2 = a * a, c * c, s * s
    a2c2_q = a2 * c2 / q
    head_uppers, head_lowers = (a2c2_q, s2), (q2, q2 * s2 / a2c2_q)
    fixed, lowers = (a2 / q, c2 / q), (-s, -q * s, a2c2_q)
    unit = q2 / a2c2_q  # q^3/(a^2 c^2)
    shifted, down, power = s2, Fraction(1), Fraction(1)  # K = 0
    closed = []
    for K in range(N + 1):
        if K:
            shifted, down, power = shifted * q2, down / q2, power * unit
        head = qpoch_ratio(
            head_uppers, head_lowers, q2, K, "the head factor of the closed even form"
        )
        spec = PhiSpec(uppers=fixed + (shifted, down), lowers=lowers, base=q2, argument=q2)
        closed.append(head * power * phi_sum(spec, K))
    return closed


def _split_sums(s, P: ParamPoint, tops) -> list:
    """The split bibasic form of c_e(k, l; s) summed along k + l, over
    0 <= l < len(tops), 0 <= k <= tops[l]: a walk along l at k = 0, then
    along k."""
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    a2, c2, s2 = a * a, c * c, s * s
    sac3 = q ** 3 * s2 / (a2 * c2)
    outer = (
        q2 / c2,
        [(c2 / q, 1, 0), (s, 1, 0), (q2 * s2 / (a2 * a2), 2, 0)],
        [(q, 1, 0), (q * s / a2, 1, 0), (sac3, 2, 0)],
    )
    inner = (q2 / a2, [(q * a2 / c2, 0, 2), (s2, 2, 2)], [(q2, 0, 2), (sac3, 2, 2)])
    return walk(tops, q, outer, inner, "the split form")


def even_sum_forms(s, P: ParamPoint, N: int) -> EvenSumForms:
    """Coefficients of x^(2K), K = 0..N, of sum c_e(k,l;s) x^(2k+2l) by four
    routes: the raw double sum, the per-degree closed form, and the two
    bibasic rewrites (split ladders, and ladders coupled through 2k+l).

    Every route but the closed one walks the triangle k + l <= N by running
    ratios, along l at k = 0 and then along k; the coupled route walks the
    family whose shifted ladders are the primed even family g_row_sym
    reads."""
    P.require("a", "c")
    s = rat(s)
    tops = [N - l for l in range(N + 1)]
    raw = walk(tops, P.q, *_even_steps(s, P), "the even family")
    closed = even_sum_closed(s, P, N)
    split = _split_sums(s, P, tops)
    coupled = walk(tops, P.q, *_coupled_steps(s, P, 0), "the coupled form")
    return EvenSumForms(raw, closed, split, coupled)


def odd_sum_closed(l: int, s, P: ParamPoint) -> Fraction:
    """The degree-l odd sum sum_m c_o(m, l-m; s) by its closed form: a head
    factor times a terminating 4phi3.  odd_sums(s, P, L)[l], L >= l, is the
    direct side it is checked against."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the closed odd form needs s != 0")
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
    return head * (q / d) ** l * phi_sum(spec, l)


def simplified_series(variant: str, s, P: ParamPoint, N: int) -> tuple:
    """Twofold rewrite of the fourfold series at a chained parameter point.

    HALF_BASE expects (a, b, c, d) = (-A, B, -q^(1/2) A, q^(1/2) B) and mixes
    bases q^(1/2) and q; FULL_BASE expects (-A, B, -q^(1/2) A, q^(1/2) A) and
    stays in base q.  Coefficients are indexed by the true x power 2m + l.
    FULL_BASE needs N >= 2, else ValueError: its walk keeps the lower
    (q s/A^2; q)_l, which vanishes at s/A^2 = q^-1 from N = 1 on, where the
    fourfold series meets that factor only from N = 2 on.
    """
    P.require("a", "b", "c", "d")
    sq = P.sqrt_q
    A = -P.a
    if P.c != -sq * A:
        raise ParameterDegeneracy("variant needs c = -q^(1/2) a chained to a")
    if variant == HALF_BASE:
        if P.d != sq * P.b:
            raise ParameterDegeneracy("half-base variant needs d = q^(1/2) b")
    elif variant == FULL_BASE:
        if P.d != sq * A:
            raise ParameterDegeneracy("full-base variant needs d = q^(1/2) a")
        if N < 2:
            raise ValueError(f"the full-base walk needs N >= 2, not {N}")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    tops = [(N - l) // 2 for l in range(N + 1)]
    return tuple(collapse_sums(variant, s, P, tops, f"the {variant} collapse"))


def collapse_sums(variant: str, s, P: ParamPoint, tops, what: str, twist: int = 0) -> list:
    """Sums along 2m + l, over 0 <= l < len(tops), 0 <= m <= tops[l], of a
    tied-point collapse at A = -a, B = b, a point the caller has checked: an
    l-block times (A^2 q^-twist; q)_m (s q^-twist; q)_(l+m) (q/A^2)^m
    / ((q; q)_m (q s/A^2; q)_(l+m)).  FULL_BASE's l-block is
    (B/A, s^2/A^4, q s/A^2; q)_l (q/B)^l / (q, q s^2/(A^3 B), s/A^2; q)_l,
    walked uncancelled to meet every lower factor of the quadratic-pair
    lemma's ladders; HALF_BASE's, (B/A, s/A^2; q^(1/2))_l (q s/A^2; q)_l
    (q^(1/2)/B)^l / ((q^(1/2), q^(1/2) s/(A B); q^(1/2))_l (s/A^2; q)_l), is
    walked on powers of q^(1/2), every base-q exponent doubled."""
    A, B, q, s = -P.a, P.b, P.q, rat(s)
    A2 = A * A
    qs, su = q * s / A2, s / q ** twist
    if variant == FULL_BASE:
        base, e = q, 1
        outer = (
            q / B,
            [(B / A, 1, 0), (s * s / (A2 * A2), 1, 0), (su, 1, 0), (qs, 1, 0)],
            [(q, 1, 0), (q * s * s / (A2 * A * B), 1, 0), (s / A2, 1, 0), (qs, 1, 0)],
        )
    else:
        sq = P.sqrt_q
        base, e = sq, 2
        outer = (
            sq / B,
            [(B / A, 1, 0), (s / A2, 1, 0), (su, 2, 0)],
            [(sq, 1, 0), (sq * s / (A * B), 1, 0), (s / A2, 2, 0)],
        )
    inner = (q / A2, [(A2 / q ** twist, 0, e), (su, e, e)], [(q, 0, e), (qs, e, e)])
    return walk(tops, base, outer, inner, what, stride=2)
