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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import ClearedShiftOperator, LaurentPoly, ParamPoint, ShiftTerm, rat
from .errors import ParameterDegeneracy
from .qseries import PhiSpec, phi_sum, qbinom_series, qpoch, qpoch_multi

#: variants of the twofold simplification of the fourfold series
HALF_BASE = "half-base"
FULL_BASE = "full-base"


@dataclass(frozen=True)
class SeriesTrunc:
    """Truncated formal series sum_j coeffs[j] x^j, under the generic-s
    convention: the symbolic prefactor x^-lambda with s = q^-lambda is
    never expanded."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> Fraction:
        return self.coeffs[j]


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


def aw_poly(n: int, P: ParamPoint) -> LaurentPoly:
    """Degree-n symmetric Laurent polynomial eigenfunction.

    a^-n (ab,ac,ad;q)_n times the terminating series with upper parameters
    q^-n, abcd q^(n-1), ax, a/x and lower parameters ab, ac, ad, where the
    x-dependent pair is expanded into Laurent factors (1 - a q^i x^(+-1)).
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
    x = LaurentPoly.var(0, 1)
    xinv = LaurentPoly.var(0, 1, power=-1)
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


@lru_cache(maxsize=None)
def _aw_operator(P: ParamPoint) -> ClearedShiftOperator:
    """Generated by the up-shift term; x -> 1/x gives the down-shift."""
    q = P.q
    one = LaurentPoly.one(1)
    x = LaurentPoly.var(0, 1)
    x2 = LaurentPoly.var(0, 1, power=2)
    up = ShiftTerm(
        numer_factors=tuple(one - x * rat(u) for u in (P.a, P.b, P.c, P.d)),
        denom_factors=(one - x2, one - x2 * q),
        var=0,
        step=1,
    )
    return ClearedShiftOperator(P, 1, up)


def aw_apply(f: LaurentPoly, P: ParamPoint) -> LaurentPoly:
    """Apply the q-difference operator to a symmetric Laurent polynomial.

    f must be invariant under x -> 1/x; any other input raises ValueError.
    Denominators are cleared against their least common multiple and divided
    back out exactly, so a result is produced only when the input really lies
    in the operator's polynomial domain.
    """
    P.require("a", "b", "c", "d")
    return _aw_operator(P).apply(f)


def coeff_ce(k: int, l: int, s, P: ParamPoint) -> Fraction:
    """Even-family coefficient c_e(k, l; s): base q^2, depends only on a, c."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    kden = qpoch(q2, q2, k) * qpoch(q ** (4 * l + 2) * s ** 2 / a ** 2, q2, k)
    lden = (
        qpoch(q2, q2, l)
        * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, l)
        * qpoch(q * s / a ** 2, q, 2 * l)
        * qpoch(s ** 2 / a ** 2, q2, 2 * l)
    )
    if kden == 0 or lden == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the even family")
    knum = qpoch(a ** 2, q2, k) * qpoch(q ** (4 * l) * s ** 2, q2, k)
    lnum = (
        qpoch(c ** 2 / q, q2, l)
        * qpoch(s ** 2 / a ** 2, q2, l)
        * qpoch(s, q, 2 * l)
        * qpoch(q ** 2 * s ** 2 / a ** 4, q2, 2 * l)
    )
    return (knum / kden) * (q2 / a ** 2) ** k * (lnum / lden) * (q2 / c ** 2) ** l


def coeff_co(m: int, n: int, s, P: ParamPoint) -> Fraction:
    """Odd-family coefficient c_o(m, n; s): base q with two q^2 ladders."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    q2 = q * q
    sac = q * s ** 2 / (a ** 2 * c ** 2)
    abcd = a * b * c * d
    qm = q ** m
    mden = qpoch(q, q, m) * qpoch(q ** 2 * s ** 2 / abcd, q, m) * qpoch(sac, q2, m)
    nden = (
        qpoch(q, q, n)
        * qpoch(qm * q ** 2 * s ** 2 / abcd, q, n)
        * qpoch(-q * s / (a * c), q, n)
        * qpoch(qm ** 2 * sac, q2, n)
    )
    if mden == 0 or nden == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the odd family")
    mnum = (
        qpoch(-b / a, q, m)
        * qpoch(s, q, m)
        * qpoch(q * s / (c * d), q, m)
        * qpoch(sac, q, m)
    )
    nnum = (
        qpoch(-d / c, q, n)
        * qpoch(qm * s, q, n)
        * qpoch(q * s / (a * b), q, n)
        * qpoch(-qm * q * s / (a * c), q, n)
        * qpoch(qm * sac, q, n)
    )
    return (mnum / mden) * (q / b) ** m * (nnum / nden) * (q / d) ** n


def coeff_co_recast(m: int, n: int, s, P: ParamPoint) -> Fraction:
    """c_o(m, n; s) regrouped so the parameter-symmetric part ladders in m+n.

    Two of the grouped denominators sit at a half power, so the point must
    carry sqrt_q (every ParamPoint does).
    """
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    w = m + n
    half = P.sqrt_q * s / (a * c)
    den = (
        qpoch(q, q, m)
        * qpoch(-q * s / (a * c), q, m)
        * qpoch_multi((q ** 2 * s ** 2 / (a * b * c * d), half, -half), q, w)
        * qpoch(q, q, n)
        * qpoch(-q * s / (a * c), q, n)
    )
    if den == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the regrouped odd family")
    num = (
        qpoch(-b / a, q, m)
        * qpoch(q * s / (c * d), q, m)
        * qpoch_multi(
            (s, -q * s / (a * c), q * s ** 2 / (a ** 2 * c ** 2)), q, w
        )
        * qpoch(-d / c, q, n)
        * qpoch(q * s / (a * b), q, n)
    )
    return (num / den) * (q / b) ** m * (q / d) ** n


def coeff_ce_prime(k: int, l: int, s, P: ParamPoint) -> Fraction:
    """Even-family coefficient absorbing a (1 - x^2) prefactor:
    (1 - x^2) sum c_e(k,l;s) x^(2k+2l) = sum c'_e(k,l;s) x^(2k+2l)."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    if s == q:
        raise ParameterDegeneracy("the ratio factor needs s != q")
    kden = (
        qpoch(q2, q2, k)
        * qpoch(q * s / c ** 2, q2, k)
        * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, k)
    )
    lden = qpoch(q, q, l) * qpoch(q ** 2 * s / c ** 2, q, 2 * k + l)
    if kden == 0 or lden == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the primed even family")
    knum = (
        qpoch(q * a ** 2 / c ** 2, q2, k)
        * qpoch(q ** 3 * s / c ** 2, q2, k)
        * qpoch(q ** 2 * s ** 2 / c ** 4, q2, k)
    )
    lnum = qpoch(c ** 2 / q ** 2, q, l) * qpoch(s / q, q, 2 * k + l)
    ratio = (1 - q ** (2 * k + 2 * l - 1) * s) / (1 - s / q)
    return (knum / kden) * (q2 / a ** 2) ** k * (lnum / lden) * ratio * (q2 / c ** 2) ** l


def phi_series(s, P: ParamPoint, N: int) -> SeriesTrunc:
    """Coefficients through x^N of the fourfold series
    sum c_e(k, l; q^(m+n) s) c_o(m, n; s) x^(2k+2l+m+n)."""
    s = rat(s)
    q = P.q
    coeffs = []
    for j in range(N + 1):
        acc = Fraction(0)
        for w in range(j + 1):
            if (j - w) % 2:
                continue
            deg = (j - w) // 2
            sw = q ** w * s
            even = sum(coeff_ce(deg - l, l, sw, P) for l in range(deg + 1))
            odd = sum(coeff_co(m, w - m, s, P) for m in range(w + 1))
            acc += even * odd
        coeffs.append(acc)
    return SeriesTrunc(tuple(coeffs))


def psi_series(s, P: ParamPoint, N: int) -> SeriesTrunc:
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
        inner.append(outer * phi_sum(spec))
        outer *= (1 - q * s ** 2 / a ** 2 * qn) / (1 - q * qn) * (a / s)
        qn *= q
    coeffs = []
    for j in range(N + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += pref[i] * (q / a) ** i * inner[j - i]
        coeffs.append(acc)
    return SeriesTrunc(tuple(coeffs))


def fourfold_poly(lam: int, P: ParamPoint) -> LaurentPoly:
    """One-row polynomial as a finite sum over the lattice polyhedron
    0 <= m <= lam, 0 <= n <= lam-m, 0 <= 2l <= lam-m-n, 0 <= k <= lam-2l-m-n,
    with s pinned to q^-lam."""
    P.require("a", "b", "c", "d")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    q = P.q
    slam = q ** -lam
    terms: dict = {}
    for m in range(lam + 1):
        for n in range(lam - m + 1):
            w = m + n
            co = coeff_co(m, n, slam, P)
            if co == 0:
                continue
            for l in range((lam - w) // 2 + 1):
                for k in range(lam - 2 * l - w + 1):
                    ce = coeff_ce(k, l, q ** (w - lam), P)
                    if ce == 0:
                        continue
                    e = (-lam + 2 * k + 2 * l + w,)
                    acc = terms.get(e, Fraction(0)) + co * ce
                    if acc:
                        terms[e] = acc
                    else:
                        del terms[e]
    pref = qpoch(P.abcd() * q ** (lam - 1), q, lam)
    return LaurentPoly(1, terms) * pref


def even_sum_forms(s, P: ParamPoint, N: int) -> EvenSumForms:
    """Coefficients of x^(2K), K = 0..N, of sum c_e(k,l;s) x^(2k+2l) by four
    routes: the raw double sum, the per-degree closed form, and the two
    bibasic rewrites (split ladders, and ladders coupled through 2k+l)."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    raw = [
        sum(coeff_ce(K - l, l, s, P) for l in range(K + 1)) for K in range(N + 1)
    ]

    closed = []
    for K in range(N + 1):
        headn = qpoch_multi((a ** 2 * c ** 2 / q, s ** 2), q2, K)
        headd = qpoch_multi((q2, q ** 3 * s ** 2 / (a ** 2 * c ** 2)), q2, K)
        if headd == 0:
            raise ParameterDegeneracy("vanishing head factor in the closed even form")
        spec = PhiSpec(
            uppers=(a ** 2 / q, c ** 2 / q, q ** (2 * K) * s ** 2, q ** (-2 * K)),
            lowers=(-s, -q * s, a ** 2 * c ** 2 / q),
            base=q2,
            argument=q2,
        )
        closed.append(headn / headd * (q ** 3 / (a ** 2 * c ** 2)) ** K * phi_sum(spec))

    split = [Fraction(0)] * (N + 1)
    coupled = [Fraction(0)] * (N + 1)
    for K in range(N + 1):
        for k in range(K + 1):
            l = K - k
            den = (
                qpoch(q2, q2, k)
                * qpoch(q ** (2 * l + 3) * s ** 2 / (a ** 2 * c ** 2), q2, k)
                * qpoch(q, q, l)
                * qpoch(q * s / a ** 2, q, l)
                * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, l)
            )
            if den == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the split form")
            num = (
                qpoch(q * a ** 2 / c ** 2, q2, k)
                * qpoch(q ** (2 * l) * s ** 2, q2, k)
                * qpoch(c ** 2 / q, q, l)
                * qpoch(s, q, l)
                * qpoch(q ** 2 * s ** 2 / a ** 4, q2, l)
            )
            split[K] += num / den * (q2 / a ** 2) ** k * (q2 / c ** 2) ** l

            den = (
                qpoch(q2, q2, k)
                * qpoch(q * s / c ** 2, q2, k)
                * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, k)
                * qpoch(q, q, l)
                * qpoch(q ** 2 * s / c ** 2, q, 2 * k + l)
            )
            if den == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the coupled form")
            num = (
                qpoch(q * a ** 2 / c ** 2, q2, k)
                * qpoch(q ** 3 * s / c ** 2, q2, k)
                * qpoch(q ** 2 * s ** 2 / c ** 4, q2, k)
                * qpoch(c ** 2 / q, q, l)
                * qpoch(s, q, 2 * k + l)
            )
            coupled[K] += num / den * (q2 / a ** 2) ** k * (q2 / c ** 2) ** l
    return EvenSumForms(raw, closed, split, coupled)


def odd_sum_check(l: int, s, P: ParamPoint):
    """Pair (direct, closed) for the degree-l odd sum sum_m c_o(m, l-m; s);
    equality of the two entries is the caller's test."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the closed odd form needs s != 0")
    direct = sum(coeff_co(m, l - m, s, P) for m in range(l + 1))
    half = P.sqrt_q * s / (a * c)
    headd = qpoch_multi(
        (q, q ** 2 * s ** 2 / (a * b * c * d), half, -half), q, l
    )
    if headd == 0:
        raise ParameterDegeneracy("vanishing head factor in the closed odd form")
    headn = qpoch_multi(
        (-d / c, q * s / (a * b), s, q * s ** 2 / (a ** 2 * c ** 2)), q, l
    )
    spec = PhiSpec(
        uppers=(q ** -l, -(q ** -l) * a * c / s, -b / a, q * s / (c * d)),
        lowers=(-(q ** (-l + 1)) * c / d, q ** -l * a * b / s, -q * s / (a * c)),
        base=q,
        argument=q,
    )
    closed = headn / headd * (q / d) ** l * phi_sum(spec)
    return direct, closed


def simplified_series(variant: str, s, P: ParamPoint, N: int) -> SeriesTrunc:
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
            lden = (
                qpoch(sq, sq, l)
                * qpoch(sq * s / (A * B), sq, l)
                * qpoch(s / A ** 2, q, l)
            )
            if lden == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the l ladder")
            lnum = (
                qpoch(B / A, sq, l) * qpoch(s / A ** 2, sq, l) * qpoch(s, q, l)
            )
            lterm = lnum / lden * (sq / B) ** l
        else:
            lden = (
                qpoch(q, q, l)
                * qpoch(q * s ** 2 / (A ** 3 * B), q, l)
                * qpoch(s / A ** 2, q, l)
            )
            if lden == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the l ladder")
            lnum = (
                qpoch(B / A, q, l) * qpoch(s ** 2 / A ** 4, q, l) * qpoch(s, q, l)
            )
            lterm = lnum / lden * (q / B) ** l
        for m in range((N - l) // 2 + 1):
            mden = qpoch(q, q, m) * qpoch(q ** (l + 1) * s / A ** 2, q, m)
            if mden == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the m ladder")
            mnum = qpoch(A ** 2, q, m) * qpoch(q ** l * s, q, m)
            coeffs[2 * m + l] += lterm * mnum / mden * (q / A ** 2) ** m
    return SeriesTrunc(tuple(coeffs))
