"""Rank-two apparatus on the half-integer weight lattice: the three-parameter
difference operator, its triangular eigenpolynomials, the explicit fivefold
series conjectured to equal them, and the collapsed forms (single-row
threefold sum, unit-coefficient character polytope).

Weights live on the doubled lattice so half-integer entries stay exact.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .algebra import (
    ClearedShiftOperator,
    LaurentPoly,
    OrbitPoly,
    ParamPoint,
    dominated_partitions,
    rat,
    solve_triangular_eigenproblem,
    weyl_invariant,
)
from .errors import DimensionMismatch, InexactDivision, NonTerminating, ParameterDegeneracy
from .qseries import _add_over_lcm, qpoch
from .reports import SKIPPED, poly_mismatch


@dataclass(frozen=True)
class B2Weight:
    """Dominant weight r1*w1 + r2*w2, i.e. (l1, l2) = (r1 + r2/2, r2/2)."""

    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("fundamental-weight multiplicities must be nonnegative")

    @property
    def doubled(self):
        return (2 * self.r1 + self.r2, self.r2)

    @property
    def total(self) -> int:
        return self.r1 + self.r2


def _b2_generator(P: ParamPoint) -> tuple:
    """The records (u, e), each the factor 1 - u x^e on the doubled
    lattice, of the numerator and denominator of the coefficient of the
    (T - 1) term of the shift x_1 -> q x_1, and the scalar 1; the signed
    permutations give the other three directions.  The coefficients of the
    four shifts add up to the constant E(0) of b2_eigenvalue, so the
    operator is the rank-two operator less E(0), and it annihilates
    constants.

    The factors sit at the two long roots (2, -2) and (2, 2) and at the
    short root (2, 0) of the doubled lattice; swapping the long roots is the
    inversion of x_2, so the coefficient is invariant under it.  No
    denominator is the pole 1 - q^(1/2) y_1^2; the three are the roots
    alpha with alpha_1 > 0 of B_2 on the doubled lattice, whose rho is
    (3, 1), so the operator applies by Weyl straightening."""
    roots = ((2, -2), (2, 2), (2, 0))
    return list(zip((P.t, P.t, P.T), roots)), [(1, e) for e in roots], 1


@lru_cache(maxsize=None)
def _b2_operator(P: ParamPoint) -> ClearedShiftOperator:
    return ClearedShiftOperator(P, 2, *_b2_generator(P), scale=2)


def b2_apply(f: LaurentPoly, P: ParamPoint) -> LaurentPoly:
    """Act with the rank-two difference operator on the doubled lattice.

    f must be invariant under permutations and inversions of the two
    variables; any other input raises ValueError.  The operator applies to
    f's orbit form and the image is expanded."""
    P.require("sqrt_t", "sqrt_T")
    if f.num_vars != 2 or f.scale != 2:
        raise DimensionMismatch("operator acts on two variables at lattice scale 2")
    return _b2_operator(P).apply(OrbitPoly.from_poly(f)).expand()


def b2_eigenvalue(w: B2Weight, P: ParamPoint) -> Fraction:
    """E(w) - E(0), with E(w) = t^2 T q^l1 + t T q^l2 + t q^-l2 + q^-l1 on
    the doubled exponents.  E(w) is t T^(1/2) (s + 1/s) summed over the
    spectral values s_1 = t T^(1/2) q^l1 and s_2 = T^(1/2) q^l2, so each
    of them gives one shifted term less its base at the zero weight."""
    P.require("sqrt_t", "sqrt_T")
    front = P.t * P.sqrt_T
    total = Fraction(0)
    for base, d in zip((front, P.sqrt_T), w.doubled):
        shifted = base * P.sqrt_q ** d
        total += front * (shifted + 1 / shifted - base - 1 / base)
    return total


def _dominant_below(w: B2Weight):
    """Doubled exponent pairs of dominant weights <= w in the root order.

    mu <= lam iff lam - mu is a nonnegative integer combination of the two
    simple roots, i.e. lam1 - mu1 >= 0 and |lam| - |mu| >= 0 within the same
    half-integer coset: the partitions dominated by the doubled w whose
    entries have its parity.  Sorted by (total, first) descending, a linear
    extension of the order with w first.
    """
    D1, D2 = w.doubled
    below = dominated_partitions((D1, D2), 2)
    below = [d for d in below if d[0] % 2 == d[1] % 2 == D1 % 2]
    return sorted(below, key=lambda d: (d[0] + d[1], d[0]), reverse=True)


def b2_oracle(w: B2Weight, P: ParamPoint) -> LaurentPoly:
    """Eigenpolynomial through the triangular solve, independent of any
    explicit summation formula.  The operator keeps its columns, so the
    weights at one point apply it once per distinct dominant weight."""
    P.require("sqrt_t", "sqrt_T")
    coeffs = solve_triangular_eigenproblem(_dominant_below(w), _b2_operator(P).column)
    return OrbitPoly._raw(2, coeffs, 2).expand()


# -- the explicit series ---------------------------------------------------------
#
# Every Pochhammer argument is gamma * t^p with gamma free of t, so the same
# summation code runs over two scalar rings: exact rationals at a generic
# point, and leading terms of Laurent expansions in v (t = tv (1 + v)) at
# q = t = T, where the factors pick up zeros and poles that only cancel in
# the limit.  Both rings carry bare Python integers, with no object made per
# factor or per cell: a value is a tuple (num, den) for num / den in the
# first ring and (num, den, off) for (num / den) v^off in the second,
# reduced once a step, in ratio.  A factor 1 - C q^(e + k) t^p of a ladder
# is a record (an, ad, p, e), whose an / ad = C t^p the ring folds once per
# series with scaled.  product multiplies the factors of a list of records
# at step k, ratio steps a running value, accumulate crosses a cell with
# its skew and diagonal weights into the coefficients, each an integer
# numerator over the running lcm of its denominators, and finish hands back
# the nonzero coefficients, one Fraction each.  A value is dead when its
# numerator is 0: zero at the point in the first ring, zero as a function
# of t in the second.  The walk's zero tests take that numerator as an int,
# so a truth test there reads it; a value tuple itself is always true.
#
# The series has five indices: the principal n, theta2, theta3 and the two
# two-factor sums (skew and diagonal).  The head of each n stays a product of
# full ladders, since its q^n T/(c1 c2) ladders shift with n.  Every other
# index is a running-ratio direction, and one stepper walks them all:
# direction(start, unit, nums, dens, label) yields term k + 1 = term k *
# unit * num / den with num and den the products of the factor records nums
# and dens at k.  A dead numerator ends the direction, a dead denominator is
# a ParameterDegeneracy, and an index past the scan bound is NonTerminating.
# A direction's term 0 is the running term of the index it is nested in, so
# a cell of the series is its theta3 term and costs no product of its own.
#
# The second ring tracks one coefficient per value and nothing past it: a
# product or quotient of leading terms is exact, and a sum whose leading
# terms cancel only knows that it is O(v^(off + 1)).  So a limit it returns
# is exact, and a coefficient whose terms cancel at order 0 or below raises
# ParameterDegeneracy instead of being expanded further.


def _power_table(x):
    """k -> x^k as integers (num, den), for any integer k and a nonzero
    rational x; each power is computed once."""
    x = rat(x)
    num, den = x.numerator, x.denominator
    memo = {}

    def power(k: int) -> tuple:
        pair = memo.get(k)
        if pair is None:
            pair = memo[k] = (num ** k, den ** k) if k >= 0 else (den ** -k, num ** -k)
        return pair

    return power


class _Ring:
    """Shared by both rings: q^e and t^p read from two power tables.  A
    factor record (an, ad, p, e) stands for 1 - x at step k, with
    x = (an / ad) q^(e + k) and an / ad = C t^p for a C free of q and t."""

    def __init__(self, q, t):
        self.q_power, self.t_power = _power_table(q), _power_table(t)

    def scaled(self, cn: int, cd: int, p: int) -> tuple:
        """C t^p as integers (an, ad)."""
        tn, td = self.t_power(p)
        return cn * tn, cd * td

    @staticmethod
    def ratio(x, unit, num, den) -> tuple:
        """x unit num / den as a reduced pair; den is not dead."""
        top = x[0] * unit[0] * num[0] * den[1]
        bottom = x[1] * unit[1] * num[1] * den[0]
        g = gcd(top, bottom)
        return top // g, bottom // g


class _RationalRing(_Ring):
    """Plain evaluation with a numeric t, on unreduced integer pairs: a
    product of factors costs integer multiplies only, ratio reduces a
    running term once per step, and each cell of the series is added to its
    coefficient as an integer numerator over the running lcm of the
    coefficient's denominators."""

    zero_is_identical = False
    one = (1, 1)
    unit = _Ring.scaled

    def product(self, records, k: int) -> tuple:
        q_power = self.q_power
        num = den = 1
        for an, ad, _, e in records:
            qn, qd = q_power(e + k)
            xd = ad * qd
            num *= xd - an * qn
            den *= xd
        return num, den

    @staticmethod
    def accumulate(out: dict, base1: int, base2: int, cell, skew, diagonal) -> None:
        """Add cell times each product of a skew and a diagonal weight to
        the coefficient at base plus both offsets."""
        cn, cd = cell
        for (e1, e2), (sn, sd) in skew:
            ln, ld, b1, b2 = cn * sn, cd * sd, base1 + e1, base2 + e2
            for (g1, g2), (wn, wd) in diagonal:
                exps = (b1 + g1, b2 + g2)
                entry = out.get(exps)
                if entry is None:
                    out[exps] = [ln * wn, ld * wd]
                else:
                    _add_over_lcm(entry, ln * wn, ld * wd)

    @staticmethod
    def finish(out: dict) -> dict:
        return {exps: Fraction(num, den) for exps, (num, den) in out.items() if num}


class _JetRing(_Ring):
    """Leading terms (num / den) v^off of the expansion around t = tv, for
    points where the plain substitution hits 0/0.  A dead value here is zero
    as a rational function of t, not merely zero at the point; a coefficient
    entry [0, den, off] is O(v^off), what is left after its leading terms
    cancel."""

    zero_is_identical = True
    one = (1, 1, 0)

    def unit(self, cn: int, cd: int, p: int) -> tuple:
        return (*self.scaled(cn, cd, p), 0)

    @staticmethod
    def factor(xn: int, xd: int, p: int) -> tuple:
        """1 - x (1 + v)^p, for x = xn / xd = gamma tv^p: where the constant
        term vanishes the linear one, -x p v, leads unless p = 0, and then
        the factor is zero identically."""
        if xn != xd:
            return xd - xn, xd, 0
        if p == 0:
            return 0, 1, 0
        return -p, 1, 1

    def product(self, records, k: int) -> tuple:
        q_power, factor = self.q_power, self.factor
        num = den = 1
        off = 0
        for an, ad, p, e in records:
            qn, qd = q_power(e + k)
            fn, fd, fo = factor(an * qn, ad * qd, p)
            num *= fn
            den *= fd
            off += fo
        return num, den, off

    def ratio(self, x, unit, num, den) -> tuple:
        return (*super().ratio(x, unit, num, den), x[2] + unit[2] + num[2] - den[2])

    @staticmethod
    def add(out: dict, exps, num: int, den: int, off: int) -> None:
        """Add the live term (num / den) v^off to the coefficient at exps:
        the lower order wins, and where the leading coefficients cancel
        all that is known is O(v^(off + 1))."""
        entry = out.get(exps)
        if entry is None or off < entry[2]:
            out[exps] = [num, den, off]
        elif off == entry[2] and entry[0]:
            _add_over_lcm(entry, num, den)
            if not entry[0]:
                entry[2] = off + 1

    def accumulate(self, out: dict, base1: int, base2: int, cell, skew, diagonal) -> None:
        cn, cd, co = cell
        for (e1, e2), (sn, sd, so) in skew:
            ln, ld, lo, b1, b2 = cn * sn, cd * sd, co + so, base1 + e1, base2 + e2
            for (g1, g2), (wn, wd, wo) in diagonal:
                self.add(out, (b1 + g1, b2 + g2), ln * wn, ld * wd, lo + wo)

    @staticmethod
    def finish(out: dict) -> dict:
        """The coefficients at v = 0: a leading term at a negative order is
        a genuine pole, and one lost to cancellation at order 0 or below is
        unknown; both raise ParameterDegeneracy."""
        terms = {}
        for exps, (num, den, off) in out.items():
            if not num:
                if off < 1:
                    raise ParameterDegeneracy("series precision exhausted at evaluation")
            elif off < 0:
                raise ParameterDegeneracy("coefficient diverges at the collapsed parameter point")
            elif off == 0:
                terms[exps] = Fraction(num, den)
        return terms


def _series_terms(w: B2Weight, P: ParamPoint, ring, bound: int) -> dict:
    """Doubled-exponent coefficient dict of the terminating fivefold series,
    its nonzero coefficients as Fractions.

    All t-dependence is routed through the ring; every other argument is a
    gamma = q^k C, with C = T^a c1^b c2^c an integer pair and c1, c2 the two
    numeric spectral pieces of s1 = t c1, s2 = c2.  Ladder directions stop
    when a running numerator factor is dead; indices past the scan bound
    raise NonTerminating.
    """
    d1, d2 = w.doubled
    sqn, sqd = P.sqrt_q.numerator, P.sqrt_q.denominator
    sTn, sTd = P.sqrt_T.numerator, P.sqrt_T.denominator
    qn, qd, Tn, Td = sqn ** 2, sqd ** 2, sTn ** 2, sTd ** 2
    c1n, c1d = sTn * sqn ** d1, sTd * sqd ** d1
    c2n, c2d = sTn * sqn ** d2, sTd * sqd ** d2
    identical, product, ratio = ring.zero_is_identical, ring.product, ring.ratio

    def fold(cn, cd, p):
        """The constant (an, ad, p) of the factors 1 - C q^e t^p over e,
        with C = cn / cd and an / ad = C t^p."""
        return (*ring.scaled(cn, cd, p), p)

    # the constants C of the factors, each folded with its power of t: a
    # name ends in _t for t, _1t for 1/t and _1tt for 1/t^2
    one, one_t, one_1t = fold(1, 1, 0), fold(1, 1, 1), fold(1, 1, -1)
    T_0, T_1t = fold(Tn, Td, 0), fold(Tn, Td, -1)
    inv_cc_1t, inv_cc_1tt = fold(c1d * c2d, c1n * c2n, -1), fold(c1d * c2d, c1n * c2n, -2)
    T_cc, T_cc_1t, T_cc_1tt = (fold(Tn * c1d * c2d, Td * c1n * c2n, p) for p in (0, -1, -2))
    c1_c2_t = fold(c1n * c2d, c1d * c2n, 1)
    c2_c1, c2_c1_1t, c2_c1_1tt = (fold(c2n * c1d, c2d * c1n, p) for p in (0, -1, -2))
    inv_c1c1_1tt, inv_c2c2 = fold(c1d ** 2, c1n ** 2, -2), fold(c2d ** 2, c2n ** 2, 0)
    T_c1c1_1tt = fold(Tn * c1d ** 2, Td * c1n ** 2, -2)
    T_c2c2 = fold(Tn * c2d ** 2, Td * c2n ** 2, 0)
    q_t = ring.unit(qn, qd, -1)
    q_T = ring.unit(qn * Td, qd * Tn, 0)

    def stop(num: int, den: int, what) -> bool:
        """Whether this ladder direction just terminated, read off the
        numerators of its num and den values.

        In the series ring a dead value is zero identically, which only
        happens through the pinned truncation factors, so it wins over a
        dead denominator; numerically a simultaneous 0/0 is a degeneracy.
        """
        if identical and not num:
            return True
        if not den:
            raise ParameterDegeneracy(f"vanishing {what} in the explicit series")
        return not num

    def direction(start, unit, nums, dens, label):
        """Yield (k, term k) along one running-ratio direction: term 0 is
        start, and term k + 1 is term k * unit * num / den with num and den
        the products of the factor records nums and dens at k, until stop
        reads num as dead."""
        run = start
        for k in range(bound + 1):
            yield k, run
            num, den = product(nums, k), product(dens, k)
            if stop(num[0], den[0], "ladder denominator"):
                return
            run = ratio(run, unit, num, den)
        raise NonTerminating(f"{label} index passed {bound} without a vanishing factor")

    ladder_memo: dict = {}

    def two_factor_sum(step: int, m: int, const, const_1t, label: str):
        """Cells (doubled exponent offset, weight) of the sum over one ladder
        direction stepping (-2, step), with gamma = q^m const: cell k + 1 is
        cell k times (q/t) (1 - q^k t)(1 - gamma q^k) /
        ((1 - q^(k+1))(1 - gamma q^(k+1) / t)).  The const is fixed by the
        step, so the cells are memoized per (step, m)."""
        key = (step, m)
        if key not in ladder_memo:
            nums = ((*one_t, 0), (*const, m))
            dens = ((*one, 1), (*const_1t, m + 1))
            ladder_memo[key] = [
                ((-2 * k, step * k), run)
                for k, run in direction(ring.one, q_t, nums, dens, label)
            ]
        return ladder_memo[key]

    def ladders(*specs):
        """The factor records of the ladders (constant, length m, first
        exponent e): 1 - C q^(e + k) t^p for k < m."""
        return [(*A, e + k) for A, m, e in specs for k in range(m)]

    out: dict = {}
    for n in range(bound + 1):
        # the two 2n-ladders sharing numerator arguments are folded into
        # denominator tails of length n
        head_num = product(ladders(
            (one_1t, n, 1), (T_1t, n, 0), (T_0, n, 0), (inv_cc_1tt, n, 1),
            (T_c1c1_1tt, 2 * n, 0), (T_c2c2, 2 * n, 0),
        ), 0)
        head_den = product(ladders(
            (one, n, 1), (inv_c1c1_1tt, n, 1), (inv_c2c2, n, 1), (c1_c2_t, n, 1),
            (c2_c1_1t, n, 1), (inv_cc_1t, n, 1), (T_cc_1t, n, n), (T_cc_1tt, n, n),
        ), 0)
        if stop(head_num[0], head_den[0], "series prefactor denominator"):
            return ring.finish(out)
        head = ring.unit((qn * Td) ** (2 * n), (qd * Tn) ** (2 * n), n)
        hterm = ratio(ring.one, head, head_num, head_den)
        second = (
            ((*T_0, n), (*T_c2c2, 2 * n), (*T_cc_1t, n), (*c1_c2_t, 1)),
            ((*one, 1), (*inv_c2c2, n + 1), (*T_cc_1t, 2 * n), (*c1_c2_t, n + 1)),
        )
        for t2, run2 in direction(hterm, q_T, *second, "second direction"):
            third = (
                (
                    (*T_0, n), (*T_c1c1_1tt, 2 * n), (*c2_c1, 0), (*c2_c1_1tt, 1 - t2),
                    (*T_cc_1t, n), (*T_cc_1tt, 2 * n + t2 + 1),
                ),
                (
                    (*one, 1), (*inv_c1c1_1tt, n + 1), (*c2_c1_1t, n + 1), (*c2_c1_1t, -t2),
                    (*T_cc_1tt, 2 * n + 1), (*T_cc_1t, 2 * n + t2),
                ),
            )
            for t3, cell in direction(run2, q_T, *third, "third direction"):
                # the x2/x1 direction depends on theta3 - theta2 only, the
                # 1/(x1 x2) direction on 2n + theta2 + theta3
                ring.accumulate(
                    out, d1 - 2 * n - 2 * t3, d2 - 2 * n - 2 * t2, cell,
                    two_factor_sum(2, t3 - t2, c2_c1, c2_c1_1t, "skew direction"),
                    two_factor_sum(-2, 2 * n + t2 + t3, T_cc, T_cc_1t, "diagonal direction"),
                )
    raise NonTerminating(f"principal direction index passed {bound} without a vanishing factor")


def _default_bound(w: B2Weight) -> int:
    return 4 * w.total + 8


@lru_cache(maxsize=None)
def f_b2_poly(w: B2Weight, P: ParamPoint) -> LaurentPoly:
    """The explicit series at the weight's own spectral point, fully expanded.

    The conjecture sweep and the threefold rows ask for the same weights,
    so the result is memoized per (w, P) for the process; it is shared by
    every caller and must not be mutated."""
    P.require("sqrt_t", "sqrt_T")
    return LaurentPoly(2, _series_terms(w, P, _RationalRing(P.q, P.t), _default_bound(w)), 2)


def b2_character_series(w: B2Weight, P: ParamPoint) -> LaurentPoly:
    """The explicit series at q = t = T, where the plain substitution is 0/0
    and every coefficient is taken as an exact one-variable limit."""
    P.require("sqrt_t", "sqrt_T")
    if not (P.sqrt_q == P.sqrt_t == P.sqrt_T):
        raise ParameterDegeneracy("character collapse needs q = t = T")
    return LaurentPoly(2, _series_terms(w, P, _JetRing(P.q, P.q), _default_bound(w)), 2)


def b2_character_polytope(r1: int, r2: int) -> LaurentPoly:
    """Unit-coefficient monomial sum over the character polytope; negative
    multiplicities raise ValueError, as B2Weight does."""
    w = B2Weight(r1, r2)
    d1, d2 = w.doubled
    out: dict = {}
    for t2 in range(r2 + 1):
        for t3 in range(r1 + 1):
            for t1 in range(r1 + t2 - t3 + 1):
                for t4 in range(r1 + r2 - t2 - t3 + 1):
                    exps = (
                        d1 - 2 * t1 - 2 * t3 - 2 * t4,
                        d2 + 2 * t1 - 2 * t2 - 2 * t4,
                    )
                    out[exps] = out.get(exps, Fraction(0)) + 1
    return LaurentPoly(2, out, 2)


def _skew_ladder(m: int, q, t) -> list:
    """The weights k = 0..m of a skew sum of the threefold row,
    (q^-m; q)_k (t; q)_k / (q, q^(1-m)/t; q)_k (q/t)^k, each from the one
    before by its running ratio."""
    weights = [Fraction(1)]
    for j in range(m):
        lower = (1 - q ** (j + 1)) * (1 - q ** (j + 1 - m) / t)
        if not lower:
            raise ParameterDegeneracy("vanishing lower Pochhammer in the skew ladder")
        weights.append(weights[j] * qpoch(q ** (j - m), q, 1) * (1 - t * q ** j) / lower * q / t)
    return weights


def b2_row_threefold(r: int, P: ParamPoint) -> LaurentPoly:
    """Single-row polynomial as the collapsed threefold sum: over t3, the
    weight w3 times x_1^(r - t3) times the skew sums in x_2/x_1 and in
    1/(x_1 x_2), which share one ladder.

    w3 steps by its running ratio as t3 grows.  The terminating factors
    1 - q^(j - r) of w3 and 1 - q^(j - m) of a skew ladder stay bare qpoch
    factors, so this module's qpoch lookup site, which perfbench/spans.py
    traces, still sees work."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t", "sqrt_T")
    q, t, T = P.q, P.t, P.T
    out: dict = {}
    w3 = Fraction(1)
    for t3 in range(r + 1):
        if t3:
            # (q^-r, T, q^-2r/t^2, q^(1-r)/t^2; q)_t3 over
            # (q, q^(1-2r)/(t^2 T), q^(1-r)/t, q^-r/t; q)_t3, times (q/T)^t3
            qj = q ** (t3 - 1)
            lower = (
                (1 - q * qj)
                * (1 - q ** (1 - 2 * r) * qj / (t * t * T))
                * (1 - q ** (1 - r) * qj / t)
                * (1 - q ** -r * qj / t)
            )
            if not lower:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the threefold ladder")
            w3 = w3 * qpoch(q ** -r * qj, q, 1) * (1 - T * qj) * (
                1 - q ** (-2 * r) * qj / (t * t)
            ) * (1 - q ** (1 - r) * qj / (t * t)) / lower * q / T
        if not w3:
            continue
        ladder = [(w.numerator, w.denominator) for w in _skew_ladder(r - t3, q, t)]
        _RationalRing.accumulate(
            out, 2 * (r - t3), 0, (w3.numerator, w3.denominator),
            [((-2 * k, 2 * k), w) for k, w in enumerate(ladder)],
            [((-2 * k, -2 * k), w) for k, w in enumerate(ladder)],
        )
    return LaurentPoly(2, _RationalRing.finish(out), 2)


def b2_conjecture_check(r1: int, r2: int, P: ParamPoint) -> list:
    """Check plan for one weight: the series terminates, it reproduces the
    triangular eigenpolynomial, and it satisfies the difference equation.

    Entries are (id suffix, anchor, degrees, check) and run in order; the
    last two checks are SKIPPED when the series did not terminate, and a
    series the operator cannot divide back out fails the difference
    equation, as does a series that is not invariant.
    """
    w = B2Weight(r1, r2)
    P.require("sqrt_t", "sqrt_T")
    degrees = {"r1": r1, "r2": r2}
    series = []  # termination fills it; the later checks read it

    def termination():
        try:
            series.append(f_b2_poly(w, P))
        except NonTerminating as exc:
            return {"expected": "terminating series", "got": str(exc)}
        return None

    def eigenpolynomial():
        if not series:
            return SKIPPED
        return poly_mismatch(series[0], b2_oracle(w, P))

    def difference_equation():
        if not series:
            return SKIPPED
        f = series[0]
        if not weyl_invariant(f):
            # b2_apply takes invariant polynomials only; this one is no
            # eigenpolynomial of the operator, so it fails here
            return {
                "expected": "series invariant under the signed permutations",
                "got": "a term whose image under a signed permutation is missing",
            }
        try:
            image = b2_apply(f, P)
        except InexactDivision as exc:
            # the operator's alternating sum has no Laurent quotient by the
            # Weyl denominator, as a term off the weight's coset leaves:
            # the series is not in its domain, so it is no eigenpolynomial
            return {
                "expected": "series in the operator's domain",
                "got": f"{type(exc).__name__}: {exc}",
            }
        return poly_mismatch(image, f * b2_eigenvalue(w, P))

    stem = f"r{r1}{r2}-"
    return [
        (stem + "termination", "series-truncation", degrees, termination),
        (stem + "eigenpolynomial", "series-equals-eigenpolynomial", degrees, eigenpolynomial),
        (
            stem + "difference-equation",
            "difference-equation-residual",
            degrees,
            difference_equation,
        ),
    ]
