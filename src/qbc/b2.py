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
from .qseries import _add_over_lcm, qpoch, qpoch_ratio
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


def _mono(e1: int, e2: int, coeff=1) -> LaurentPoly:
    return LaurentPoly.monomial((e1, e2), coeff, 2)


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
# summation code runs over two scalar rings: exact rationals, carried as
# unreduced integer pairs, at a generic point, and leading terms of Laurent
# expansions in v (t = tv (1 + v)) at q = t = T, where the factors pick up
# zeros and poles that only cancel in the limit.  The walk hands each ring
# gamma as an integer _Pair; a ring builds its values with factor and unit,
# multiplies them, steps a running product by ratio, adds each cell to its
# coefficient with accumulate, and hands the coefficients back with finish.
#
# The series has five indices: the principal n, theta2, theta3 and the two
# two-factor sums (skew and diagonal).  The head of each n stays a product of
# full ladders, since its q^n T/(c1 c2) ladders shift with n.  Every other
# index is a running-ratio direction, and one stepper walks them all:
# direction(unit, factors, label) yields term k + 1 = term k * unit * num /
# den with (num, den) = factors(k).  A dead numerator ends the direction, a
# dead denominator is a ParameterDegeneracy, and an index past the scan bound
# is NonTerminating.
#
# The second ring tracks one coefficient per value and nothing past
# it: a product or quotient of leading terms is exact, and a sum whose leading
# terms cancel only knows that it is O(v^(off + 1)).  So a limit it returns
# is exact, and a coefficient whose terms cancel at order 0 or below raises
# ParameterDegeneracy instead of being expanded further.


class _LeadTerm:
    """coeff * v^off + O(v^(off + 1)) while coeff != 0; with coeff == 0 it
    is O(v^off), all that is left after leading terms cancel; off None marks
    the identically zero series."""

    __slots__ = ("coeff", "off")

    def __init__(self, coeff, off):
        self.coeff = coeff
        self.off = off

    def is_exact_zero(self) -> bool:
        return self.off is None

    def __mul__(self, other):
        if self.off is None or other.off is None:
            return _LEAD_ZERO
        if not self.coeff or not other.coeff:
            raise ParameterDegeneracy("series precision exhausted in a product")
        return _LeadTerm(self.coeff * other.coeff, self.off + other.off)

    def __truediv__(self, other):
        if not other.coeff:
            raise ParameterDegeneracy("division by a vanishing series")
        if self.off is None:
            return _LEAD_ZERO
        if not self.coeff:
            raise ParameterDegeneracy("series precision exhausted in a product")
        return _LeadTerm(self.coeff / other.coeff, self.off - other.off)

    def __add__(self, other):
        if self.off is None:
            return other
        if other.off is None or self.off < other.off:
            return self
        if other.off < self.off:
            return other
        if not self.coeff or not other.coeff:
            return _LeadTerm(Fraction(0), self.off)
        total = self.coeff + other.coeff
        return _LeadTerm(total, self.off) if total else _LeadTerm(total, self.off + 1)

    def value(self) -> Fraction:
        """Evaluate at v = 0; a surviving negative power is a genuine pole."""
        if self.off is None:
            return Fraction(0)
        if not self.coeff:
            if self.off < 1:
                raise ParameterDegeneracy("series precision exhausted at evaluation")
            return Fraction(0)
        if self.off < 0:
            raise ParameterDegeneracy(
                "coefficient diverges at the collapsed parameter point"
            )
        return self.coeff if self.off == 0 else Fraction(0)


_LEAD_ZERO = _LeadTerm(Fraction(0), None)


class _Pair:
    """An unreduced quotient num / den of two Python integers: a gamma of
    the series, or a value of the rational ring.

    A product of ladder factors built on pairs costs integer multiplies
    only; the ring reduces it once a step, in ratio.  Only the operators
    the series needs exist: pair * pair, int - pair and pair ** k for
    k >= 0.  A step never divides: ratio gets its numerator and denominator
    apart, after the series checks the denominator, so pair / pair is a
    TypeError.  == and bool() raise TypeError too, so a zero test has to
    say what it reads: is_zero, the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num == 0

    def __mul__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.num * other.num, self.den * other.den)

    def __rsub__(self, other: int) -> "_Pair":
        return _Pair(other * self.den - self.num, self.den)

    def __pow__(self, k: int) -> "_Pair":
        return _Pair(self.num ** k, self.den ** k)

    def __eq__(self, other):
        raise TypeError("a pair has no value equality; test is_zero()")

    def __bool__(self):
        raise TypeError("a pair has no truth value; test is_zero()")


def _power_table(x):
    """k -> x^k as an integer _Pair, for any integer k and a nonzero
    rational x; each power is computed once."""
    x = rat(x)
    num, den = x.numerator, x.denominator
    memo = {}

    def power(k: int) -> _Pair:
        pair = memo.get(k)
        if pair is None:
            pair = memo[k] = (
                _Pair(num ** k, den ** k) if k >= 0 else _Pair(den ** -k, num ** -k)
            )
        return pair

    return power


class _Scalars:
    """Shared by both rings: gamma arrives as an integer _Pair and t^p is
    read from one power table."""

    def __init__(self, t):
        self.power = _power_table(t)


class _RationalScalars(_Scalars):
    """Plain evaluation with a numeric t, on unreduced integer pairs: a
    factor 1 - gamma t^p costs integer multiplies only, ratio reduces a
    running product once per step, and each cell of the series is added to
    its coefficient as an integer numerator over the running lcm of the
    coefficient's denominators; finish makes one Fraction per coefficient."""

    zero_is_identical = False
    one = _Pair(1)

    def unit(self, gamma, p):
        return gamma * self.power(p)

    def factor(self, gamma, p):
        return 1 - gamma * self.power(p)

    def dead(self, x) -> bool:
        return x.is_zero()

    def ratio(self, x, num, den):
        """x num / den, reduced; den is not dead."""
        top = x.num * num.num * den.den
        bottom = x.den * num.den * den.num
        g = gcd(top, bottom)
        return _Pair(top // g, bottom // g)

    def accumulate(self, out: dict, exps, x) -> None:
        _add_over_lcm(out.setdefault(exps, [0, 1]), x.num, x.den)

    def finish(self, out: dict) -> dict:
        return {exps: Fraction(*entry) for exps, entry in out.items()}


class _JetScalars(_Scalars):
    """Leading terms of the expansion around t = tv, for points where the
    plain substitution hits 0/0.  A dead value here is zero as a rational
    function of t, not merely zero at the point."""

    zero_is_identical = True
    one = _LeadTerm(Fraction(1), 0)
    zero = _LEAD_ZERO

    def _constant(self, gamma, p) -> Fraction:
        x = gamma * self.power(p)
        return Fraction(x.num, x.den)

    def unit(self, gamma, p):
        return _LeadTerm(self._constant(gamma, p), 0)

    def factor(self, gamma, p):
        # 1 - gamma tv^p (1 + v)^p; where the constant term vanishes the
        # linear one, -gamma tv^p p v, leads unless p = 0
        x = self._constant(gamma, p)
        if x != 1:
            return _LeadTerm(1 - x, 0)
        if p == 0:
            return _LEAD_ZERO
        return _LeadTerm(-x * p, 1)

    def dead(self, x) -> bool:
        return x.is_exact_zero()

    def ratio(self, x, num, den):
        return x * num / den

    def accumulate(self, out: dict, exps, x) -> None:
        out[exps] = out.get(exps, self.zero) + x

    def finish(self, out: dict) -> dict:
        return out

    def finalize(self, x) -> Fraction:
        return x.value()


def _series_terms(w: B2Weight, P: ParamPoint, ring, bound: int) -> dict:
    """Doubled-exponent coefficient dict of the terminating fivefold series.

    All t-dependence is routed through the ring; every other argument is a
    gamma = q^k T^a c1^b c2^c, an integer _Pair read from per-call power
    tables, with the two numeric spectral pieces c1, c2 of s1 = t c1,
    s2 = c2.  Ladder directions stop when a running numerator factor is
    identically zero; indices past the scan bound raise NonTerminating.
    """
    d1, d2 = w.doubled
    qp, Tp = _power_table(P.q), _power_table(P.T)
    c1p = _power_table(P.sqrt_T * P.sqrt_q ** d1)
    c2p = _power_table(P.sqrt_T * P.sqrt_q ** d2)
    q, T = qp(1), Tp(1)
    inv_cc = c1p(-1) * c2p(-1)
    T_cc = T * inv_cc
    c1_c2, c2_c1 = c1p(1) * c2p(-1), c2p(1) * c1p(-1)
    inv_c1c1, inv_c2c2 = c1p(-2), c2p(-2)
    T_c1c1, T_c2c2 = T * inv_c1c1, T * inv_c2c2
    q_T = q * Tp(-1)

    def ladder(gamma, p, m):
        prod = ring.one
        for k in range(m):
            prod = prod * ring.factor(gamma * qp(k), p)
        return prod

    def stop(num, den, what) -> bool:
        """Whether this ladder direction just terminated.

        In the series ring a dead value is zero identically, which only
        happens through the pinned truncation factors, so it wins over a
        dead denominator; numerically a simultaneous 0/0 is a degeneracy.
        """
        if ring.zero_is_identical and ring.dead(num):
            return True
        if ring.dead(den):
            raise ParameterDegeneracy(f"vanishing {what} in the explicit series")
        return ring.dead(num)

    def direction(unit, factors, label):
        """Yield (k, term k) along one running-ratio direction: term 0 is
        one, and term k + 1 is term k * unit * num / den with (num, den) =
        factors(k), until stop reads num as dead."""
        run = ring.one
        for k in range(bound + 1):
            yield k, run
            num, den = factors(k)
            if stop(num, den, "ladder denominator"):
                return
            run = ring.ratio(run * unit, num, den)
        raise NonTerminating(f"{label} index passed {bound} without a vanishing factor")

    ladder_memo: dict = {}

    def two_factor_sum(step: int, m: int, const, label: str):
        """Cells (doubled exponent offset, weight) of the sum over one ladder
        direction stepping (-2, step), with gamma = q^m const: cell k + 1 is
        cell k times (q/t) (1 - q^k t)(1 - gamma q^k) /
        ((1 - q^(k+1))(1 - gamma q^(k+1) / t)).  The const is fixed by the
        step, so the cells are memoized per (step, m)."""
        key = (step, m)
        if key not in ladder_memo:

            def factors(k):
                return (
                    ring.factor(qp(k), 1) * ring.factor(qp(m + k) * const, 0),
                    ring.factor(qp(1 + k), 0) * ring.factor(qp(m + 1 + k) * const, -1),
                )

            ladder_memo[key] = [
                ((-2 * k, step * k), run)
                for k, run in direction(ring.unit(q, -1), factors, label)
            ]
        return ladder_memo[key]

    out: dict = {}
    for n in range(bound + 1):
        # the two 2n-ladders sharing numerator arguments are folded into
        # denominator tails of length n
        head_num = (
            ladder(q, -1, n)
            * ladder(T, -1, n)
            * ladder(T, 0, n)
            * ladder(q * inv_cc, -2, n)
            * ladder(T_c1c1, -2, 2 * n)
            * ladder(T_c2c2, 0, 2 * n)
        )
        head_den = (
            ladder(q, 0, n)
            * ladder(q * inv_c1c1, -2, n)
            * ladder(q * inv_c2c2, 0, n)
            * ladder(q * c1_c2, 1, n)
            * ladder(q * c2_c1, -1, n)
            * ladder(q * inv_cc, -1, n)
            * ladder(qp(n) * T_cc, -1, n)
            * ladder(qp(n) * T_cc, -2, n)
        )
        if stop(head_num, head_den, "series prefactor denominator"):
            return ring.finish(out)
        hterm = ring.ratio(ring.unit(q_T ** (2 * n), n), head_num, head_den)

        def second(k):
            return (
                ring.factor(qp(n + k) * T, 0)
                * ring.factor(qp(2 * n + k) * T_c2c2, 0)
                * ring.factor(qp(n + k) * T_cc, -1)
                * ring.factor(qp(1 + k) * c1_c2, 1),
                ring.factor(qp(1 + k), 0)
                * ring.factor(qp(n + 1 + k) * inv_c2c2, 0)
                * ring.factor(qp(2 * n + k) * T_cc, -1)
                * ring.factor(qp(n + 1 + k) * c1_c2, 1),
            )

        for t2, b2run in direction(ring.unit(q_T, 0), second, "second direction"):

            def third(k):
                return (
                    ring.factor(qp(n + k) * T, 0)
                    * ring.factor(qp(2 * n + k) * T_c1c1, -2)
                    * ring.factor(qp(k) * c2_c1, 0)
                    * ring.factor(qp(1 - t2 + k) * c2_c1, -2)
                    * ring.factor(qp(n + k) * T_cc, -1)
                    * ring.factor(qp(2 * n + t2 + 1 + k) * T_cc, -2),
                    ring.factor(qp(1 + k), 0)
                    * ring.factor(qp(n + 1 + k) * inv_c1c1, -2)
                    * ring.factor(qp(n + 1 + k) * c2_c1, -1)
                    * ring.factor(qp(k - t2) * c2_c1, -1)
                    * ring.factor(qp(2 * n + 1 + k) * T_cc, -2)
                    * ring.factor(qp(2 * n + t2 + k) * T_cc, -1),
                )

            for t3, b3run in direction(ring.unit(q_T, 0), third, "third direction"):
                cell = hterm * b2run * b3run
                base1 = d1 - 2 * n - 2 * t3
                base2 = d2 - 2 * n - 2 * t2
                # the x2/x1 direction depends on theta3 - theta2 only, the
                # 1/(x1 x2) direction on 2n + theta2 + theta3
                skew = two_factor_sum(2, t3 - t2, c2_c1, "skew direction")
                diagonal = two_factor_sum(-2, 2 * n + t2 + t3, T_cc, "diagonal direction")
                for (e1, e2), w1 in skew:
                    left = cell * w1
                    for (g1, g2), w4 in diagonal:
                        ring.accumulate(out, (base1 + e1 + g1, base2 + e2 + g2), left * w4)
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
    ring = _RationalScalars(P.t)
    terms = _series_terms(w, P, ring, _default_bound(w))
    return LaurentPoly(2, {e: c for e, c in terms.items() if c}, 2)


def b2_character_series(w: B2Weight, P: ParamPoint) -> LaurentPoly:
    """The explicit series at q = t = T, where the plain substitution is 0/0
    and every coefficient is taken as an exact one-variable limit."""
    P.require("sqrt_t", "sqrt_T")
    if not (P.sqrt_q == P.sqrt_t == P.sqrt_T):
        raise ParameterDegeneracy("character collapse needs q = t = T")
    ring = _JetScalars(P.q)
    terms = _series_terms(w, P, ring, _default_bound(w))
    out = {}
    for exps, jet in terms.items():
        value = ring.finalize(jet)
        if value:
            out[exps] = value
    return LaurentPoly(2, out, 2)


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


def b2_row_threefold(r: int, P: ParamPoint) -> LaurentPoly:
    """Single-row polynomial as the collapsed threefold sum."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t", "sqrt_T")
    q, t, T = P.q, P.t, P.T

    # each sum's terminating (q^-m; q) ladder stays a bare qpoch factor, so
    # this module's qpoch lookup site, which perfbench/spans.py traces,
    # still sees work; the other ladders form one quotient
    def skew_sum(t3: int, e1: int, e2: int) -> LaurentPoly:
        # shared ladder for the x2/x1 and 1/(x1 x2) directions
        total = LaurentPoly.zero(2, 2)
        for k in range(r - t3 + 1):
            wgt = (
                qpoch(q ** (t3 - r), q, k)
                * qpoch_ratio((t,), (q, q ** (t3 - r + 1) / t), q, k, "the skew ladder")
                * (q / t) ** k
            )
            if wgt:
                total = total + _mono(e1 * k, e2 * k, wgt)
        return total

    total = LaurentPoly.zero(2, 2)
    for t3 in range(r + 1):
        w3 = qpoch(q ** -r, q, t3) * qpoch_ratio(
            (T, q ** (-2 * r) / t ** 2, q ** (-r + 1) / t ** 2),
            (q, q ** (-2 * r + 1) / (t * t * T), q ** (-r + 1) / t, q ** -r / t),
            q, t3, "the threefold ladder",
        ) * (q / T) ** t3
        if not w3:
            continue
        block = skew_sum(t3, -2, 2) * skew_sum(t3, -2, -2)
        total = total + block * _mono(-2 * t3, 0, w3)
    return total * _mono(2 * r, 0)


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
