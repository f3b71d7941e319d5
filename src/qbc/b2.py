"""Rank-two apparatus on the half-integer weight lattice: the three-parameter
difference operator, its triangular eigenpolynomials, the explicit fivefold
series conjectured to equal them, and the collapsed forms (single-row
threefold sum, unit-coefficient character polytope).

Weights live on the doubled lattice so half-integer entries stay exact.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    SKIPPED,
    ClearedShiftOperator,
    LaurentPoly,
    ParamPoint,
    ShiftTerm,
    decompose_symmetric,
    format_rational,
    monomial_symmetric,
    rat,
    solve_triangular_eigenproblem,
)
from .errors import DimensionMismatch, NonTerminating, ParameterDegeneracy
from .qseries import qpoch, qpoch_ratio


@dataclass(frozen=True)
class B2Weight:
    """Dominant weight r1*w1 + r2*w2, i.e. (l1, l2) = (r1 + r2/2, r2/2)."""

    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("fundamental-weight multiplicities must be nonnegative")

    @classmethod
    def from_epsilon(cls, lam1, lam2) -> "B2Weight":
        lam1, lam2 = rat(lam1), rat(lam2)
        if (2 * lam1).denominator != 1 or (2 * lam2).denominator != 1:
            raise ValueError("coordinates must be half-integers")
        if (lam1 - lam2).denominator != 1:
            raise ValueError("coordinate difference must be an integer")
        if not lam1 >= lam2 >= 0:
            raise ValueError("weight is not dominant")
        return cls(int(lam1 - lam2), int(2 * lam2))

    @property
    def doubled(self):
        return (2 * self.r1 + self.r2, self.r2)

    @property
    def lam1(self) -> Fraction:
        return Fraction(2 * self.r1 + self.r2, 2)

    @property
    def lam2(self) -> Fraction:
        return Fraction(self.r2, 2)

    @property
    def total(self) -> int:
        return self.r1 + self.r2

    def s_values(self, P: ParamPoint):
        """The spectral parameters (s1, s2) the weight pins down."""
        P.require("sqrt_t", "sqrt_T")
        d1, d2 = self.doubled
        return (
            P.t * P.sqrt_T * P.sqrt_q ** d1,
            P.sqrt_T * P.sqrt_q ** d2,
        )


def _mono(e1: int, e2: int, coeff=1) -> LaurentPoly:
    return LaurentPoly.monomial((e1, e2), coeff, 2)


def _one_minus(u, e1: int, e2: int) -> LaurentPoly:
    return LaurentPoly(2, {(0, 0): Fraction(1), (e1, e2): -rat(u)}, 2)


@lru_cache(maxsize=None)
def _b2_operator(P: ParamPoint) -> ClearedShiftOperator:
    """Generated by the shift x_1 -> q x_1; the signed permutations give
    the other three directions.

    The generator's factors sit at the two long roots (2, -2) and (2, 2)
    and at the short root (2, 0) of the doubled lattice; swapping the long
    roots is the inversion of x_2, so the coefficient is invariant under
    it."""
    t, T = P.t, P.T
    roots = ((2, -2), (2, 2), (2, 0))
    generator = ShiftTerm(
        numer_factors=tuple(_one_minus(u, *e) for u, e in zip((t, t, T), roots)),
        denom_factors=tuple(_one_minus(1, *e) for e in roots),
        var=0,
        step=1,
        subtract_identity=False,
    )
    return ClearedShiftOperator(P, 2, generator, scale=2)


def b2_apply(f: LaurentPoly, P: ParamPoint) -> LaurentPoly:
    """Act with the rank-two difference operator on the doubled lattice.

    f must be invariant under permutations and inversions of the two
    variables; any other input raises ValueError."""
    P.require("sqrt_t", "sqrt_T")
    if f.num_vars != 2 or f.scale != 2:
        raise DimensionMismatch("operator acts on two variables at lattice scale 2")
    return _b2_operator(P).apply(f)


def b2_eigenvalue(w: B2Weight, P: ParamPoint) -> Fraction:
    """t^2 T q^l1 + t T q^l2 + t q^-l2 + q^-l1 on the doubled exponents."""
    P.require("sqrt_t", "sqrt_T")
    t, T, sq = P.t, P.T, P.sqrt_q
    d1, d2 = w.doubled
    return t * t * T * sq ** d1 + t * T * sq ** d2 + t * sq ** -d2 + sq ** -d1


def _dominant_below(w: B2Weight):
    """Doubled exponent pairs of dominant weights <= w in the root order.

    mu <= lam iff lam - mu is a nonnegative integer combination of the two
    simple roots, i.e. lam1 - mu1 >= 0 and |lam| - |mu| >= 0 within the same
    half-integer coset.  Sorted by (total, first) descending, a linear
    extension of the order with w first.
    """
    D1, D2 = w.doubled
    out = []
    for d1 in range(D1 % 2, D1 + 1, 2):
        for d2 in range(d1 % 2, d1 + 1, 2):
            if d1 + d2 <= D1 + D2:
                out.append((d1, d2))
    out.sort(key=lambda d: (d[0] + d[1], d[0]), reverse=True)
    return out


def b2_oracle(w: B2Weight, P: ParamPoint) -> LaurentPoly:
    """Eigenpolynomial through the triangular solve, independent of any
    explicit summation formula."""
    P.require("sqrt_t", "sqrt_T")
    basis = _dominant_below(w)

    def column(key):
        image = b2_apply(monomial_symmetric(key, 2, 2), P)
        return decompose_symmetric(image)

    coeffs = solve_triangular_eigenproblem(basis, column, basis[0])
    total = LaurentPoly.zero(2, 2)
    for key, c in coeffs.items():
        total = total + monomial_symmetric(key, 2, 2) * c
    return total


# -- the explicit series ---------------------------------------------------------
#
# Every Pochhammer argument is gamma * t^p with gamma free of t, so the same
# summation code runs over two scalar rings: exact rationals at a generic
# point, and leading terms of Laurent expansions in v (t = tv (1 + v)) at
# q = t = T, where the factors pick up zeros and poles that only cancel in the
# limit.  The second ring tracks one coefficient per value and nothing past
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


class _Scalars:
    """Shared by both rings: t^p read from one power table."""

    def __init__(self, t):
        self.t = rat(t)
        self._powers = {}

    def power(self, p: int) -> Fraction:
        value = self._powers.get(p)
        if value is None:
            value = self._powers[p] = self.t ** p
        return value


class _RationalScalars(_Scalars):
    """Plain evaluation with a numeric t."""

    zero_is_identical = False
    one = Fraction(1)
    zero = Fraction(0)

    def unit(self, gamma, p):
        return gamma * self.power(p)

    def factor(self, gamma, p):
        return 1 - gamma * self.power(p)

    def dead(self, x) -> bool:
        return x == 0

    def finalize(self, x) -> Fraction:
        return x


class _JetScalars(_Scalars):
    """Leading terms of the expansion around t = tv, for points where the
    plain substitution hits 0/0.  A dead value here is zero as a rational
    function of t, not merely zero at the point."""

    zero_is_identical = True
    one = _LeadTerm(Fraction(1), 0)
    zero = _LEAD_ZERO

    def unit(self, gamma, p):
        return _LeadTerm(gamma * self.power(p), 0)

    def factor(self, gamma, p):
        # 1 - gamma tv^p (1 + v)^p; where the constant term vanishes the
        # linear one, -gamma tv^p p v, leads unless p = 0
        x = gamma * self.power(p)
        if x != 1:
            return _LeadTerm(1 - x, 0)
        if p == 0:
            return _LEAD_ZERO
        return _LeadTerm(-x * p, 1)

    def dead(self, x) -> bool:
        return x.is_exact_zero()

    def finalize(self, x) -> Fraction:
        return x.value()


def _series_terms(w: B2Weight, P: ParamPoint, ring, bound: int) -> dict:
    """Doubled-exponent coefficient dict of the terminating fivefold series.

    All t-dependence is routed through the ring; gamma constants come from
    q, T and the two numeric spectral pieces c1, c2 with s1 = t c1, s2 = c2.
    Ladder directions stop when a running numerator factor is identically
    zero; indices past the scan bound raise NonTerminating.
    """
    q, T = P.q, P.T
    d1, d2 = w.doubled
    c1 = P.sqrt_T * P.sqrt_q ** d1
    c2 = P.sqrt_T * P.sqrt_q ** d2
    cc = c1 * c2

    def ladder(gamma, p, m):
        prod = ring.one
        for k in range(m):
            prod = prod * ring.factor(gamma * q ** k, p)
        return prod

    def guard(x, what):
        if ring.dead(x):
            raise ParameterDegeneracy(f"vanishing {what} in the explicit series")
        return x

    def stop(num, den, what) -> bool:
        """Whether this ladder direction just terminated.

        In the series ring a dead value is zero identically, which only
        happens through the pinned truncation factors, so it wins over a
        dead denominator; numerically a simultaneous 0/0 is a degeneracy.
        """
        if ring.zero_is_identical and ring.dead(num):
            return True
        guard(den, what)
        return ring.dead(num)

    def overran(label):
        return NonTerminating(
            f"{label} index passed {bound} without a vanishing factor"
        )

    ladder_memo: dict = {}

    def two_factor_sum(step: int, gamma, label: str):
        """Cells (doubled exponent offset, weight) of the sum over one ladder
        direction stepping (-2, step): cell k + 1 is cell k times
        (q/t) (1 - q^k t)(1 - gamma q^k) / ((1 - q^(k+1))(1 - gamma q^(k+1) / t)).
        Memoized per (step, gamma)."""
        key = (step, gamma)
        if key not in ladder_memo:
            cells = []
            run = ring.one
            k = 0
            while True:
                cells.append(((-2 * k, step * k), run))
                if k > bound:
                    raise overran(label)
                num = ring.factor(q ** k, 1) * ring.factor(q ** k * gamma, 0)
                den = ring.factor(q ** (1 + k), 0) * ring.factor(q ** (1 + k) * gamma, -1)
                if stop(num, den, "ladder denominator"):
                    break
                run = run * ring.unit(q, -1) * num / den
                k += 1
            ladder_memo[key] = cells
        return ladder_memo[key]

    out: dict = {}
    n = 0
    while True:
        if n > bound:
            raise overran("principal direction")
        # the two 2n-ladders sharing numerator arguments are folded into
        # denominator tails of length n
        head_num = (
            ladder(q, -1, n)
            * ladder(T, -1, n)
            * ladder(T, 0, n)
            * ladder(q / cc, -2, n)
            * ladder(T / c1 ** 2, -2, 2 * n)
            * ladder(T / c2 ** 2, 0, 2 * n)
        )
        head_den = (
            ladder(q, 0, n)
            * ladder(q / c1 ** 2, -2, n)
            * ladder(q / c2 ** 2, 0, n)
            * ladder(q * c1 / c2, 1, n)
            * ladder(q * c2 / c1, -1, n)
            * ladder(q / cc, -1, n)
            * ladder(q ** n * T / cc, -1, n)
            * ladder(q ** n * T / cc, -2, n)
        )
        if stop(head_num, head_den, "series prefactor denominator"):
            break
        hterm = ring.unit((q * q / (T * T)) ** n, n) * head_num / head_den

        b2run = ring.one
        t2 = 0
        while True:
            if t2 > bound:
                raise overran("second direction")
            b3run = ring.one
            t3 = 0
            while True:
                if t3 > bound:
                    raise overran("third direction")
                cell = hterm * b2run * b3run
                base1 = d1 - 2 * n - 2 * t3
                base2 = d2 - 2 * n - 2 * t2
                # the x2/x1 direction depends on theta3 - theta2 only, the
                # 1/(x1 x2) direction on 2n + theta2 + theta3
                skew = two_factor_sum(2, q ** (t3 - t2) * c2 / c1, "skew direction")
                diagonal = two_factor_sum(
                    -2, q ** (2 * n + t2 + t3) * T / cc, "diagonal direction"
                )
                for (e1, e2), w1 in skew:
                    left = cell * w1
                    for (g1, g2), w4 in diagonal:
                        exps = (base1 + e1 + g1, base2 + e2 + g2)
                        out[exps] = out.get(exps, ring.zero) + left * w4
                k = t3
                num = (
                    ring.factor(q ** (n + k) * T, 0)
                    * ring.factor(q ** (2 * n + k) * T / c1 ** 2, -2)
                    * ring.factor(q ** k * c2 / c1, 0)
                    * ring.factor(q ** (1 - t2 + k) * c2 / c1, -2)
                    * ring.factor(q ** (n + k) * T / cc, -1)
                    * ring.factor(q ** (2 * n + t2 + 1 + k) * T / cc, -2)
                )
                den = (
                    ring.factor(q ** (1 + k), 0)
                    * ring.factor(q ** (n + 1 + k) / c1 ** 2, -2)
                    * ring.factor(q ** (n + 1 + k) * c2 / c1, -1)
                    * ring.factor(q ** (k - t2) * c2 / c1, -1)
                    * ring.factor(q ** (2 * n + 1 + k) * T / cc, -2)
                    * ring.factor(q ** (2 * n + t2 + k) * T / cc, -1)
                )
                if stop(num, den, "ladder denominator"):
                    break
                b3run = b3run * ring.unit(q / T, 0) * num / den
                t3 += 1
            k = t2
            num = (
                ring.factor(q ** (n + k) * T, 0)
                * ring.factor(q ** (2 * n + k) * T / c2 ** 2, 0)
                * ring.factor(q ** (n + k) * T / cc, -1)
                * ring.factor(q ** (1 + k) * c1 / c2, 1)
            )
            den = (
                ring.factor(q ** (1 + k), 0)
                * ring.factor(q ** (n + 1 + k) / c2 ** 2, 0)
                * ring.factor(q ** (2 * n + k) * T / cc, -1)
                * ring.factor(q ** (n + 1 + k) * c1 / c2, 1)
            )
            if stop(num, den, "ladder denominator"):
                break
            b2run = b2run * ring.unit(q / T, 0) * num / den
            t2 += 1
        n += 1
    return out


def _default_bound(w: B2Weight) -> int:
    return 4 * w.total + 8


def f_b2_poly(w: B2Weight, P: ParamPoint, bound: int = None) -> LaurentPoly:
    """The explicit series at the weight's own spectral point, fully expanded."""
    P.require("sqrt_t", "sqrt_T")
    if bound is None:
        bound = _default_bound(w)
    ring = _RationalScalars(P.t)
    terms = _series_terms(w, P, ring, bound)
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
    """Unit-coefficient monomial sum over the character polytope."""
    if r1 < 0 or r2 < 0:
        raise ValueError("fundamental-weight multiplicities must be nonnegative")
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
    last two checks are SKIPPED when the series did not terminate.
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

    def residual_mismatch(residual):
        if residual.is_zero():
            return None
        exps, value = residual.leading()
        return {
            "coefficient": f"x^{list(exps)}/2",
            "expected": "0",
            "got": format_rational(value),
        }

    def eigenpolynomial():
        if not series:
            return SKIPPED
        return residual_mismatch(series[0] - b2_oracle(w, P))

    def difference_equation():
        if not series:
            return SKIPPED
        f = series[0]
        return residual_mismatch(b2_apply(f, P) - f * b2_eigenvalue(w, P))

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
