"""Reference forms of the B2 formula side, kept as the oracles the shipped
code is checked against, values, error classes and messages alike.

- The object rings the fivefold series ran on before both rings carried
  bare integers: the integer pair _Pair, the leading term _LeadTerm, and
  the rings _RationalScalars and _JetScalars built on them, one object per
  factor, product and cell.
- The fivefold series as it was written before one stepper walked its
  running-ratio directions: each of the theta2 loop, the theta3 loop and
  the two two-factor sums is its own hand-written loop, with its own bound
  check, step, stop test and advance.  It runs on any ring of the object
  protocol: the rings here and the Fraction and truncated-series rings of
  test_b2.
- The threefold row as a per-term sum: each weight a product of
  Pochhammer quotients, each skew sum built as its own polynomial, twice
  per t3, and the block multiplied out as polynomials.
"""

from fractions import Fraction
from math import gcd

from qbc.algebra import LaurentPoly, ParamPoint, rat
from qbc.b2 import B2Weight
from qbc.errors import NonTerminating, ParameterDegeneracy
from qbc.qseries import _add_over_lcm, qpoch, qpoch_ratio
from conftest import monomial, zero_poly


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

    def two_factor_sum(step: int, m: int, const, label: str):
        """Cells (doubled exponent offset, weight) of the sum over one ladder
        direction stepping (-2, step), with gamma = q^m const: cell k + 1 is
        cell k times (q/t) (1 - q^k t)(1 - gamma q^k) /
        ((1 - q^(k+1))(1 - gamma q^(k+1) / t)).  The const is fixed by the
        step, so the cells are memoized per (step, m)."""
        key = (step, m)
        if key not in ladder_memo:
            cells = []
            run = ring.one
            k = 0
            while True:
                cells.append(((-2 * k, step * k), run))
                if k > bound:
                    raise overran(label)
                num = ring.factor(qp(k), 1) * ring.factor(qp(m + k) * const, 0)
                den = ring.factor(qp(1 + k), 0) * ring.factor(qp(m + 1 + k) * const, -1)
                if stop(num, den, "ladder denominator"):
                    break
                run = ring.ratio(run * ring.unit(q, -1), num, den)
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
            break
        hterm = ring.ratio(ring.unit(q_T ** (2 * n), n), head_num, head_den)

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
                skew = two_factor_sum(2, t3 - t2, c2_c1, "skew direction")
                diagonal = two_factor_sum(-2, 2 * n + t2 + t3, T_cc, "diagonal direction")
                for (e1, e2), w1 in skew:
                    left = cell * w1
                    for (g1, g2), w4 in diagonal:
                        ring.accumulate(out, (base1 + e1 + g1, base2 + e2 + g2), left * w4)
                k = t3
                num = (
                    ring.factor(qp(n + k) * T, 0)
                    * ring.factor(qp(2 * n + k) * T_c1c1, -2)
                    * ring.factor(qp(k) * c2_c1, 0)
                    * ring.factor(qp(1 - t2 + k) * c2_c1, -2)
                    * ring.factor(qp(n + k) * T_cc, -1)
                    * ring.factor(qp(2 * n + t2 + 1 + k) * T_cc, -2)
                )
                den = (
                    ring.factor(qp(1 + k), 0)
                    * ring.factor(qp(n + 1 + k) * inv_c1c1, -2)
                    * ring.factor(qp(n + 1 + k) * c2_c1, -1)
                    * ring.factor(qp(k - t2) * c2_c1, -1)
                    * ring.factor(qp(2 * n + 1 + k) * T_cc, -2)
                    * ring.factor(qp(2 * n + t2 + k) * T_cc, -1)
                )
                if stop(num, den, "ladder denominator"):
                    break
                b3run = ring.ratio(b3run * ring.unit(q_T, 0), num, den)
                t3 += 1
            k = t2
            num = (
                ring.factor(qp(n + k) * T, 0)
                * ring.factor(qp(2 * n + k) * T_c2c2, 0)
                * ring.factor(qp(n + k) * T_cc, -1)
                * ring.factor(qp(1 + k) * c1_c2, 1)
            )
            den = (
                ring.factor(qp(1 + k), 0)
                * ring.factor(qp(n + 1 + k) * inv_c2c2, 0)
                * ring.factor(qp(2 * n + k) * T_cc, -1)
                * ring.factor(qp(n + 1 + k) * c1_c2, 1)
            )
            if stop(num, den, "ladder denominator"):
                break
            b2run = ring.ratio(b2run * ring.unit(q_T, 0), num, den)
            t2 += 1
        n += 1
    return ring.finish(out)


def _mono(e1: int, e2: int, coeff=1) -> LaurentPoly:
    return monomial((e1, e2), coeff, 2)


def b2_row_threefold(r: int, P: ParamPoint) -> LaurentPoly:
    """Single-row polynomial as the collapsed threefold sum."""
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t", "sqrt_T")
    q, t, T = P.q, P.t, P.T

    # each sum's terminating (q^-m; q) ladder is a bare qpoch factor, and
    # the other ladders form one quotient
    def skew_sum(t3: int, e1: int, e2: int) -> LaurentPoly:
        # the same weights for the x2/x1 and 1/(x1 x2) directions, built
        # once for each
        total = zero_poly(2, 2)
        for k in range(r - t3 + 1):
            wgt = (
                qpoch(q ** (t3 - r), q, k)
                * qpoch_ratio((t,), (q, q ** (t3 - r + 1) / t), q, k, "the skew ladder")
                * (q / t) ** k
            )
            if wgt:
                total = total + _mono(e1 * k, e2 * k, wgt)
        return total

    total = zero_poly(2, 2)
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
