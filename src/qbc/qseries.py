"""q-Pochhammer symbols and terminating basic hypergeometric sums.

All evaluation is exact.  A ladder multiplies integer numerators and
denominators and reduces once, into the Fraction it returns or the next
term of its sum.  A basic hypergeometric sum must terminate: the caller
passes an N for which some upper parameter equals base^-N, and the sum
stops at the first cutoff at or below N.  Cutoffs are found by at most
N + 1 exact multiplications per upper parameter, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import rat
from .errors import DivergentSpec, ParameterDegeneracy, PoleInLower


def _ladder(params: Sequence, q, n: int):
    """Integers (num, den) with num / den the product of (u; q)_n over
    params; num is 0 exactly when some factor 1 - u q^i is.  A negative n
    raises ValueError."""
    if n < 0:
        raise ValueError(f"Pochhammer length {n} is negative")
    num = den = 1
    for u in params:
        u, q = rat(u), rat(q)
        un, ud = u.numerator, u.denominator
        qn, qd = q.numerator, q.denominator
        for _ in range(n):
            num *= ud - un  # 1 - u q^i over the denominator of u q^i
            un *= qn
            ud *= qd
        den *= u.denominator ** n * qd ** (n * (n - 1) // 2)
    return num, den


def qpoch(a, q, n: int) -> Fraction:
    """(a; q)_n = product of (1 - a q^i) for 0 <= i < n, n >= 0."""
    return Fraction(*_ladder((a,), q, n))


def qpoch_multi(params: Sequence, q, n: int) -> Fraction:
    """Product of (a; q)_n over a list of arguments, n >= 0."""
    return Fraction(*_ladder(params, q, n))


def qpoch_ratio(uppers: Sequence, lowers: Sequence, q, n: int, what: str) -> Fraction:
    """Product of (u; q)_n over uppers divided by that of (v; q)_n over
    lowers, n >= 0; a vanishing lower product raises ParameterDegeneracy
    naming what, so a zero upper ladder gives 0 only at a point with no
    pole."""
    dnum, dden = _ladder(lowers, q, n)
    if dnum == 0:
        raise ParameterDegeneracy(f"vanishing lower Pochhammer in {what}")
    unum, uden = _ladder(uppers, q, n)
    return Fraction(unum * dden, uden * dnum)


def power_of_base(u, q, cap: int) -> Optional[int]:
    """Return N in 0..cap with u = q^-N exactly, or None."""
    u, q = rat(u), rat(q)
    pn, pd = u.numerator, u.denominator  # u q^n = pn / pd, pd > 0
    qn, qd = q.numerator, q.denominator
    for n in range(cap + 1):
        if pn == pd:
            return n
        pn *= qn
        pd *= qd
    return None


@dataclass(frozen=True)
class PhiSpec:
    """Parameter block of an r+1 phi r style series.

    uppers and lowers are the numerator and denominator parameter lists, base
    is the q of the Pochhammer ladder and argument the power-series variable
    value.  The (q; q)_m factorial factor is implicit, as usual.
    """

    uppers: tuple
    lowers: tuple
    base: Fraction
    argument: Fraction

    def __post_init__(self):
        object.__setattr__(self, "uppers", tuple(rat(u) for u in self.uppers))
        object.__setattr__(self, "lowers", tuple(rat(v) for v in self.lowers))
        object.__setattr__(self, "base", rat(self.base))
        object.__setattr__(self, "argument", rat(self.argument))


def phi_sum(spec: PhiSpec, N: int) -> Fraction:
    """Evaluate a terminating basic hypergeometric sum exactly.

    Some upper parameter must equal base^-N.  The sum runs through the
    smallest M <= N for which an upper parameter equals base^-M, so M + 1
    terms are added.  A lower parameter whose Pochhammer vanishes inside
    the summed range raises PoleInLower; a spec with no such cutoff raises
    DivergentSpec.
    """
    q = spec.base
    cutoffs = [power_of_base(u, q, N) for u in spec.uppers]
    cutoffs = [n for n in cutoffs if n is not None]
    if not cutoffs:
        raise DivergentSpec(f"no upper parameter in {spec.uppers} is a q^-M with M <= {N}")
    length = min(cutoffs) + 1
    qn, qd = q.numerator, q.denominator
    zn, zd = spec.argument.numerator, spec.argument.denominator
    uppers = [(u.numerator, u.denominator) for u in spec.uppers]
    lowers = [(qn, qd)] + [(v.numerator, v.denominator) for v in spec.lowers]
    total = Fraction(0)
    term = Fraction(1)
    pn = pd = 1  # q^m = pn / pd
    for m in range(length):
        total += term
        if m + 1 == length:
            break
        # the term ratio z prod(1 - u q^m) / ((1 - q^(m+1)) prod(1 - v q^m))
        # as num / den, with the lower factors' numerators apart in low
        num, den, low = zn, zd, 1
        for un, ud in uppers:
            num *= ud * pd - un * pn
            den *= ud * pd
        for vn, vd in lowers:
            low *= vd * pd - vn * pn
            num *= vd * pd
        if low == 0:
            raise PoleInLower(
                f"lower parameter ladder vanished at term {m + 1} of {spec}"
            )
        term = Fraction(term.numerator * num, term.denominator * den * low)
        if term == 0:
            break  # a numerator factor hit zero; every later term is zero too
        pn *= qn
        pd *= qd
    return total


def qbinom_series(aparam, q, N: int) -> list:
    """Coefficients c_0..c_N of (a z; q)_inf / (z; q)_inf = sum c_n z^n.

    The q-binomial theorem gives c_n = (a; q)_n / (q; q)_n; coefficients are
    built by running ratios, one integer quotient and one reduction a step.
    """
    aparam, q = rat(aparam), rat(q)
    an, ad = aparam.numerator, aparam.denominator
    qn, qd = q.numerator, q.denominator
    out = [Fraction(1)]
    c = Fraction(1)
    pn = pd = 1  # q^n = pn / pd
    for n in range(N):
        # (1 - a q^n) / (1 - q^(n+1)) = (ad pd - an pn) qd / (ad (qd pd - qn pn))
        low = qd * pd - qn * pn
        if low == 0:
            raise PoleInLower(f"(q;q)_{n + 1} vanished; base {q} is a root of unity")
        c = Fraction(c.numerator * (ad * pd - an * pn) * qd, c.denominator * ad * low)
        out.append(c)
        pn *= qn
        pd *= qd
    return out
