"""q-Pochhammer symbols and terminating basic hypergeometric sums.

All evaluation is exact over Fraction.  A basic hypergeometric sum must
terminate: the caller passes an N for which some upper parameter equals
base^-N, and the sum stops at the first cutoff at or below N.  Cutoffs are
found by at most N + 1 exact multiplications per upper parameter, never by
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import rat
from .errors import DivergentSpec, PoleInLower


def qpoch(a, q, n: int) -> Fraction:
    """(a; q)_n = product of (1 - a q^i) for 0 <= i < n.

    Negative n uses the standard inversion
    (a; q)_{-n} = 1 / (a q^{-n}; q)_n, which requires every factor nonzero.
    """
    a, q = rat(a), rat(q)
    if n >= 0:
        out = Fraction(1)
        p = a
        for _ in range(n):
            out *= 1 - p
            p *= q
        return out
    inv = qpoch(a * q ** n, q, -n)
    if inv == 0:
        raise ZeroDivisionError(f"(a;q)_{n} hits a vanishing factor")
    return 1 / inv


def qpoch_multi(params: Sequence, q, n: int) -> Fraction:
    """Product of (a; q)_n over a list of arguments."""
    out = Fraction(1)
    for a in params:
        out *= qpoch(a, q, n)
    return out


def power_of_base(u, q, cap: int) -> Optional[int]:
    """Return N in 0..cap with u = q^-N exactly, or None."""
    u, q = rat(u), rat(q)
    p = u
    for n in range(cap + 1):
        if p == 1:
            return n
        p *= q
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
    total = Fraction(0)
    term = Fraction(1)
    qm = Fraction(1)  # q^m
    for m in range(length):
        total += term
        if m + 1 == length:
            break
        ratio = spec.argument
        for u in spec.uppers:
            ratio *= 1 - u * qm
        denom = 1 - q * qm
        for v in spec.lowers:
            denom *= 1 - v * qm
        if denom == 0:
            raise PoleInLower(
                f"lower parameter ladder vanished at term {m + 1} of {spec}"
            )
        term *= ratio / denom
        if term == 0:
            break  # a numerator factor hit zero; every later term is zero too
        qm *= q
    return total


def qbinom_series(aparam, q, N: int) -> list:
    """Coefficients c_0..c_N of (a z; q)_inf / (z; q)_inf = sum c_n z^n.

    The q-binomial theorem gives c_n = (a; q)_n / (q; q)_n; coefficients are
    built by running ratios so each step is one multiply and one divide.
    """
    aparam, q = rat(aparam), rat(q)
    out = [Fraction(1)]
    c = Fraction(1)
    qn = Fraction(1)
    for n in range(N):
        denom = 1 - q * qn
        if denom == 0:
            raise PoleInLower(f"(q;q)_{n + 1} vanished; base {q} is a root of unity")
        c *= (1 - aparam * qn) / denom
        out.append(c)
        qn *= q
    return out
