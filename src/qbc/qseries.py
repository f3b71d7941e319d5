"""q-Pochhammer symbols and terminating basic hypergeometric sums.

All evaluation is exact, in integers reduced once per result.  Ladders
multiply integer numerators and denominators; a term ratio is a compiled
step of records 1 - C q^(x i + y j) on a table of powers of q (_Powers,
_compiled, _factors, which the askey_wilson walks share), and every
terminating row, phi_sum's and psi_series', is summed by _terminating_row.
A basic hypergeometric sum must terminate: the caller passes an N for which
some upper parameter equals base^-N, and the sum stops at the first cutoff
at or below N, found by exact multiplications, never by floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

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


class _Powers(dict):
    """The integer pairs (num, den) of q^e by exponent e, made on first use;
    q itself is kept as the attribute q."""

    def __init__(self, q: Fraction):
        super().__init__()
        self.q = q
        self.qn, self.qd = q.numerator, q.denominator

    def __missing__(self, e: int):
        qn, qd = self.qn, self.qd
        pair = self[e] = (qn ** e, qd ** e) if e >= 0 else (qd ** -e, qn ** -e)
        return pair


def _compiled(step, powers: _Powers, shift: int = 0):
    """The integer form (num, den, numer, denom) of a step (weight, numer,
    denom), each record (C, x, y) in numer and denom made (cn, cd, x, y).
    A record (C, x, y, p) has a C that carries s^p; the step is taken at
    s -> q^shift s, which multiplies that C by q^(p shift)."""
    weight, numer, denom = step

    def ints(records):
        out = []
        for C, x, y, *degree in records:
            cn, cd = C.numerator, C.denominator
            if degree and shift:
                pn, pd = powers[degree[0] * shift]
                cn, cd = cn * pn, cd * pd
            out.append((cn, cd, x, y))
        return out

    return weight.numerator, weight.denominator, ints(numer), ints(denom)


def _factors(step, powers: _Powers, i: int, j: int):
    """Integers (num, den, low) with num / (den low) the ratio a compiled
    step multiplies the term at (i, j) by.  low is the product of the lower
    factors' numerators, 0 exactly when one of them vanishes; num is 0
    exactly when an upper factor (or the weight) does."""
    num, den, numer, denom = step
    low = 1
    for cn, cd, x, y in numer:
        pn, pd = powers[x * i + y * j]
        cd *= pd
        num *= cd - cn * pn
        den *= cd
    for cn, cd, x, y in denom:
        pn, pd = powers[x * i + y * j]
        cd *= pd
        low *= cd - cn * pn
        num *= cd
    return num, den, low


def _terminating_row(step, powers: _Powers, i: int, length: int, row):
    """Integers (num, den), num / den the sum 1 + r_0 + r_0 r_1 + ... of at
    most length terms, r_j the ratio of a compiled step at (i, j).  The row
    stops at its first zero upper factor before testing that step's lower
    ones; a zero lower factor before it raises PoleInLower naming row, any
    object that names the row, formatted only then.  A zero weight stops
    the row only after the first step's lower factors are tested."""
    term = total = den = 1  # the terms so far sum to total / den
    for j in range(length - 1):
        num, rden, low = _factors(step, powers, i, j)
        if low == 0 and (num or not step[0]):  # step[0]: the weight's numerator
            raise PoleInLower(f"lower parameter ladder vanished at term {j + 1} of {row}")
        if num == 0:
            break
        rden *= low
        term *= num
        total = total * rden + term
        den *= rden
    return total, den


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
    # the term ratio z prod(1 - u q^m) / ((1 - q^(m+1)) prod(1 - v q^m))
    powers = _Powers(q)
    records = [[(u, 0, 1) for u in us] for us in (spec.uppers, (q,) + spec.lowers)]
    step = _compiled((spec.argument, *records), powers)
    return Fraction(*_terminating_row(step, powers, 0, min(cutoffs) + 1, spec))


def qbinom_terms(aparam, q) -> Iterator[Fraction]:
    """The coefficients c_0, c_1, ... of (a z; q)_inf / (z; q)_inf =
    sum c_n z^n, without end.

    The q-binomial theorem gives c_n = (a; q)_n / (q; q)_n; coefficients are
    built by running ratios, one integer quotient and one reduction a step.
    """
    q = rat(q)
    powers = _Powers(q)
    # (1 - a q^n) / (1 - q^(n+1)), the ratio from c_n to c_(n+1)
    step = _compiled((1, [(rat(aparam), 0, 1)], [(q, 0, 1)]), powers)
    c = Fraction(1)
    for n in itertools.count():
        yield c
        num, den, low = _factors(step, powers, 0, n)
        if low == 0:
            raise PoleInLower(f"(q;q)_{n + 1} vanished; base {q} is a root of unity")
        c = Fraction(c.numerator * num, c.denominator * den * low)


def qbinom_series(aparam, q, N: int) -> list:
    """Coefficients c_0..c_N of (a z; q)_inf / (z; q)_inf = sum c_n z^n, the
    first N + 1 of qbinom_terms."""
    return list(itertools.islice(qbinom_terms(aparam, q), N + 1))
