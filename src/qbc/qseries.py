"""q-Pochhammer symbols and terminating basic hypergeometric sums.

All evaluation is exact, in integers reduced once per result.  This is the
one integer walk kernel: a term ratio is a step of records
1 - C q^(x i + y j), compiled in a base q with its own table of powers
(_compiled, _factors); walk and convolve sum the two-index families, and
_terminating_row every terminating row, phi_sum's and psi_series'.  Every
sum of many terms runs as an integer numerator over the running lcm of its
denominators, with one Fraction per output coefficient.
A basic hypergeometric sum must terminate: the caller passes an N for which
some upper parameter equals base^-N, and the sum stops at the first cutoff
at or below N, found by exact multiplications, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def _add_over_lcm(entry: list, tn: int, td: int) -> None:
    """Add tn / td to the sum entry = [num, den], kept as an integer
    numerator over the lcm of the denominators added so far, so that no
    Fraction, and no gcd of the numerator, is made per term.  A sign may
    sit on either integer of the term; the sum makes one Fraction at the
    end."""
    sd = entry[1]
    if sd % td:
        g = gcd(sd, td)
        entry[0] = entry[0] * (td // g) + tn * (sd // g)
        entry[1] = sd // g * td
    else:
        entry[0] += tn * (sd // td)


class _Powers(dict):
    """The integer pairs (num, den) of q^e by exponent e, made on first use."""

    def __init__(self, q: Fraction):
        super().__init__()
        self.qn, self.qd = q.numerator, q.denominator

    def __missing__(self, e: int):
        qn, qd = self.qn, self.qd
        pair = self[e] = (qn ** e, qd ** e) if e >= 0 else (qd ** -e, qn ** -e)
        return pair


def _compiled(q: Fraction, *steps, shift: int = 0) -> list:
    """The integer forms (num, den, numer, denom, powers) of steps (weight,
    numer, denom) in base q, each record (C, x, y) in numer and denom made
    (cn, cd, x, y); powers is one table of powers of q that the steps
    share.  A record (C, x, y, p) has a C that carries s^p; a step is taken
    at s -> q^shift s, which multiplies that C by q^(p shift)."""
    powers = _Powers(q)

    def ints(records):
        out = []
        for C, x, y, *degree in records:
            cn, cd = C.numerator, C.denominator
            if degree and shift:
                pn, pd = powers[degree[0] * shift]
                cn, cd = cn * pn, cd * pd
            out.append((cn, cd, x, y))
        return out

    return [
        (weight.numerator, weight.denominator, ints(numer), ints(denom), powers)
        for weight, numer, denom in steps
    ]


def _factors(step, i: int, j: int):
    """Integers (num, den, low) with num / (den low) the ratio a compiled
    step multiplies the term at (i, j) by.  low is the product of the lower
    factors' numerators, 0 exactly when one of them vanishes; num is 0
    exactly when an upper factor (or the weight) does."""
    num, den, numer, denom, powers = step
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


def _terminating_row(step, i: int, length: int, row):
    """Integers (num, den), num / den the sum 1 + r_0 + r_0 r_1 + ... of at
    most length terms, r_j the ratio of a compiled step at (i, j).  The row
    stops at its first zero upper factor before testing that step's lower
    ones; a zero lower factor before it raises PoleInLower naming row, any
    object that names the row, formatted only then.  A zero weight stops
    the row only after the first step's lower factors are tested."""
    term = total = den = 1  # the terms so far sum to total / den
    for j in range(length - 1):
        num, rden, low = _factors(step, i, j)
        if low == 0 and (num or not step[0]):  # step[0]: the weight's numerator
            raise PoleInLower(f"lower parameter ladder vanished at term {j + 1} of {row}")
        if num == 0:
            break
        rden *= low
        term *= num
        total = total * rden + term
        den *= rden
    return total, den


def walk(tops, q, outer, inner, what: str, shift: int = 0, stride: int = 1) -> list:
    """Anti-diagonal sums of a two-index coefficient family, built by running
    ratios over the region 0 <= i < len(tops), 0 <= j <= tops[i].

    tops must be non-increasing, so the region is closed downward and each
    term is reached from a neighbour inside it: (i, 0) from (i - 1, 0) by
    the outer step, and (i, j) from (i, j - 1) by the inner one.  A step is
    (weight, numer, denom), and each factor in numer and denom is a record
    (C, x, y) for 1 - C q^(x i + y j) at the term (i, j) the step leaves,
    or (C, x, y, p) for a C carrying s^p, taken at q^shift s.
    Outer steps leave a term with j = 0, so their records carry y = 0.
    denom holds exactly the lower Pochhammer factors the step adds; a zero
    one is a vanishing lower ladder at the term it builds and raises
    ParameterDegeneracy, as the per-term definitions do.  Each factor is
    formed in integers from one table of powers of the base q, and each
    term is kept as a reduced integer pair (num, den), with no Fraction
    made per step; a sign may sit on either integer, every operation being
    exact.  sums[d] adds the terms with i + stride j = d as an integer
    numerator over the lcm of their denominators, and becomes one Fraction
    at the end: stride is the x-degree of one inner step, 1 for the c_e /
    c_o families and 2 for the tied-point collapses.
    """
    if any(record[2] for record in outer[1] + outer[2]):
        raise ValueError("an outer step leaves a term with j = 0; its records carry y = 0")

    def advance(tn: int, td: int, step, i: int, j: int):
        num, den, low = _factors(step, i, j)
        if low == 0:
            raise ParameterDegeneracy(f"vanishing lower Pochhammer in {what}")
        # the step's ratio reduced first, then crossed with the term as
        # Fraction multiplies: big-by-small gcds instead of one big one
        den *= low
        g = gcd(num, den)
        num, den = num // g, den // g
        g1, g2 = gcd(tn, den), gcd(num, td)
        return (tn // g1) * (num // g2), (td // g2) * (den // g1)

    outer, inner = _compiled(q, outer, inner, shift=shift)
    size = max((i + stride * top for i, top in enumerate(tops)), default=-1) + 1
    sums = [[0, 1] for _ in range(size)]
    hn = hd = 1
    for i, top in enumerate(tops):
        if i:
            hn, hd = advance(hn, hd, outer, i - 1, 0)
        tn, td = hn, hd
        for j in range(top + 1):
            if j:
                tn, td = advance(tn, td, inner, i, j - 1)
            _add_over_lcm(sums[i + stride * j], tn, td)
    return [Fraction(n, d) for n, d in sums]


def convolve(outer, rows, size: int, scale=1, stride: int = 2) -> list:
    """Entry e, for e < size, the sum of outer[w] row[K] over the (w, row)
    pairs of rows and the K with w + stride K = e, times scale; a row must
    not reach past size.  Each product is crossed in integers and each sum
    runs over the lcm of its denominators, as walk's diagonal sums do: no
    Fraction is made per pair, and one per entry at the end.  stride is 2
    for the fourfold families, whose even rows step x^2, and 1 for
    psi_series' Cauchy product."""
    sums = [[0, 1] for _ in range(size)]
    for w, row in rows:
        on, od = outer[w].numerator, outer[w].denominator
        for K, value in enumerate(row):
            vn, vd = value.numerator, value.denominator
            g1, g2 = gcd(on, vd), gcd(vn, od)
            _add_over_lcm(sums[w + stride * K], (on // g1) * (vn // g2), (od // g2) * (vd // g1))
    sn, sd = scale.numerator, scale.denominator
    return [Fraction(n * sn, d * sd) for n, d in sums]


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
    records = [[(u, 0, 1) for u in us] for us in (spec.uppers, (q,) + spec.lowers)]
    [step] = _compiled(q, (spec.argument, *records))
    return Fraction(*_terminating_row(step, 0, min(cutoffs) + 1, spec))


def qbinom_series(aparam, q, N: int) -> list:
    """Coefficients c_0..c_N of (a z; q)_inf / (z; q)_inf = sum c_n z^n.

    The q-binomial theorem gives c_n = (a; q)_n / (q; q)_n; coefficients are
    built by running ratios, one integer quotient and one reduction a step.
    """
    q = rat(q)
    # (1 - a q^n) / (1 - q^(n+1)), the ratio from c_n to c_(n+1)
    [step] = _compiled(q, (1, [(rat(aparam), 0, 1)], [(q, 0, 1)]))
    c, out = Fraction(1), []
    for n in range(N + 1):
        if n:
            num, den, low = _factors(step, 0, n - 1)
            if low == 0:
                raise PoleInLower(f"(q;q)_{n} vanished; base {q} is a root of unity")
            c = Fraction(c.numerator * num, c.denominator * den * low)
        out.append(c)
    return out
