"""Exact scalar and Laurent-polynomial substrate.

Everything downstream works over arbitrary-precision rationals: scalars are
fractions.Fraction, polynomials are LaurentPoly, sparse dicts mapping
integer exponent tuples to nonzero Fractions.  Inside ClearedShiftOperator
the polynomials carry nonzero ints instead (the product of its numerators
and the integer numerators it applies to), built through LaurentPoly._raw,
which does not coerce, and multiplied by LaurentPoly.__mul__ like any
other.  An application straightens its alternating sum against the Weyl
denominator over ints; its one division, by the pole, is exact_div's.
A polynomial invariant under the signed permutations can be held as an
OrbitPoly, by its coefficients on the orbit sums m_nu, keyed by dominant
weights nu: the cleared operators take and return those, and the
Koornwinder layer holds all its invariant polynomials that way.
Half-integer exponents (needed for weights of the B2 lattice and for
x^(-1/2) style prefactors) are handled by a lattice scale: a LaurentPoly
with scale=2 stores doubled exponents, so the tuple (1, 0) on scale 2
means x1^(1/2).

Parameters that occur under square roots in formulas (q, t, T) are supplied
via their exact square roots so every half power stays rational.  The four
Askey-Wilson parameters are stored as plain signed rationals; the operator
normalization constant alpha = sqrt(abcd/q) is extracted exactly on demand
and it is an error if it is irrational at the supplied point.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, lt, neg, sub
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    DegenerateEigenvalues,
    DimensionMismatch,
    InexactDivision,
    LengthError,
    MissingSquareRoot,
    ParameterDegeneracy,
)

def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4', or Fractions to an exact Fraction.

    A bool is an int to Python but no number in a configuration, so it
    raises TypeError instead of reading as 0 or 1.  A string with a zero
    denominator is no number either, and raises ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"cannot build an exact rational from {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (str, int)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot build an exact rational from {value!r}")


def format_rational(x: Fraction) -> str:
    """Canonical text form p/q with the denominator always written."""
    return f"{x.numerator}/{x.denominator}"


def rational_sqrt(x: Fraction) -> Fraction:
    """Exact nonnegative square root of a rational, or MissingSquareRoot."""
    if x < 0:
        raise MissingSquareRoot(f"{x} is negative")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise MissingSquareRoot(f"{x} is not the square of a rational")
    return Fraction(rn, rd)


def _opt_rat(value):
    return None if value is None else rat(value)


@dataclass(frozen=True)
class ParamPoint:
    """One exact parameter point.

    a, b, c, d are the Askey-Wilson / Koornwinder parameters (signed, nonzero
    where present).  q, t, T are supplied through sqrt_q, sqrt_t, sqrt_T so
    that q^(1/2), t^(1/2), T^(1/2) and mixed powers like sqrt(q/t) are exact.
    s is an optional spectral value for series that take one.
    """

    sqrt_q: Fraction
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[Fraction] = None
    d: Optional[Fraction] = None
    sqrt_t: Optional[Fraction] = None
    sqrt_T: Optional[Fraction] = None
    s: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "sqrt_q", rat(self.sqrt_q))
        for name in ("a", "b", "c", "d", "sqrt_t", "sqrt_T", "s"):
            object.__setattr__(self, name, _opt_rat(getattr(self, name)))
        if self.sqrt_q in (0, 1, -1):
            raise ParameterDegeneracy("sqrt_q must avoid 0 and roots of unity")
        for name in ("a", "b", "c", "d"):
            if getattr(self, name) == 0:
                raise ParameterDegeneracy(f"parameter {name} must be nonzero")
        for name in ("sqrt_t", "sqrt_T"):
            if getattr(self, name) == 0:
                raise ParameterDegeneracy(f"{name} must be nonzero")

    # q and t are read thousands of times a run, and the hash once per memo
    # lookup keyed by the point, so each is computed once per point;
    # replace() builds a new point, with nothing cached, and == and the
    # hash read only the fields
    @functools.cached_property
    def _hash(self) -> int:
        return hash(
            (self.sqrt_q, self.a, self.b, self.c, self.d, self.sqrt_t, self.sqrt_T, self.s)
        )

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def q(self) -> Fraction:
        return self.sqrt_q * self.sqrt_q

    @functools.cached_property
    def t(self) -> Fraction:
        if self.sqrt_t is None:
            raise ParameterDegeneracy("point has no t value")
        return self.sqrt_t * self.sqrt_t

    @property
    def T(self) -> Fraction:
        if self.sqrt_T is None:
            raise ParameterDegeneracy("point has no T value")
        return self.sqrt_T * self.sqrt_T

    def abcd(self) -> Fraction:
        self.require("a", "b", "c", "d")
        return self.a * self.b * self.c * self.d

    @property
    def alpha(self) -> Fraction:
        """Exact sqrt(abcd/q); the branch with positive sign is used
        consistently in operators and eigenvalues."""
        return rational_sqrt(self.abcd() / self.q)

    def require(self, *names: str) -> "ParamPoint":
        for name in names:
            if getattr(self, name) is None:
                raise ParameterDegeneracy(f"point has no {name} value")
        return self

    def replace(self, **kw) -> "ParamPoint":
        """A copy with some fields changed, checked again by __post_init__."""
        return dataclasses.replace(self, **kw)

    def canonical_key(self) -> str:
        """Deterministic filesystem-safe identifier for this point."""
        return "_".join(
            name + txt.replace("-", "m").replace("/", "d")
            for name, txt in self.to_json_obj().items()
        )

    def to_json_obj(self) -> dict:
        out = {}
        for name in ("a", "b", "c", "d", "sqrt_q", "sqrt_t", "sqrt_T", "s"):
            v = getattr(self, name)
            if v is not None:
                out[name] = format_rational(v)
        return out

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ParamPoint":
        kw = {k: rat(v) for k, v in obj.items()}
        return cls(**kw)


class _TermForm:
    """What LaurentPoly and OrbitPoly share: terms maps exponent tuples of
    length num_vars, on the lattice of scale 1 or 2, to nonzero
    coefficients.  Forms of two classes never compare equal and never add:
    an orbit form's terms are not the terms of the polynomial it stands
    for.  Instances are treated as immutable; operations return new
    objects."""

    __slots__ = ("num_vars", "scale", "terms")

    def __init__(self, num_vars: int, terms: Optional[Mapping] = None, scale: int = 1):
        """A form from any mapping of keys to coefficients: each coefficient
        is made an exact Fraction (rat), zeros are dropped and each key is
        checked by the class's _key."""
        if scale not in (1, 2):
            raise ValueError("lattice scale must be 1 or 2")
        self.num_vars, self.scale = num_vars, scale
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = rat(coeff)
            if coeff:
                clean[self._key(key)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, num_vars: int, terms: dict, scale: int = 1):
        """Wrap a clean terms dict (tuple exponents, nonzero coefficients)
        as it is: no copy, no check, no coercion of its coefficients."""
        res = cls.__new__(cls)
        res.num_vars, res.scale, res.terms = num_vars, scale, terms
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"a {type(self).__name__} does not combine with {other!r}")
        if self.num_vars != other.num_vars or self.scale != other.scale:
            raise DimensionMismatch(
                f"({self.num_vars} vars, scale {self.scale}) vs "
                f"({other.num_vars} vars, scale {other.scale})"
            )

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return (
                self.num_vars == other.num_vars
                and self.scale == other.scale
                and self.terms == other.terms
            )
        return NotImplemented

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return self._raw(self.num_vars, out, self.scale)

    def __neg__(self):
        return self._raw(self.num_vars, {e: -c for e, c in self.terms.items()}, self.scale)

    def __sub__(self, other):
        return self + (-other)

    def _times(self, scalar):
        """The form times an int or Fraction scalar; NotImplemented for
        anything else, so a product with another form raises TypeError."""
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = rat(scalar)
        if scalar == 0:
            return self._raw(self.num_vars, {}, self.scale)
        return self._raw(
            self.num_vars, {e: c * scalar for e, c in self.terms.items()}, self.scale
        )

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def leading(self):
        """Lex-largest exponent tuple and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def to_json_obj(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "lattice_scale": self.scale,
            "terms": [
                {"exps": list(e), "coeff": format_rational(c)}
                for e, c in sorted(self.terms.items())
            ],
        }


class LaurentPoly(_TermForm):
    """Sparse Laurent polynomial over Fraction with an exponent lattice scale.

    terms maps exponent tuples (length num_vars, ints) to nonzero Fractions,
    or to nonzero ints in the polynomials ClearedShiftOperator builds with
    _raw for its integer arithmetic.  scale=1 means the tuple entries are
    the actual exponents; scale=2 means entries are doubled so half-integer
    exponents stay integral.
    """

    __slots__ = ()

    def _key(self, exps) -> tuple:
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.num_vars:
            raise DimensionMismatch(f"exponent tuple {exps} does not have {self.num_vars} entries")
        return exps

    @classmethod
    def zero(cls, num_vars: int, scale: int = 1) -> "LaurentPoly":
        return cls(num_vars, {}, scale)

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1, scale: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): rat(coeff)}, scale)

    def __mul__(self, other):
        # a LaurentPoly is tested first: the scalar check behind _times goes
        # through the numbers ABC, and most products are of two polynomials
        if not isinstance(other, LaurentPoly):
            return self._times(other)
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                prod = ca * cb
                acc = out.get(e)
                if acc is None:
                    out[e] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        return LaurentPoly._raw(self.num_vars, out, self.scale)

    __rmul__ = __mul__

    def format_human(self) -> str:
        if not self.terms:
            return "0"
        names = (
            ["x"] if self.num_vars == 1 else [f"x{i+1}" for i in range(self.num_vars)]
        )
        bits = []
        for exps, coeff in sorted(self.terms.items()):
            factors = []
            for name, e in zip(names, exps):
                if e == 0:
                    continue
                if self.scale == 2:
                    p = Fraction(e, 2)
                    ptxt = str(p.numerator) if p.denominator == 1 else f"({p})"
                else:
                    ptxt = str(e)
                factors.append(name if ptxt == "1" else f"{name}^{ptxt}")
            coeff_txt = (
                str(coeff.numerator)
                if coeff.denominator == 1
                else f"{coeff.numerator}/{coeff.denominator}"
            )
            if factors and coeff == 1:
                bits.append("*".join(factors))
            elif factors and coeff == -1:
                bits.append("-" + "*".join(factors))
            elif factors:
                bits.append(coeff_txt + "*" + "*".join(factors))
            else:
                bits.append(coeff_txt)
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self):
        body = self.format_human()
        if len(body) > 120:
            body = body[:117] + "..."
        return f"LaurentPoly({self.num_vars} vars, scale {self.scale}: {body})"


def _dominant(e: tuple) -> bool:
    """Whether the exponent tuple e is a dominant weight: nonnegative and
    weakly decreasing."""
    return not e or e[-1] >= 0 and not any(map(lt, e, e[1:]))


class OrbitPoly(_TermForm):
    """A polynomial invariant under the signed permutations W, held by its
    coefficients on the orbit sums: terms maps dominant weights nu
    (nonnegative, weakly decreasing, length num_vars, on the lattice of the
    given scale) to nonzero Fractions c_nu, for the polynomial
    sum_nu c_nu m_nu.

    An invariant polynomial's coefficients at its dominant exponents fix
    it, and an orbit form is invariant by construction, so nothing built
    from one needs its invariance checked again.  The lex-top term of an
    invariant polynomial lies at a dominant exponent (sorting the absolute
    values of an exponent in decreasing order never lowers it in lex
    order), so leading() and coeff() of an orbit form name the monomial and
    the coefficient those of its expansion do.  Orbit forms add and
    subtract, and multiply by a scalar on the right only.
    """

    __slots__ = ()

    def _key(self, nu) -> tuple:
        nu = tuple(nu)
        if len(nu) != self.num_vars or any(type(e) is not int for e in nu):
            raise DimensionMismatch(f"weight {nu} is not {self.num_vars} integers")
        if not _dominant(nu):
            raise ValueError(f"weight {nu} is not dominant")
        return nu

    @classmethod
    def zero(cls, num_vars: int, scale: int = 1) -> "OrbitPoly":
        return cls(num_vars, {}, scale)

    @classmethod
    def from_poly(cls, f: LaurentPoly) -> "OrbitPoly":
        """The orbit form of an invariant LaurentPoly: its coefficients at
        its dominant exponents.  weyl_invariant checks that f is invariant,
        so any other f raises ValueError."""
        if not weyl_invariant(f):
            raise ValueError("polynomial is not invariant under the signed-permutation group")
        return cls._raw(
            f.num_vars, {e: c for e, c in f.terms.items() if _dominant(e)}, f.scale
        )

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "OrbitPoly":
        """Inverse of to_json_obj.  A coefficient that is no "p/q" text of
        two ints with q nonzero, or a weight that _key refuses (an entry
        that is no JSON int, such as 1.5 or a bool, the wrong length, or
        not dominant), raises instead of misreading; a zero coefficient is
        dropped."""
        terms = {}
        for t in obj["terms"]:
            coeff = t["coeff"]
            if type(coeff) is not str:
                raise TypeError(f"coefficient {coeff!r} is not p/q text")
            num, slash, den = coeff.partition("/")
            num, den = int(num), int(den) if slash else 0
            if not den:
                raise ValueError(f"{coeff!r} is no p/q text with q nonzero")
            terms[tuple(t["exps"])] = Fraction(num, den)
        return cls(obj["num_vars"], terms, obj.get("lattice_scale", 1))

    def expand(self) -> LaurentPoly:
        """The polynomial with all its terms.  Distinct dominant weights
        have disjoint orbits, so each term is written once."""
        return LaurentPoly._raw(
            self.num_vars,
            {e: c for nu, c in self.terms.items() for e in signed_orbit(nu)},
            self.scale,
        )

    __mul__ = _TermForm._times

    def __repr__(self):
        body = ", ".join(f"{list(nu)}: {c}" for nu, c in sorted(self.terms.items()))
        if len(body) > 120:
            body = body[:117] + "..."
        return f"OrbitPoly({self.num_vars} vars, scale {self.scale}: {{{body}}})"


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Divide f, with int coefficients, by a primitive integer binomial
    g = a x^e1 + b x^e0 (int a and b with gcd 1), e1 the lex-larger
    exponent, insisting the quotient is a Laurent polynomial.

    Any other g, or an f with other coefficients, raises ValueError; the
    operators divide by nothing else.  A quotient that is not a Laurent
    polynomial raises InexactDivision.

    The division is synthetic, along each line of exponents parallel to
    d = e1 - e0.  Multiplying by g maps a line into itself, so the lines
    divide independently.  d's first nonzero entry d_i is positive, so
    e - k d with k = e_i // d_i is one base point on each line.  On the
    line of f through base, write f_k for the coefficient at base + k d;
    the quotient term at base + k d - e1 is q_k = (f_k - b q_(k+1)) / a,
    taken from the top of the line down to one step above its lowest term
    f_low, which must equal b q_(low+1): that line remainder is zero
    exactly when the line divides, so a division raises InexactDivision
    exactly when no Laurent quotient exists.  Where a q_k vanishes nothing
    carries below it, and the recurrence jumps to the next term of f.  The
    cost is O(|f| + |q|) coefficient steps, with no heap.

    The recurrence runs in ints: by Gauss's lemma an exact quotient of an
    integer polynomial by a primitive one is itself integral, so a step
    whose divmod by a leaves a remainder proves the division inexact.
    """
    f._check_compatible(g)
    if len(g.terms) != 2:
        raise ValueError(f"exact_div divides by binomials only, not {g}")
    (e1, a), (e0, b) = sorted(g.terms.items(), reverse=True)
    if not (
        type(a) is int
        and type(b) is int
        and math.gcd(a, b) == 1
        and set(map(type, f.terms.values())) <= {int}
    ):
        raise ValueError("exact_div divides int polynomials by primitive int binomials only")
    d = tuple(map(sub, e1, e0))
    i = next(k for k, x in enumerate(d) if x)
    lines: dict = {}
    for e, c in f.terms.items():
        k = e[i] // d[i]
        base = tuple([x - k * y for x, y in zip(e, d)])
        line = lines.get(base)
        if line is None:
            lines[base] = {k: c}
        else:
            line[k] = c
    quo: dict = {}
    for base, line in lines.items():
        origin = tuple(map(sub, base, e1))
        ks = sorted(line, reverse=True)
        low = ks[-1]
        k, nxt, carry = ks[0], 1, 0
        while k > low:
            r = line.get(k, 0) - carry
            if not r:
                while ks[nxt] >= k:
                    nxt += 1
                k, carry = ks[nxt], 0
                continue
            qc, left = divmod(r, a)
            if left:
                raise InexactDivision("quotient is not integral")
            quo[tuple([x + k * y for x, y in zip(origin, d)])] = qc
            carry = b * qc
            k -= 1
        if line[low] != carry:
            raise InexactDivision("remainder is not divisible")
    return LaurentPoly._raw(f.num_vars, quo, f.scale)


# -- partitions and dominance -------------------------------------------------


def padded_partition(lam: Sequence[int], n: int) -> tuple:
    """The partition lam as a dominant weight of n variables: its parts,
    nonnegative and weakly decreasing, padded with zeros to length n."""
    parts = tuple(int(p) for p in lam)
    if not _dominant(parts):
        raise ValueError(f"partition {parts} has a negative or an increasing part")
    length = sum(1 for p in parts if p)
    if length > n:
        raise LengthError(f"partition {parts} has more than {n} parts")
    return parts[:length] + (0,) * (n - length)


def dominated_partitions(lam: Sequence[int], n: int) -> list:
    """All partitions mu with at most n parts and mu <= lam in dominance,
    padded to length n, with the largest (lam itself) first.

    mu <= lam when every partial sum of mu is at most the same partial sum
    of lam.  For hyperoctahedral weight orbits this is exactly the condition
    for the dominant weight mu to lie in the convex hull of the orbit of
    lam, so it also orders partitions of different weights.  The recursion
    picks the parts in turn, each at most the one before and keeping the
    partial sum within lam's, the largest first.  So the list descends in
    the partial-sum tuples, and any strict dominance relation strictly
    orders those: a linear extension of dominance.
    """
    bounds = list(itertools.accumulate(padded_partition(lam, n)))

    def extend(prefix: tuple, total: int):
        if len(prefix) == n:
            yield prefix
            return
        top = bounds[len(prefix)] - total
        if prefix:
            top = min(top, prefix[-1])
        for p in range(top, -1, -1):
            yield from extend(prefix + (p,), total + p)

    return list(extend((), 0))


# -- hyperoctahedral orbits ---------------------------------------------------


def signed_orbit(entries: Sequence[int]) -> set:
    """Distinct images of an exponent tuple under permutations and sign
    flips: each distinct arrangement of its absolute values, with each
    nonzero entry of either sign.  The arrangements are built a place at a
    time from the values left, so the cost is the orbit's size, not n!."""
    left: dict = {}
    for x in entries:
        left[abs(x)] = left.get(abs(x), 0) + 1

    def arrange(size: int):
        if not size:
            yield ()
            return
        for x in [x for x, k in left.items() if k]:
            left[x] -= 1
            for rest in arrange(size - 1):
                yield (x,) + rest
            left[x] += 1

    return {
        image
        for arrangement in arrange(len(entries))
        for image in itertools.product(*[(x, -x) if x else (0,) for x in arrangement])
    }


def weyl_invariant(f: LaurentPoly, first: int = 0) -> bool:
    """True when f is invariant under permutations and inversions x_i -> 1/x_i
    of its variables first..n-1 (all of them by default).

    Checking the standard generators (adjacent transpositions plus the
    inversion of the last variable) suffices because they generate that
    whole hyperoctahedral group.  A generator w fixes f when each term
    c x^e of f has the term c x^(w(e)) too, as w permutes exponents.
    """
    n, terms = f.num_vars, f.terms
    generators = [_swap(n, i, i + 1, 1) for i in range(first, n - 1)]
    if first < n:
        generators.append(_swap(n, n - 1, n - 1, -1))
    return all(
        terms.get(_act(e, perm, signs)) == c
        for perm, signs in generators
        for e, c in terms.items()
    )


# -- cleared-denominator difference operators ----------------------------------


def _integer_numerators(p: LaurentPoly):
    """(D p with int coefficients, D) for D the lcm of p's denominators."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    terms = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    return LaurentPoly._raw(p.num_vars, terms, p.scale), den


def _swap(n: int, var: int, i: int, sign: int):
    """The signed permutation x_var -> x_i^sign, x_i -> x_var as the
    (perm, signs) of _act."""
    perm = list(range(n))
    perm[var], perm[i] = i, var
    signs = [1] * n
    signs[var] = sign
    return perm, signs


def _act(e: tuple, perm, signs) -> tuple:
    """The exponent of w(x^e) for the signed permutation w that takes x_i to
    x_(perm[i])^(signs[i]): the new exponent of variable perm[i] is
    signs[i] times the old exponent of variable i."""
    new = [0] * len(e)
    for i, x in enumerate(e):
        new[perm[i]] = signs[i] * x
    return tuple(new)


def _lex_negative(e: tuple) -> bool:
    return next((x < 0 for x in e if x), False)


def _negative_part(e: tuple) -> tuple:
    return tuple([-x if x < 0 else 0 for x in e])


def _canonical(u: Fraction, e: tuple) -> tuple:
    """The record of the factor 1 - u x^e up to a monomial unit: (u, e)
    for a lex-positive e, else (1/u, -e), as 1 - u x^e is -u x^e times
    1 - (1/u) x^(-e)."""
    if _lex_negative(e):
        return 1 / u, tuple(map(neg, e))
    return u, e


def _sign(u: Fraction, e: tuple) -> int:
    """The sign s with 1 - u x^e = s B / (r x^(e-)), for B the binomial of
    the canonical record, u = p/r in lowest terms and e- the negative part
    of e: r x^(e-) (1 - u x^e) = r x^(e-) - p x^(e+) has its lex-leading
    term at e- when e is lex-negative, else at e+."""
    return 1 if u < 0 or _lex_negative(e) else -1


def _binomial(key: tuple, scale: int) -> LaurentPoly:
    """B = |p| x^(e+) - sign(p) r x^(e-) for the canonical record (p/r, e):
    primitive, with int coefficients, a positive lex-leading coefficient and
    per-variable minimum exponent zero."""
    u, e = key
    p, r = u.numerator, u.denominator
    plus = tuple([x if x > 0 else 0 for x in e])
    return LaurentPoly._raw(
        len(e), {plus: abs(p), _negative_part(e): -r if p > 0 else r}, scale
    )


def _straighten(e: tuple):
    """(mu, sign) for the strictly dominant image mu = w(e) of e under the
    signed permutations and the sign of w, or None when e lies on a wall.

    mu is e's absolute values in decreasing order.  It is strictly dominant,
    mu_1 > ... > mu_n > 0, exactly when no entry of e is 0 and no two have
    one absolute value; otherwise a reflection (a sign flip or a signed
    transposition) fixes e.  w flips the negative entries and then sorts,
    so its sign, the determinant of its matrix, is -1 to the number of
    negative entries plus the number of pairs i < j with |e_i| < |e_j|."""
    a = list(map(abs, e))
    if 0 in a or len(set(a)) < len(a):
        return None
    flips = sum(x < y for x, y in itertools.combinations(a, 2))
    flips += sum(x < 0 for x in e)
    return tuple(sorted(a, reverse=True)), -1 if flips % 2 else 1


def _positive_roots(n: int, kept: Sequence[tuple]) -> list:
    """The positive roots of the B_n or C_n system whose roots alpha with
    alpha_1 > 0 are exactly kept, the exponents of distinct lex-positive
    records; ValueError when kept is no such set.

    On the lattice the system is {+-a e_i} and {+-b e_i +- b e_j} with
    a = b (B_n) or a = 2 b (C_n); in rank 1 it is {+-a e_1}, any a.  Its
    roots with alpha_1 > 0 are a e_1 and b (e_1 +- e_j), and its positive
    roots, the lex-positive ones, are a e_i and b (e_i +- e_j) for i < j.
    Its Weyl group is the signed permutations, and its dominant chamber is
    mu_1 >= ... >= mu_n >= 0."""

    def vector(spots):
        return tuple(spots.get(k, 0) for k in range(n))

    a = next((e[0] for e in kept if not any(e[1:])), None)
    b = next((e[0] for e in kept if any(e[1:])), a)
    positive = []
    if a is not None and (n == 1 or a in (b, 2 * b)):
        for i in range(n):
            positive.append(vector({i: a}))
            for j, s in itertools.product(range(i + 1, n), (b, -b)):
                positive.append(vector({i: b, j: s}))
    if not positive or sorted(kept) != sorted(e for e in positive if e[0] > 0):
        raise ValueError(
            "the denominators besides the pole are not the factors 1 - x^alpha "
            "over the roots alpha with alpha_1 > 0 of a B_n or C_n system"
        )
    return positive


#: per (nu, rho), the straightened alternants of Delta m_nu but its top,
#: which is A_(nu + rho) once (see _orbit_coefficients); for the process
_STRAIGHTENED: dict = {}


def _straightened(nu: tuple, rho: tuple) -> dict:
    """Delta m_nu = sum over e in the orbit of nu of the alternant of
    x^(e + rho), as {mu: coefficient} over strictly dominant mu, less its
    top term A_(nu + rho).  It depends on nu and rho only, not on the
    point, so it is kept per (nu, rho) for the process; the dict is shared
    and must not be mutated."""
    out = _STRAIGHTENED.get((nu, rho))
    if out is None:
        out = {}
        for e in signed_orbit(nu):
            image = _straighten(tuple(map(add, e, rho)))
            if image is not None:
                mu, sign = image
                out[mu] = out.get(mu, 0) + sign
        del out[tuple(map(add, nu, rho))]
        out = _STRAIGHTENED[nu, rho] = {mu: c for mu, c in out.items() if c}
    return out


def _orbit_coefficients(alternant: dict, rho: tuple) -> dict:
    """{nu: b_nu} for the invariant Laurent polynomial P = sum b_nu m_nu
    with Delta P = sum_mu alternant[mu] A_mu, or InexactDivision when there
    is none.

    Delta m_nu, for nu dominant, has the top A_(nu + rho) once, and every
    other alternant in it lies below nu + rho in dominance, so lower in lex
    order.  The A_mu are linearly independent, so Delta P, for P an
    invariant Laurent polynomial, has the top A_(nu + rho) of P's lex-top
    m_nu, and P exists exactly when peeling succeeds: the coefficient of
    the lex-top A_mu left is b_nu for nu = mu - rho, which must be
    dominant, and subtracting it times Delta m_nu leaves only lower
    alternants.  A heap of negated exponents keeps the lex-top; an
    alternant a subtraction creates is lower than the one just taken, so
    it was never taken before."""
    alternant = dict(alternant)
    heap = [tuple(map(neg, mu)) for mu in alternant]
    heapq.heapify(heap)
    out = {}
    while heap:
        mu = tuple(map(neg, heapq.heappop(heap)))
        b = alternant.pop(mu)
        if not b:
            continue
        nu = tuple(map(sub, mu, rho))
        if not _dominant(nu):
            raise InexactDivision(
                f"the image is no Laurent polynomial: A_{mu} is left over, "
                f"and mu - rho = {nu} is not dominant"
            )
        out[nu] = b
        for lower, c in _straightened(nu, rho).items():
            acc = alternant.get(lower)
            if acc is None:
                alternant[lower] = -b * c
                heapq.heappush(heap, tuple(map(neg, lower)))
            else:
                alternant[lower] = acc - b * c
    return out


class ClearedShiftOperator:
    """A q-difference operator summed over the signed-permutation group W.

    The generator is one term A_0(x) (T_0 - 1), where T_0 is the shift
    x_1 -> q x_1 and A_0 is a product of factors 1 - u x^e over another.
    Each factor is given as a record (u, e): a nonzero rational u and a
    nonzero exponent tuple e of length num_vars, on the lattice of the
    given scale; numer_factors and denom_factors list the records, as the
    operators' generators (_koorn_generator and its kin) return them.  The
    operator is

        D f = (1/scalar) sum_w w(A_0) (T_w f - f),

    summed over one representative w of each of the 2n cosets of the
    stabilizer W_1 of x_1 in W: w takes x_1 to x_i^s (s = +1 or -1), and
    T_w is the shift x_i -> q^s x_i.  So D annihilates constants.

    g_0 = T_0 f - f vanishes where q x_1 = 1/x_1, because f(1/x_1) = f(x_1)
    for invariant f.  So the pole factor 1 - q x_1^2 of A_0 divides g_0 (on
    the scale-2 lattice, with y the lattice variable x_1^(1/2), the factor
    is 1 - q^(1/2) y^2).  When the build finds the pole's record, up to a
    unit, among the denominators, it keeps it out of what follows, and
    apply divides g_0 by its binomial (exact_div, through the module
    global) before anything else.

    The other denominators must be the factors 1 - x^alpha over the roots
    alpha with alpha_1 > 0 of a B_n or C_n root system Phi, each once (up
    to a monomial unit): for the Koornwinder operator 1 - x_1^2 and
    1 - x_1 x_j^(+-1), for b2's doubled lattice its two long and one short
    root, for Askey-Wilson 1 - x^2.  Then the denominators of all the
    terms w(A_0) together are the Weyl denominator
    Delta = x^rho prod_(alpha > 0) (1 - x^(-alpha)) of Phi, rho half the
    sum of the positive roots, and the sum over the cosets is one
    alternating sum over W.  With N the product of the numerators, each
    1 - u x^e as the int binomial r - p x^e for u = p/r (times the inverse
    of the denominators' units), g the int g_0 after the pole and K the
    kept roots, every factor 1 - x^alpha of A_0 is -x^alpha (1 - x^-alpha),
    and the roots of Phi with alpha_1 = 0 give the Weyl denominator of W_1,
    an alternating sum over W_1 itself.  That gives

        D f = c sum_(u in W) sgn(u) u(H) / Delta,   H = x^(rho - sum K) N g,

    for the constant c of the build and g_0's denominator.  The prefix
    rho - sum K is (-n, n-1, ..., 1) for the Koornwinder operator, (-3, 1)
    for b2 and (-1) for Askey-Wilson.  The alternating sum of a term x^e is
    zero when e lies on a wall of the Weyl chambers, and otherwise
    sgn(w) A_mu for the signed permutation w that takes e to the strictly
    dominant mu = w(e) (_straighten).  By the Weyl character formula,
    A_(lambda + rho) / Delta is the character sp_lambda of a dominant
    weight lambda, a Laurent polynomial, so on the weight lattice D f is
    c sum a_lambda sp_lambda.  apply converts the alternating sum to the
    orbit basis by peeling off its lex-top alternant against Delta m_nu
    (_orbit_coefficients), with no division at all, and returns the
    coefficients it peels as an orbit form.  The peel divides the
    whole sum by Delta at once, so it also serves a lattice larger than the
    weight lattice (b2's doubled one), where a single A_mu off the weights
    has no Laurent quotient but a sum of them may; and it raises
    InexactDivision exactly when D f is no Laurent polynomial, the input
    then not being in the operator's polynomial domain.

    The build checks what the identity needs and raises ValueError when
    any of it fails: the records are binomials in num_vars variables, N is
    invariant under W_1 (else the sum over cosets is not defined), the kept
    denominators are distinct factors 1 - x^alpha whose W-orbit is a B_n
    or C_n system, and rho is on the lattice.  apply takes orbit forms
    only, which are invariant by construction; any other input raises
    TypeError.
    """

    def __init__(
        self,
        P: ParamPoint,
        num_vars: int,
        numer_factors: Sequence[tuple],
        denom_factors: Sequence[tuple],
        scalar=1,
        scale: int = 1,
    ):
        self.P = P
        self.num_vars, self.scale = num_vars, scale
        self._columns: dict = {}
        scalar = rat(scalar)
        if scalar == 0:
            raise ParameterDegeneracy("operator scalar prefactor vanishes")
        n = num_vars
        numer = [(rat(u), tuple(e)) for u, e in numer_factors]
        denom = [(rat(u), tuple(e)) for u, e in denom_factors]
        for u, e in numer + denom:
            if len(e) != n:
                raise DimensionMismatch(f"exponent tuple {e} does not have {n} entries")
            if not u or not any(e):
                raise ValueError(f"factor 1 - ({u}) x^{e} is not a binomial")
        # 1 - u x^e with e lex-negative is -u x^e (1 - (1/u) x^(-e)): N takes
        # the inverse of that unit's monomial, the constant its coefficient
        shift, unscale = (0,) * n, 1 / scalar
        for u, e in denom:
            if _lex_negative(e):
                shift = tuple(map(sub, shift, e))
                unscale /= -u
        head = LaurentPoly._raw(n, {shift: 1}, scale)
        for u, e in numer:
            r, p = u.denominator, u.numerator
            unscale /= r
            head = head * LaurentPoly._raw(n, {(0,) * n: r, e: -p}, scale)
        if not weyl_invariant(head, 1):
            raise ValueError(
                "generator coefficient is not invariant under permutations "
                "and inversions of the other variables"
            )
        kept = [_canonical(u, e) for u, e in denom]
        pole = _canonical(P.sqrt_q ** (2 // scale), (2,) + (0,) * (n - 1))
        self._pole = None
        if pole in kept:
            kept.remove(pole)
            self._pole = _binomial(pole, scale)
            # 1 - u x^e is sign B / r for u = p/r and the pole's binomial B
            unscale *= _sign(*pole) * pole[0].denominator
        if any(u != 1 for u, _ in kept) or len(set(kept)) != len(kept):
            raise ValueError(
                "the denominators besides the pole are not distinct factors 1 - x^alpha"
            )
        roots = [e for _, e in kept]
        twice_rho = [sum(column) for column in zip(*_positive_roots(n, roots))]
        if any(x % 2 for x in twice_rho):
            raise ValueError("half the sum of the positive roots is off the lattice")
        self._rho = tuple(x // 2 for x in twice_rho)
        prefix = tuple(map(sub, self._rho, map(sum, zip(*roots))))
        self._head = LaurentPoly._raw(
            n, {tuple(map(add, e, prefix)): c for e, c in head.terms.items()}, scale
        )
        # each 1 - x^alpha of K is -x^alpha (1 - x^-alpha)
        self._unscale = unscale * (-1) ** len(kept)

    def _difference(self, f: LaurentPoly):
        """(g, den) with g over ints and g / den = T_0 f - f.  T_0 takes
        x^e to (a/b)^k x^e for sqrt_q = a/b and k = 2 e_1 / scale, so over
        the denominator (a b)^K, K the largest |k| on f's support, a term
        c x^e of f's integer numerators gives c (a^(K + k) b^(K - k) - (a b)^K)."""
        f, den = _integer_numerators(f)
        a, b = self.P.sqrt_q.numerator, self.P.sqrt_q.denominator
        step = 2 // self.scale
        top = step * max((abs(e[0]) for e in f.terms), default=0)
        pa = [a**j for j in range(2 * top + 1)]
        pb = [b**j for j in range(2 * top + 1)]
        base = pa[top] * pb[top]
        terms = {}
        for e, c in f.terms.items():
            k = step * e[0]
            if k:
                terms[e] = c * (pa[top + k] * pb[top - k] - base)
        return LaurentPoly._raw(f.num_vars, terms, f.scale), den * base

    def _alternant(self, g: LaurentPoly) -> dict:
        """sum over u in W of sgn(u) u(H), H = x^(rho - sum K) N g, as
        {mu: coefficient} over the strictly dominant mu of its alternants
        A_mu: the product H formed first, then each of its terms
        straightened."""
        out: dict = {}
        for e, c in (self._head * g).terms.items():
            image = _straighten(e)
            if image is not None:
                mu, sign = image
                out[mu] = out.get(mu, 0) + sign * c
        return {mu: c for mu, c in out.items() if c}

    def apply(self, f: OrbitPoly) -> OrbitPoly:
        """D f for an orbit form f in the operator's variables and lattice,
        as an orbit form: T_0 f - f is formed on f's expansion, and the peel
        gives D f's orbit coefficients.  InexactDivision when D f is no
        Laurent polynomial."""
        if type(f) is not OrbitPoly:
            raise TypeError(f"the operator applies to orbit forms, not {f!r}")
        if (f.num_vars, f.scale) != (self.num_vars, self.scale):
            raise DimensionMismatch(
                f"operator on ({self.num_vars} vars, scale {self.scale}) applied to "
                f"({f.num_vars} vars, scale {f.scale})"
            )
        g, g_den = self._difference(f.expand())
        if g.is_zero():
            return OrbitPoly.zero(f.num_vars, f.scale)
        if self._pole is not None:
            g = exact_div(g, self._pole)
        unscale = self._unscale / g_den
        coeffs = _orbit_coefficients(self._alternant(g), self._rho)
        return OrbitPoly._raw(
            f.num_vars, {nu: c * unscale for nu, c in coeffs.items()}, f.scale
        )

    def column(self, key: tuple) -> dict:
        """The image of the orbit sum m_key over the orbit basis, as the
        terms of its orbit form: one column of the operator's matrix.

        A triangular operator's image of m_key does not depend on the weight
        being solved, so the columns are kept per operator for the process
        and every solve at it shares them.  The dict is shared by every
        caller and must not be mutated."""
        col = self._columns.get(key)
        if col is None:
            m_key = OrbitPoly._raw(self.num_vars, {key: Fraction(1)}, self.scale)
            col = self._columns[key] = self.apply(m_key).terms
        return col


# -- triangular eigenproblems ---------------------------------------------------


def solve_triangular_eigenproblem(basis: Sequence, column: Callable) -> dict:
    """Back-substitute the one-dimensional eigenvector of a triangular matrix.

    basis lists keys with the top weight first, in some linear extension of
    the order that makes the operator triangular.  column(key) returns the
    expansion of the operator applied to the basis element as a dict over
    basis keys; its diagonal entry is the eigenvalue of that key.  Returns
    coefficients normalized by coeff[top] = 1, top = basis[0].
    """
    top = basis[0]
    cols = {key: column(key) for key in basis}
    index = {key: i for i, key in enumerate(basis)}
    for key, col in cols.items():
        for other in col:
            if other not in index:
                raise ValueError(
                    f"operator image of {key} leaves the dominance span at {other}"
                )
    d_top = cols[top].get(top, Fraction(0))
    coeffs = {top: Fraction(1)}
    for key in basis[1:]:
        d_key = cols[key].get(key, Fraction(0))
        if d_key == d_top:
            raise DegenerateEigenvalues(
                f"weights {top} and {key} share the eigenvalue {d_top}"
            )
        acc = Fraction(0)
        for prev, cval in coeffs.items():
            entry = cols[prev].get(key)
            if entry:
                acc += entry * cval
        if acc:
            coeffs[key] = acc / (d_top - d_key)
    return coeffs
