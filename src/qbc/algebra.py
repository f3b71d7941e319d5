"""Exact scalar and Laurent-polynomial substrate.

Everything downstream works over arbitrary-precision rationals: scalars are
fractions.Fraction, polynomials are sparse dicts mapping integer exponent
vectors to nonzero Fractions.  Half-integer exponents (needed for weights of
the B2 lattice and for x^(-1/2) style prefactors) are handled by a lattice
scale: a LaurentPoly with scale=2 stores doubled exponents, so the tuple
(1, 0) on scale 2 means x1^(1/2).

Parameters that occur under square roots in formulas (q, t, T) are supplied
via their exact square roots so every half power stays rational.  The four
Askey-Wilson parameters are stored as plain signed rationals; the operator
normalization constant alpha = sqrt(abcd/q) is extracted exactly on demand
and it is an error if it is irrational at the supplied point.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    DegenerateEigenvalues,
    DimensionMismatch,
    InexactDivision,
    LengthError,
    MissingSquareRoot,
    ParameterDegeneracy,
)

Rat = Fraction


def rat(value, den=None) -> Fraction:
    """Coerce ints, strings like '3/4', or Fractions to an exact Fraction."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


def format_rational(x: Fraction) -> str:
    """Canonical text form p/q with the denominator always written."""
    return f"{x.numerator}/{x.denominator}"


# A check in a verification plan returns None for a pass, a mismatch dict for
# a fail, or SKIPPED when an earlier check left it nothing to compare.
SKIPPED = "skipped"


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
            v = getattr(self, name)
            if v is not None and v == 0:
                raise ParameterDegeneracy(f"parameter {name} must be nonzero")
        if self.sqrt_t is not None and self.sqrt_t == 0:
            raise ParameterDegeneracy("sqrt_t must be nonzero")
        if self.sqrt_T is not None and self.sqrt_T == 0:
            raise ParameterDegeneracy("sqrt_T must be nonzero")

    @property
    def q(self) -> Fraction:
        return self.sqrt_q * self.sqrt_q

    @property
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
        for name in ("a", "b", "c", "d"):
            if getattr(self, name) is None:
                raise ParameterDegeneracy(f"point has no {name} value")
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
        fields = {
            "sqrt_q": self.sqrt_q,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "sqrt_t": self.sqrt_t,
            "sqrt_T": self.sqrt_T,
            "s": self.s,
        }
        fields.update(kw)
        return ParamPoint(**fields)

    def canonical_key(self) -> str:
        """Deterministic filesystem-safe identifier for this point."""
        parts = []
        for name in ("a", "b", "c", "d", "sqrt_q", "sqrt_t", "sqrt_T", "s"):
            v = getattr(self, name)
            if v is None:
                continue
            txt = format_rational(v).replace("-", "m").replace("/", "d")
            parts.append(f"{name}{txt}")
        return "_".join(parts)

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


class LaurentPoly:
    """Sparse Laurent polynomial over Fraction with an exponent lattice scale.

    terms maps exponent tuples (length num_vars, ints) to nonzero Fractions.
    scale=1 means the tuple entries are the actual exponents; scale=2 means
    entries are doubled so half-integer exponents stay integral.  Instances
    are treated as immutable; operations return new objects.
    """

    __slots__ = ("num_vars", "scale", "terms", "_key")

    def __init__(self, num_vars: int, terms: Optional[Mapping] = None, scale: int = 1):
        if scale not in (1, 2):
            raise ValueError("lattice scale must be 1 or 2")
        self.num_vars = num_vars
        self.scale = scale
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = rat(coeff)
                if coeff == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != num_vars:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} does not have {num_vars} entries"
                    )
                clean[exps] = coeff
        self.terms = clean
        self._key = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, scale: int = 1) -> "LaurentPoly":
        return cls(num_vars, {}, scale)

    @classmethod
    def one(cls, num_vars: int, scale: int = 1) -> "LaurentPoly":
        return cls(num_vars, {(0,) * num_vars: Fraction(1)}, scale)

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1, scale: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): rat(coeff)}, scale)

    @classmethod
    def var(cls, i: int, num_vars: int, power: int = 1, scale: int = 1) -> "LaurentPoly":
        exps = [0] * num_vars
        exps[i] = power
        return cls.monomial(exps, 1, scale)

    # -- basic protocol --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_compatible(self, other: "LaurentPoly"):
        if self.num_vars != other.num_vars or self.scale != other.scale:
            raise DimensionMismatch(
                f"({self.num_vars} vars, scale {self.scale}) vs "
                f"({other.num_vars} vars, scale {other.scale})"
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return (
                self.num_vars == other.num_vars
                and self.scale == other.scale
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            other = rat(other)
            if other == 0:
                return self.is_zero()
            return self.terms == {(0,) * self.num_vars: other}
        return NotImplemented

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Hashable canonical form (num_vars, scale, sorted terms)."""
        if self._key is None:
            self._key = (
                self.num_vars,
                self.scale,
                tuple(sorted(self.terms.items())),
            )
        return self._key

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(
                self.num_vars, {(0,) * self.num_vars: rat(other)}, self.scale
            )
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
        res = LaurentPoly.__new__(LaurentPoly)
        res.num_vars, res.scale, res.terms, res._key = self.num_vars, self.scale, out, None
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.num_vars, res.scale = self.num_vars, self.scale
        res.terms = {e: -c for e, c in self.terms.items()}
        res._key = None
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-rat(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rat(other)
            if other == 0:
                return LaurentPoly.zero(self.num_vars, self.scale)
            res = LaurentPoly.__new__(LaurentPoly)
            res.num_vars, res.scale = self.num_vars, self.scale
            res.terms = {e: c * other for e, c in self.terms.items()}
            res._key = None
            return res
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
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
        res = LaurentPoly.__new__(LaurentPoly)
        res.num_vars, res.scale, res.terms, res._key = self.num_vars, self.scale, out, None
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are spelled with inverse monomials")
        result = LaurentPoly.one(self.num_vars, self.scale)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure queries ------------------------------------------------------

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant(self) -> Fraction:
        return self.coeff((0,) * self.num_vars)

    def exponent_box(self):
        """Per-variable (min, max) exponent over the support; None if zero."""
        if not self.terms:
            return None
        lo = [None] * self.num_vars
        hi = [None] * self.num_vars
        for exps in self.terms:
            for i, e in enumerate(exps):
                if lo[i] is None or e < lo[i]:
                    lo[i] = e
                if hi[i] is None or e > hi[i]:
                    hi[i] = e
        return tuple(lo), tuple(hi)

    def leading(self):
        """Lex-largest exponent tuple and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    # -- symmetry actions -------------------------------------------------------

    def act_signed(self, perm: Sequence[int], signs: Sequence[int]) -> "LaurentPoly":
        """Apply the signed permutation x_i -> x_{perm[i]}^{signs[i]}.

        perm is a permutation of range(num_vars); signs entries are +1 or -1.
        The new exponent of variable perm[i] is signs[i] times the old
        exponent of variable i.
        """
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.num_vars
            for i, e in enumerate(exps):
                new[perm[i]] = signs[i] * e
            out[tuple(new)] = coeff
        return LaurentPoly(self.num_vars, out, self.scale)

    def invert_var(self, i: int) -> "LaurentPoly":
        perm = list(range(self.num_vars))
        signs = [1] * self.num_vars
        signs[i] = -1
        return self.act_signed(perm, signs)

    # -- serialization ----------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "lattice_scale": self.scale,
            "terms": [
                {"exps": list(e), "coeff": format_rational(c)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LaurentPoly":
        terms = {tuple(t["exps"]): Fraction(t["coeff"]) for t in obj["terms"]}
        return cls(obj["num_vars"], terms, obj.get("lattice_scale", 1))

    def format_human(self, names: Optional[Sequence[str]] = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
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


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Divide f by g, insisting the quotient is a Laurent polynomial.

    Peels the lex-leading term of the remainder against the lex-leading term
    of g, finding that term with a heap instead of a scan, after Monagan and
    Pearce, "Sparse polynomial division using a heap" (J. Symbolic Comput.
    46, 2011).  The remainder is a dict from exponent to coefficient, and a
    min-heap of the negated exponents orders it.  An exponent is pushed once,
    when a step first creates it.  Each step pops the lex-largest exponent,
    emits one quotient term, and subtracts that term times the non-leading
    terms of g; the product with the leading term would only cancel the
    popped term, so it is never formed.

    A remainder term that cancels stays in the dict with coefficient zero,
    and its heap entry goes stale: the pop skips it.  If a later step
    creates the exponent again, the zero entry takes the new coefficient
    and the entry it already has in the heap is live again.  No exponent
    needs a second entry: every exponent a step creates is lex-smaller than
    the one just popped, so pops never increase and an exponent is never
    recreated once it has been popped.

    With q the quotient, a division pushes and pops at most
    |f| + |q| (|g| - 1) exponents, so it costs O(|q| |g|) coefficient products
    and O((|f| + |q| |g|) log(|f| + |q| |g|)) exponent comparisons.  Scanning
    the remainder for its leading term instead is quadratic in its size.

    Every per-variable degree of an exact quotient is pinned by the degrees
    of f and g, which bounds the emitted exponents to a finite box.  An
    emission outside that box raises InexactDivision.  The loop pops every
    remainder term, and each nonzero one is emitted, so an inexact division
    always ends in such an emission.
    """
    f._check_compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.num_vars, f.scale)
    f_lo, f_hi = f.exponent_box()
    g_lo, g_hi = g.exponent_box()
    box_lo = tuple(a - b for a, b in zip(f_lo, g_lo))
    box_hi = tuple(a - b for a, b in zip(f_hi, g_hi))
    if any(lo > hi for lo, hi in zip(box_lo, box_hi)):
        raise InexactDivision("degree box is empty")
    g_lead_e, g_lead_c = g.leading()
    g_rest = [(ge, gc) for ge, gc in g.terms.items() if ge != g_lead_e]
    rem = dict(f.terms)
    heap = [tuple(map(neg, e)) for e in rem]
    heapq.heapify(heap)
    quo: dict = {}
    while heap:
        r_lead = tuple(map(neg, heapq.heappop(heap)))
        c = rem.pop(r_lead)
        if not c:
            continue
        qe = tuple(map(sub, r_lead, g_lead_e))
        if any(e < lo or e > hi for e, lo, hi in zip(qe, box_lo, box_hi)):
            raise InexactDivision("remainder is not divisible")
        qc = c / g_lead_c
        quo[qe] = qc
        for ge, gc in g_rest:
            e = tuple(map(add, qe, ge))
            acc = rem.get(e)
            if acc is None:
                rem[e] = -qc * gc
                heapq.heappush(heap, tuple(map(neg, e)))
            else:
                rem[e] = acc - qc * gc
    out = LaurentPoly.__new__(LaurentPoly)
    out.num_vars, out.scale, out.terms, out._key = f.num_vars, f.scale, quo, None
    return out


def qshift(f: LaurentPoly, i: int, k, P: ParamPoint) -> LaurentPoly:
    """Apply x_i -> q^k x_i: each term picks up q^(k * exponent of x_i).

    k may be a half-integer; the combined power of sqrt_q must land on an
    integer for every term of f, otherwise the shift does not stay inside the
    exact lattice and a ValueError is raised.
    """
    k = rat(k)
    sq = P.sqrt_q
    out = {}
    for exps, coeff in f.terms.items():
        power = 2 * k * exps[i] / f.scale
        if power.denominator != 1:
            raise ValueError(
                f"shift by q^{k} on exponent {exps[i]}/{f.scale} leaves the lattice"
            )
        out[exps] = coeff * sq ** int(power)
    return LaurentPoly(f.num_vars, out, f.scale)


# -- partitions and dominance -------------------------------------------------


class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros cut."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError("partition parts must be nonnegative")
            if i and parts[i - 1] < p:
                raise ValueError("partition parts must weakly decrease")
        self.parts = parts

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            while other and other[-1] == 0:
                other = other[:-1]
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def padded(self, n: int) -> tuple:
        if len(self.parts) > n:
            raise LengthError(f"partition {self.parts} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))

    def partial_sums(self, n: int) -> tuple:
        out, acc = [], 0
        for p in self.padded(n):
            acc += p
            out.append(acc)
        return tuple(out)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Partial-sum dominance after padding to a common length.

    For hyperoctahedral weight orbits this is exactly the condition for the
    dominant weight mu to lie in the convex hull of the orbit of lam, so it
    also orders partitions of different weights.
    """
    n = max(len(mu), len(lam), 1)
    return all(a <= b for a, b in zip(mu.partial_sums(n), lam.partial_sums(n)))


def _weakly_decreasing(maxpart: int, maxlen: int, maxweight: int):
    """Yield all weakly decreasing nonnegative tuples within the bounds."""

    def rec(prefix, last, budget, slots):
        yield tuple(prefix)
        if not slots or budget == 0:
            return
        for p in range(min(last, budget), 0, -1):
            prefix.append(p)
            yield from rec(prefix, p, budget - p, slots - 1)
            prefix.pop()

    yield from rec([], maxpart, maxweight, maxlen)


def dominated_partitions(lam: Partition, n: int) -> list:
    """All partitions mu with at most n parts and mu <= lam in dominance,
    sorted so the largest (lam itself) comes first.

    The sort key is the padded partial-sum tuple, descending; any strict
    dominance relation strictly orders the keys, so this is a linear
    extension of dominance.
    """
    if len(lam) > n:
        raise LengthError(f"partition {lam.parts} needs more than {n} variables")
    found = []
    for parts in _weakly_decreasing(lam[0] if len(lam) else 0, n, lam.weight):
        mu = Partition(parts)
        if dominance_leq(mu, lam):
            found.append(mu)
    found.sort(key=lambda m: m.partial_sums(n), reverse=True)
    return found


# -- hyperoctahedral orbits ---------------------------------------------------


def signed_orbit(entries: Sequence[int]):
    """Distinct images of an exponent tuple under permutations and sign flips."""
    seen = set()
    for perm in set(itertools.permutations(entries)):
        nonzero = [i for i, e in enumerate(perm) if e != 0]
        for flips in itertools.product((1, -1), repeat=len(nonzero)):
            image = list(perm)
            for idx, sgn in zip(nonzero, flips):
                image[idx] = sgn * image[idx]
            seen.add(tuple(image))
    return seen


def monomial_symmetric(entries: Sequence[int], n: int, scale: int = 1) -> LaurentPoly:
    """Orbit sum m_lambda = sum of x^mu over the signed-permutation orbit.

    entries are lattice exponents (already doubled when scale=2) and are
    padded with zeros to n variables.
    """
    entries = tuple(int(e) for e in entries)
    if len(entries) > n:
        raise LengthError(f"{entries} has more than {n} entries")
    entries = entries + (0,) * (n - len(entries))
    return LaurentPoly(n, {e: 1 for e in signed_orbit(entries)}, scale)


def weyl_invariant(f: LaurentPoly) -> bool:
    """True when f is invariant under permutations and inversions x_i -> 1/x_i.

    Checking the standard generators (adjacent transpositions plus one sign
    flip) suffices because they generate the whole hyperoctahedral group.
    """
    n = f.num_vars
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if f.act_signed(perm, [1] * n) != f:
            return False
    if f.invert_var(n - 1) != f:
        return False
    return True


def decompose_symmetric(f: LaurentPoly) -> dict:
    """Write an invariant Laurent polynomial in the monomial-orbit basis.

    Returns a dict mapping dominant exponent tuples (weakly decreasing,
    nonnegative, zero-padded) to coefficients.  Completeness is verified by
    rebuilding the orbit sums, so a non-invariant input raises.
    """
    out = {}
    for exps, coeff in f.terms.items():
        dominant = tuple(sorted((abs(e) for e in exps), reverse=True))
        if dominant == exps:
            out[dominant] = coeff
    rebuilt = LaurentPoly.zero(f.num_vars, f.scale)
    for dominant, coeff in out.items():
        rebuilt = rebuilt + coeff * monomial_symmetric(dominant, f.num_vars, f.scale)
    if rebuilt != f:
        raise ValueError("polynomial is not invariant under the signed-permutation group")
    return out


# -- cleared-denominator difference operators ----------------------------------


def _unit_normalize(p: LaurentPoly):
    """Split p into unit * canonical where unit is coeff * monomial.

    The canonical factor has all per-variable minimum exponents zero and its
    lex-leading coefficient equal to one, so factors that differ by a
    monomial unit (such as 1 - x^2 and 1 - x^-2) share one canonical key.
    """
    lo, _ = p.exponent_box()
    shift = tuple(-e for e in lo)
    shifted = {
        tuple(x + y for x, y in zip(exps, shift)): c for exps, c in p.terms.items()
    }
    lead = max(shifted)
    lc = shifted[lead]
    canon = LaurentPoly(p.num_vars, {e: c / lc for e, c in shifted.items()}, p.scale)
    return canon, lc, lo


@dataclass(frozen=True)
class ShiftTerm:
    """One summand coeff(x) * T or coeff(x) * (T - 1) of a difference operator.

    numer_factors and denom_factors are Laurent-polynomial factor lists; var
    and step describe the shift x_var -> q^step x_var.  subtract_identity
    selects the (T - 1) form.
    """

    numer_factors: tuple
    denom_factors: tuple
    var: int
    step: int
    subtract_identity: bool = True


def _swap(n: int, var: int, i: int, sign: int):
    """act_signed arguments for x_var -> x_i^sign, x_i -> x_var."""
    perm = list(range(n))
    perm[var], perm[i] = i, var
    signs = [1] * n
    signs[var] = sign
    return perm, signs


class ClearedShiftOperator:
    """A q-difference operator summed over the signed-permutation group W.

    The generator is one term A_0(x) (T_0 - 1), or A_0(x) T_0 when its
    subtract_identity is false, where T_0 is the shift x_v -> q^step x_v.
    The operator is

        D f = (1/scalar) sum_w w(A_0) (T_w f - f)

    (T_w f in the second case), summed over one representative w of each
    of the 2n cosets of the stabilizer of x_v in W: w takes x_v to x_i^s
    (s = +1 or -1), and T_w is the shift x_i -> q^(s step) x_i.  The sum is
    well defined only if A_0 is invariant under that stabilizer, the
    permutations and inversions of the other variables; the build checks
    this and raises ValueError otherwise.

    The least common denominator L is assembled from the unit-normalized
    factors of the images' denominators, each to its largest multiplicity
    in one image.  W permutes these factors up to monomial units (the build
    checks that too), so L / w(L) = c_w x^(e_w), read off the normalized
    image of each factor.  With cof_0 = L A_0 and g_0 = T_0 f - f (or
    T_0 f), an invariant f has w(g_0) = T_w f - f (or T_w f), and
    L w(A_0) w(g_0) = (L / w(L)) w(cof_0 g_0) gives the orbit identity

        scalar L D f = sum_w (L / w(L)) w(cof_0 g_0).

    An application forms the one product cof_0 g_0 and adds up its 2n
    relabelled images in one pass, where summing the terms explicitly
    needs 2n cofactors L w(A_0) and 2n products.  The two sums are the same
    polynomial, term for term, so the exact divisions by the factors of L
    that follow, in the same order, get the same inputs: InexactDivision if
    the input was not in the operator's polynomial domain.  The identity
    holds only for invariant input, so apply raises ValueError for any
    other.
    """

    def __init__(
        self, P: ParamPoint, num_vars: int, generator: ShiftTerm, scalar=1, scale: int = 1
    ):
        self.P = P
        self.generator = generator
        self.scalar = rat(scalar)
        if self.scalar == 0:
            raise ParameterDegeneracy("operator scalar prefactor vanishes")
        n, v = num_vars, generator.var
        orbit = [_swap(n, v, i, s) for i in range(n) for s in (1, -1)]
        lcd: dict = {}
        for perm, signs in orbit:
            counts: dict = {}
            for factor in generator.denom_factors:
                canon, _, _ = _unit_normalize(factor.act_signed(perm, signs))
                key = canon.key()
                counts[key] = counts.get(key, 0) + 1
                if key not in lcd or lcd[key][1] < counts[key]:
                    lcd[key] = (canon, counts[key])
        self._lcd = lcd
        # cof_0 = L A_0: the numerator times the factors of L that the
        # generator's denominator lacks, over that denominator's unit
        cof = LaurentPoly.one(n, scale)
        for f in generator.numer_factors:
            cof = cof * f
        counts = {}
        unit_coeff, unit_shift = Fraction(1), (0,) * n
        for factor in generator.denom_factors:
            canon, lc, lo = _unit_normalize(factor)
            counts[canon.key()] = counts.get(canon.key(), 0) + 1
            unit_coeff *= lc
            unit_shift = tuple(map(add, unit_shift, lo))
        for key, (canon, mult) in lcd.items():
            for _ in range(mult - counts.get(key, 0)):
                cof = cof * canon
        self._cof = cof * LaurentPoly.monomial(
            tuple(map(neg, unit_shift)), 1 / unit_coeff, scale
        )
        self._images = [self._image(perm, signs) for perm, signs in orbit]
        others = [k for k in range(n) if k != v]
        stabilizer = [_swap(n, j, k, 1) for j, k in zip(others, others[1:])]
        if others:
            stabilizer.append(_swap(n, others[-1], others[-1], -1))
        for perm, signs in stabilizer:
            if self._fold(self._cof, [self._image(perm, signs)]) != self._cof:
                raise ValueError(
                    "generator coefficient is not invariant under permutations "
                    "and inversions of the other variables"
                )

    def _image(self, perm, signs):
        """The signed permutation w as a relabelling of exponents,
        ((source variable, sign, unit exponent) per variable, unit
        coefficient), so that folding h with it gives (L / w(L)) w(h)."""
        coeff, shift = Fraction(1), (0,) * len(perm)
        for canon, mult in self._lcd.values():
            image, lc, lo = _unit_normalize(canon.act_signed(perm, signs))
            if self._lcd.get(image.key(), (None, 0))[1] != mult:
                raise ValueError("denominators are not closed under signed permutations")
            coeff *= lc**mult
            shift = tuple(e - mult * x for e, x in zip(shift, lo))
        source = [None] * len(perm)
        for k, (p, s) in enumerate(zip(perm, signs)):
            source[p] = (k, s)
        return tuple((k, s, e) for (k, s), e in zip(source, shift)), 1 / coeff

    def _fold(self, h: LaurentPoly, images) -> LaurentPoly:
        """sum over images of (L / w(L)) w(h), in one pass over h's terms."""
        by_unit: dict = {}
        for spec, unit in images:
            by_unit.setdefault(unit, []).append(spec)
        groups = list(by_unit.items())
        out: dict = {}
        for exps, c in h.terms.items():
            for unit, specs in groups:
                cu = c * unit
                for spec in specs:
                    e = tuple([s * exps[k] + u for k, s, u in spec])
                    acc = out.get(e)
                    out[e] = cu if acc is None else acc + cu
        res = LaurentPoly.__new__(LaurentPoly)
        res.num_vars, res.scale, res._key = h.num_vars, h.scale, None
        res.terms = {e: c for e, c in out.items() if c}
        return res

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if not weyl_invariant(f):
            raise ValueError("operator input is not invariant under signed permutations")
        gen = self.generator
        g = qshift(f, gen.var, gen.step, self.P)
        if gen.subtract_identity:
            g = g - f
        if g.is_zero():
            return LaurentPoly.zero(f.num_vars, f.scale)
        total = self._fold(self._cof * g, self._images)
        if total.is_zero():
            return total
        for canon, mult in self._lcd.values():
            for _ in range(mult):
                total = exact_div(total, canon)
        if self.scalar != 1:
            total = total * (1 / self.scalar)
        return total


# -- triangular eigenproblems ---------------------------------------------------


def solve_triangular_eigenproblem(
    basis: Sequence,
    column: Callable,
    top,
) -> dict:
    """Back-substitute the one-dimensional eigenvector of a triangular matrix.

    basis lists keys with the top weight first, in some linear extension of
    the order that makes the operator triangular.  column(key) returns the
    expansion of the operator applied to the basis element as a dict over
    basis keys; its diagonal entry is the eigenvalue of that key.  Returns
    coefficients normalized by coeff[top] = 1.
    """
    if not basis or basis[0] != top:
        raise ValueError("basis must start with the top weight")
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
