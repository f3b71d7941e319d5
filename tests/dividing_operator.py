"""The cleared operator as it was built before it applied by Weyl
straightening: the reference the straightening operator is checked against.

DividingShiftOperator forms the orbit sum sum_w (L / w(L)) w(cof_0 g_0)
and divides it by every factor of the cleared denominator L in turn, where
qbc.algebra.ClearedShiftOperator reads the same image off the Weyl
character formula.  It divides through the algebra module global
exact_div, so a test that patches that global sees every division.  It is
the slow path kept beside the fast one: on every input the two give the
same polynomial, or both raise InexactDivision.
"""

import itertools
from fractions import Fraction
from operator import add, mul, ne
from typing import Sequence

from qbc import algebra
from qbc.algebra import (
    LaurentPoly,
    ParamPoint,
    _act,
    _binomial,
    _canonical,
    _integer_numerators,
    _lex_negative,
    _negative_part,
    _sign,
    _swap,
    OrbitPoly,
    rat,
    weyl_invariant,
)
from qbc.errors import DimensionMismatch, ParameterDegeneracy
from conftest import monomial_symmetric


def _places(num_vars: int, half: int) -> list:
    """The place values B^(n-1-i) of Kronecker's packing of the exponent
    lattice with radix B = 2 half + 1: the tuple e of n entries, each of
    absolute value at most half, is the key sum_i (e_i + half) B^(n-1-i).
    Every digit lies in [0, B), so a key decodes to exactly one tuple.  The
    packing is linear: so long as every tuple involved stays within half,
    the key of e + e' is the key of e plus sum_i e'_i B^(n-1-i)."""
    radix = 2 * half + 1
    return [radix ** (num_vars - 1 - i) for i in range(num_vars)]


def _unpack(num_vars: int, scale: int, half: int, terms: dict) -> LaurentPoly:
    """The polynomial whose terms are keyed by the packing at half, with its
    exponent tuples decoded, terms in the same order."""
    radix = 2 * half + 1
    out = {}
    for key, c in terms.items():
        e = [0] * num_vars
        for i in range(num_vars - 1, -1, -1):
            key, digit = divmod(key, radix)
            e[i] = digit - half
        out[tuple(e)] = c
    return LaurentPoly._raw(num_vars, out, scale)


def _linear_keys(columns: Sequence, weights: Sequence[int], base: int, size: int) -> list:
    """base + sum_i weights[i] e_i for each of size exponent tuples e,
    given as the columns of their entries (zip(*tuples)): formed a variable
    at a time, one pass over each column."""
    keys = [base] * size
    for w, column in zip(weights, columns):
        keys = [k + w * x for k, x in zip(keys, column)]
    return keys


def _binomial_product(num_vars: int, scale: int, shift: tuple, factors: Sequence) -> LaurentPoly:
    """x^shift times the product of factors, each the terms dict of a
    binomial with int coefficients, formed on packed keys and unpacked once.

    The entries of a product term are sums of one entry from each factor
    and from shift, so with half the largest absolute entry of shift plus,
    summed over the factors, each factor's largest absolute entry, every
    entry of every partial product is at most half in absolute value: each
    key decodes to exactly one tuple, and a sum of keys is the key of the
    sum of their tuples."""
    half = max(map(abs, shift)) + sum(max(map(abs, itertools.chain(*f))) for f in factors)
    places = _places(num_vars, half)
    prod = {sum(map(mul, shift, places)) + half * sum(places): 1}
    for factor in factors:
        (k0, c0), (k1, c1) = [(sum(map(mul, e, places)), c) for e, c in factor.items()]
        out = {key + k0: c * c0 for key, c in prod.items()}
        for key, c in prod.items():
            key += k1
            acc = out.get(key, 0) + c * c1
            if acc:
                out[key] = acc
            else:
                del out[key]
        prod = out
    return _unpack(num_vars, scale, half, prod)


def _span(g: LaurentPoly) -> int:
    """The number of variables a binomial g = a x^e1 + b x^e0 moves: the
    entries where e1 and e0 differ."""
    return sum(map(ne, *g.terms))


class DividingShiftOperator:
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
    stabilizer of x_1 in W: w takes x_1 to x_i^s (s = +1 or -1), and T_w is
    the shift x_i -> q^s x_i.  So D annihilates constants.  The sum is well
    defined only if A_0 is invariant under that stabilizer, the
    permutations and inversions of the other variables; the build checks
    this and raises ValueError otherwise.

    The build runs on ints and exponent tuples.  A factor 1 - u x^e with a
    lex-negative e is -u x^e (1 - (1/u) x^(-e)), so every factor is a
    monomial unit times the factor of its canonical record (u, e) with e
    lex-positive, and the image of a record under w is (u, w(e)).  Each
    canonical record stands for one primitive integer binomial
    B = |p| x^(e+) - sign(p) r x^(e-), for u = p/r and e = e+ - e- split into
    its positive and negative parts, and a factor 1 - u x^e is
    +-B / (r x^(e-)).  The least common denominator L is the product of the
    B's of the canonical records of the images' denominators, each to its
    largest multiplicity in one image.  W permutes these records (the build
    checks that too), and w(B) is +-x^(w(e-) - w(e)-) times the B of the
    image record, so L / w(L) is +-1 times a monomial.  With
    cof_0 = L A_0 and g_0 = T_0 f - f, an invariant f has
    w(g_0) = T_w f - f, and L w(A_0) w(g_0) = (L / w(L)) w(cof_0 g_0) gives
    the orbit identity

        scalar L D f = sum_w (L / w(L)) w(cof_0 g_0).

    An application forms the one product cof_0 g_0 and adds up its 2n
    relabelled images, where summing the terms explicitly needs 2n
    cofactors L w(A_0) and 2n products.  An image takes a term c x^e to
    +-c x^(w(e) + s_w), for x^(s_w) the monomial of L / w(L).  The product
    is taken once, and each of its terms keeps the first pair (a, b) of a
    cof_0 exponent and a g_0 exponent that reached it; since
    w(a + b) + s_w = (w(a) + s_w) + w(b), the image of the term under w is
    read off that pair's images, without relabelling the term itself.  The
    identity holds only for invariant input, so apply raises ValueError
    for any other.

    g_0 = T_0 f - f vanishes where q x_1 = 1/x_1, because f(1/x_1) = f(x_1)
    for invariant f.  So the pole factor 1 - q x_1^2 of A_0 divides g_0 (on
    the scale-2 lattice, with y the lattice variable x_1^(1/2), the factor
    is 1 - q^(1/2) y^2).  When the build finds the pole's record, up to a
    unit, among the denominators, it keeps one copy of it out of L and
    cof_0, and apply divides g_0 by its binomial before the product.  That
    one division of a polynomial of a few dozen terms spares L the pole's
    2n images, which every application would otherwise multiply in and
    divide back out.

    cof_0 is kept as one integer product: the numerators r - p x^e, the B's
    of L that the kept denominators lack, and the monomial of the
    denominators' units.  Each factor is primitive, so by Gauss's lemma the
    product is too, and the r's and signs of all the records and the scalar
    fold into one rational multiplier.  The build forms that product in
    one pass on packed keys (_binomial_product), at a half that bounds
    every partial product, and unpacks it once.  An application runs over
    Python ints from end to end: it forms g_0 over a common denominator,
    divides it by the pole, forms the int product and its orbit sum,
    divides that by the B's of L, and scales once per output term by that
    multiplier over g_0's denominator.  The product and the orbit sum are
    formed on exponent tuples packed into int keys (_places) and decoded
    once (_unpack); both divisions run on exponent tuples, through
    algebra.exact_div.

    The chain divides by the B's of L ordered by the number of variables
    each moves, the one-variable ones first: the n factors 1 - x_i^2 of
    the Koornwinder operator (on b2's doubled lattice, the short-root
    factors) come before the two-variable pair factors.  On the
    Koornwinder operators that keeps the chain's dividends smaller than
    the pair factors first, or the order in which the orbit meets the
    factors; on b2 it costs a few percent more dividend terms.  Exact
    division by a product does not depend on the order of its factors, so
    any order gives the same quotient, and InexactDivision exactly when
    no Laurent quotient exists.

    The radix of those keys is fixed before the product.  Let R be the
    largest absolute exponent entry of cof_0, plus that of g_0 after the
    pole, plus the largest absolute entry of any s_w.  A signed
    permutation keeps the largest absolute entry of a tuple, so every
    entry of every image term w(a) + s_w + w(b), and of every product term
    a + b (the identity's image), is at most R in absolute value.  With
    half at least R, every key the product and the orbit sum form
    therefore decodes to exactly one exponent tuple, and a sum of keys is
    the key of the sum of their tuples.  The operator keeps cof_0's keys,
    for the identity and for each image, at the largest half an
    application has asked for so far, and packs them again only when one
    asks for a larger half: a larger radix is always sound.

    After the one division of g_0, the orbit sum equals the explicit sum
    of the terms, each with its own pole absorbed, up to that constant, so
    the exact divisions by the factors of L that follow, in the same
    order, get the same inputs up to integer constants: the same supports,
    InexactDivision at the same step if the input was not in the
    operator's polynomial domain.
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
        self.scalar = rat(scalar)
        if self.scalar == 0:
            raise ParameterDegeneracy("operator scalar prefactor vanishes")
        n = num_vars
        numer = [(rat(u), tuple(e)) for u, e in numer_factors]
        denom = [(rat(u), tuple(e)) for u, e in denom_factors]
        for u, e in numer + denom:
            if len(e) != n:
                raise DimensionMismatch(f"exponent tuple {e} does not have {n} entries")
            if not u or not any(e):
                raise ValueError(f"factor 1 - ({u}) x^{e} is not a binomial")
        orbit = [_swap(n, 0, i, s) for i in range(n) for s in (1, -1)]
        # one copy of the pole's record divides g_0 and stays out of L
        kept = [_canonical(u, e) for u, e in denom]
        pole = _canonical(P.sqrt_q ** (2 // scale), (2,) + (0,) * (n - 1))
        self._pole = None
        if pole in kept:
            kept.remove(pole)
            self._pole = _binomial(pole, scale)
        lcd: dict = {}
        for perm, signs in orbit:
            counts: dict = {}
            for u, e in kept:
                key = _canonical(u, _act(e, perm, signs))
                counts[key] = counts.get(key, 0) + 1
                if lcd.get(key, 0) < counts[key]:
                    lcd[key] = counts[key]
        self._lcd = {key: (_binomial(key, scale), mult) for key, mult in lcd.items()}
        # the one-variable B's divide first (see the class docstring)
        self._divisors = sorted(
            (b for b, mult in self._lcd.values() for _ in range(mult)), key=_span
        )
        # cof_0 = L A_0 (times the absorbed pole's B): each numerator
        # 1 - u x^e is (r - p x^e) / r and each denominator s B / (r x^(e-))
        shift, multiplier = (0,) * n, Fraction(1)
        for u, e in denom:
            shift = tuple(map(add, shift, _negative_part(e)))
            multiplier *= _sign(u, e) * u.denominator
        factors = []
        for u, e in numer:
            multiplier /= u.denominator
            factors.append({(0,) * n: u.denominator, e: -u.numerator})
        for key, (binomial, mult) in self._lcd.items():
            factors += [binomial.terms] * (mult - kept.count(key))
        self._cof = _binomial_product(n, scale, shift, factors)
        self._unscale = multiplier / self.scalar
        self._images = [self._image(perm, signs) for perm, signs in orbit]
        others = list(range(1, n))
        stabilizer = [_swap(n, j, k, 1) for j, k in zip(others, others[1:])]
        if others:
            stabilizer.append(_swap(n, others[-1], others[-1], -1))
        terms = self._cof.terms
        for perm, signs in stabilizer:
            spec, unit = self._image(perm, signs)
            for e, c in terms.items():
                if terms.get(tuple([s * e[k] + u for k, s, u in spec])) != c * unit:
                    raise ValueError(
                        "generator coefficient is not invariant under permutations "
                        "and inversions of the other variables"
                    )
        # R of an application, less the reach of its g_0
        self._reach = max(map(abs, itertools.chain(*terms))) + max(
            abs(u) for spec, _ in self._images for _, _, u in spec
        )
        self._layout = None

    def _image(self, perm, signs):
        """The signed permutation w as a relabelling of exponents,
        ((source variable, sign, unit exponent) per variable, unit
        coefficient +-1), so that relabelling h with it gives (L / w(L)) w(h).
        For the B of a record (u, e) of L, w(B) is c x^(w(e-) - w(e)-) times
        the B of the canonical image record, with c = -1 when w(e) is
        lex-negative and u > 0, else 1."""
        coeff, shift = 1, (0,) * len(perm)
        for (u, e), (_, mult) in self._lcd.items():
            image = _act(e, perm, signs)
            if self._lcd.get(_canonical(u, image), (None, 0))[1] != mult:
                raise ValueError("denominators are not closed under signed permutations")
            if u > 0 and _lex_negative(image) and mult % 2:
                coeff = -coeff
            moved = _act(_negative_part(e), perm, signs)
            shift = tuple(
                s - mult * (x - y) for s, x, y in zip(shift, moved, _negative_part(image))
            )
        source = [None] * len(perm)
        for k, (p, s) in enumerate(zip(perm, signs)):
            source[p] = (k, s)
        return tuple((k, s, e) for (k, s), e in zip(source, shift)), coeff

    def _pack_cof(self, half: int):
        """Keep cof_0 packed at half: half, and per image w the place values
        that take an exponent b to the linear part of the key of w(b), the
        keys of w(a) + s_w for cof_0's exponents a in order, and w's unit.
        The first image is the identity's."""
        places = _places(self.num_vars, half)
        offset = half * sum(places)
        columns, size = list(zip(*self._cof.terms)), len(self._cof.terms)
        images = []
        for spec, unit in self._images:
            signed, base = [0] * self.num_vars, offset
            for place, (k, s, u) in zip(places, spec):
                signed[k] = s * place
                base += u * place
            images.append((signed, _linear_keys(columns, signed, base, size), unit))
        self._layout = half, images

    def _orbit_sum(self, g: LaurentPoly) -> LaurentPoly:
        """sum over the images w of (L / w(L)) w(cof_0 g), formed on keys
        packed at a half of at least the reach R of the class docstring and
        decoded once."""
        half = self._reach + max(map(abs, itertools.chain(*g.terms)))
        if self._layout is None or self._layout[0] < half:
            self._pack_cof(half)
        half, images = self._layout
        places, ids, _ = images[0]
        width = len(ids)
        # the product on identity keys, with the first pair behind each key
        # as the flat index j |cof_0| + i of cof_0's term i and g's term j
        prod: dict = {}
        first: dict = {}
        cofs = list(zip(itertools.count(), ids, self._cof.terms.values()))
        columns, size = list(zip(*g.terms)), len(g.terms)
        gkeys = _linear_keys(columns, places, 0, size)
        for j, (gkey, gc) in enumerate(zip(gkeys, g.terms.values())):
            row = j * width
            for i, ckey, cc in cofs:
                key = ckey + gkey
                acc = prod.get(key)
                if acc is None:
                    prod[key] = cc * gc
                    first[key] = row + i
                else:
                    acc += cc * gc
                    if acc:
                        prod[key] = acc
                    else:
                        del prod[key], first[key]
        plus, minus = [], []
        for signed, keys, unit in images:
            gkeys = _linear_keys(columns, signed, 0, size)
            (plus if unit == 1 else minus).append((keys, gkeys))
        out: dict = {}
        for key, c in prod.items():
            j, i = divmod(first[key], width)
            for cu, group in ((c, plus), (-c, minus)):
                for keys, gkeys in group:
                    k = keys[i] + gkeys[j]
                    acc = out.get(k, 0) + cu
                    if acc:
                        out[k] = acc
                    else:
                        del out[k]
        return _unpack(self.num_vars, self.scale, half, out)

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

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if not weyl_invariant(f):
            raise ValueError("operator input is not invariant under signed permutations")
        g, g_den = self._difference(f)
        if g.is_zero():
            return LaurentPoly.zero(f.num_vars, f.scale)
        if self._pole is not None:
            g = algebra.exact_div(g, self._pole)
        total = self._orbit_sum(g)
        if not total.terms:
            return LaurentPoly.zero(f.num_vars, f.scale)
        for divisor in self._divisors:
            total = algebra.exact_div(total, divisor)
        unscale = self._unscale / g_den
        return LaurentPoly._raw(
            f.num_vars, {e: c * unscale for e, c in total.terms.items()}, f.scale
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
            image = self.apply(monomial_symmetric(key, self.num_vars, self.scale))
            col = self._columns[key] = OrbitPoly.from_poly(image).terms
        return col
