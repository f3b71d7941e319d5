"""Rank-two layer: operator, eigenvalues, triangular oracle, the explicit
fivefold series, and its collapsed forms."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import qbc.b2
from qbc.algebra import (
    ClearedShiftOperator,
    LaurentPoly,
    OrbitPoly,
    ParamPoint,
    weyl_invariant,
)
from qbc.b2 import (
    B2Weight,
    _b2_operator,
    _default_bound,
    _dominant_below,
    _JetRing,
    _RationalRing,
    _series_terms,
    b2_apply,
    b2_character_polytope,
    b2_character_series,
    b2_conjecture_check,
    b2_eigenvalue,
    b2_oracle,
    b2_row_threefold,
    f_b2_poly,
)
from qbc.cli import main
from qbc.errors import DimensionMismatch, NonTerminating, ParameterDegeneracy, QbcError
from qbc.koornwinder import CACHE_ENV
from qbc.suites import _plan, _run, default_config, run_suite
from conftest import monomial, monomial_symmetric, poly_key
import b2_reference
from b2_reference import _Pair

# t, t^2, T, tT, t^2T must stay off integer powers of q, or a denominator
# ladder pins to 1 at a live index.  Both points were picked for that.
B2P1 = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3), sqrt_T=F(1, 5))
B2P2 = ParamPoint(sqrt_q=F(1, 3), sqrt_t=F(1, 2), sqrt_T=F(1, 5))
CHAR_POINT = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 2), sqrt_T=F(1, 2))

ONE = monomial((0, 0), scale=2)


def eval_doubled(f, u1, u2):
    """Evaluate at x_i = u_i^2, so half-integer lattice points stay exact."""
    total = F(0)
    for (e1, e2), c in f.terms.items():
        total += c * u1 ** e1 * u2 ** e2
    return total


def s_values(w, P):
    """The spectral parameters (s1, s2) = (t T^(1/2) q^(l1), T^(1/2) q^(l2))
    that the weight w = (l1, l2) pins down."""
    d1, d2 = w.doubled
    return P.t * P.sqrt_T * P.sqrt_q ** d1, P.sqrt_T * P.sqrt_q ** d2


class TestB2Weight:
    def test_doubled_coordinates(self):
        w = B2Weight(2, 3)
        assert w.doubled == (7, 3)
        assert w.total == 5

    def test_invalid_weights_raise(self):
        with pytest.raises(ValueError):
            B2Weight(-1, 0)

    def test_spectral_values(self):
        s1, s2 = s_values(B2Weight(1, 1), B2P1)
        t, sT, sq = B2P1.t, B2P1.sqrt_T, B2P1.sqrt_q
        assert s1 == t * sT * sq ** 3
        assert s2 == sT * sq


class TestOperator:
    def test_constant_is_eigenfunction(self):
        # every term is coeff (T - 1), so a constant has eigenvalue 0
        assert b2_apply(ONE, B2P1).is_zero()

    def test_matches_direct_substitution(self):
        # literal four-term (T - 1) action evaluated pointwise, denominators
        # uncleared
        P = B2P2
        f = monomial_symmetric((2, 0), 2, 2) + monomial_symmetric((1, 1), 2, 2) * 3
        u1, u2 = F(2, 3), F(3, 7)
        x1, x2 = u1 * u1, u2 * u2
        t, T, sq = P.t, P.T, P.sqrt_q

        def coeff(y1, y2, y3):
            return ((1 - t * y1) / (1 - y1)) * ((1 - t * y2) / (1 - y2)) * (
                (1 - T * y3) / (1 - y3)
            )

        here = eval_doubled(f, u1, u2)
        direct = (
            coeff(x1 / x2, x1 * x2, x1) * (eval_doubled(f, sq * u1, u2) - here)
            + coeff(x2 / x1, x1 * x2, x2) * (eval_doubled(f, u1, sq * u2) - here)
            + coeff(1 / (x1 * x2), x2 / x1, 1 / x1) * (eval_doubled(f, u1 / sq, u2) - here)
            + coeff(1 / (x1 * x2), x1 / x2, 1 / x2) * (eval_doubled(f, u1, u2 / sq) - here)
        )
        assert eval_doubled(b2_apply(f, P), u1, u2) == direct

    def test_preserves_invariance(self):
        img = b2_apply(monomial_symmetric((2, 0), 2, 2), B2P1)
        assert weyl_invariant(img)

    def test_triangular_on_orbit_sums(self):
        img = b2_apply(monomial_symmetric((3, 1), 2, 2), B2P1)
        assert set(OrbitPoly.from_poly(img).terms) <= {(3, 1), (1, 1)}

    def test_rejects_unit_lattice_input(self):
        with pytest.raises(DimensionMismatch):
            b2_apply(monomial((0, 0)), B2P1)


def e_zero(P):
    """t^2 T + t T + t + 1: the eigenvalue at the zero weight of the
    operator before its (T - 1) form subtracts it."""
    t, T = P.t, P.T
    return t * t * T + t * T + t + 1


class TestEigenvalue:
    def test_zero_weight(self):
        assert b2_eigenvalue(B2Weight(0, 0), B2P1) == 0

    def test_first_fundamental(self):
        t, T, q = B2P1.t, B2P1.T, B2P1.q
        expected = t * t * T * q + t * T + t + 1 / q - e_zero(B2P1)
        assert b2_eigenvalue(B2Weight(1, 0), B2P1) == expected

    def test_epsilon_display_agrees(self):
        # t^2 T q^(3/2) + t T q^(1/2) + t q^(-1/2) + q^(-3/2), less E(0)
        t, T, sq = B2P1.t, B2P1.T, B2P1.sqrt_q
        expected = t * t * T * sq ** 3 + t * T * sq + t / sq + 1 / sq ** 3 - e_zero(B2P1)
        assert b2_eigenvalue(B2Weight(1, 1), B2P1) == expected

    @pytest.mark.parametrize("r1,r2", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)])
    def test_spectral_form(self, r1, r2):
        w = B2Weight(r1, r2)
        s1, s2 = s_values(w, B2P2)
        t, sT = B2P2.t, B2P2.sqrt_T
        expected = t * sT * (s1 + s2 + 1 / s1 + 1 / s2) - e_zero(B2P2)
        assert b2_eigenvalue(w, B2P2) == expected

    @pytest.mark.parametrize("P", [B2P1, B2P2])
    def test_distinct_through_degree_four(self, P):
        seen = set()
        for total in range(5):
            for r1 in range(total + 1):
                seen.add(b2_eigenvalue(B2Weight(r1, total - r1), P))
        assert len(seen) == 15


class TestOracle:
    def test_zero_weight_is_one(self):
        assert b2_oracle(B2Weight(0, 0), B2P1) == ONE

    def test_second_fundamental_is_bare_orbit(self):
        # nothing lies below the spinor weight, so no correction terms
        assert b2_oracle(B2Weight(0, 1), B2P1) == monomial_symmetric((1, 1), 2, 2)

    def test_monic_leading_term(self):
        poly = b2_oracle(B2Weight(2, 1), B2P1)
        assert poly.terms[(5, 1)] == 1

    @pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1)])
    def test_difference_equation(self, r1, r2):
        w = B2Weight(r1, r2)
        poly = b2_oracle(w, B2P1)
        assert b2_apply(poly, B2P1) == poly * b2_eigenvalue(w, B2P1)


    def test_weights_share_operator_columns(self, monkeypatch):
        # the bases of the weights with r1 + r2 <= 3 nest, so their ten
        # solves apply the operator once per distinct dominant weight, not
        # once per column; the operator keeps the columns, so a fresh one
        # starts with none
        P = default_config().points("b2")[0].point
        applied = []
        real_apply = ClearedShiftOperator.apply

        def spy(op, f):
            applied.append(poly_key(f))
            return real_apply(op, f)

        _b2_operator.cache_clear()
        monkeypatch.setattr(ClearedShiftOperator, "apply", spy)
        weights = [B2Weight(r1, total - r1) for total in range(4) for r1 in range(total + 1)]
        for w in weights:
            b2_oracle(w, P)
        assert sum(len(_dominant_below(w)) for w in weights) == 31
        assert len(applied) == len(set(applied)) == len(weights) == 10


class TestExplicitSeries:
    def test_zero_weight_is_one(self):
        assert f_b2_poly(B2Weight(0, 0), B2P1) == ONE

    def test_second_fundamental(self):
        assert f_b2_poly(B2Weight(0, 1), B2P1) == monomial_symmetric((1, 1), 2, 2)

    @pytest.mark.parametrize("P", [B2P1, B2P2])
    @pytest.mark.parametrize(
        "r1,r2",
        [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)],
    )
    def test_matches_oracle(self, P, r1, r2):
        w = B2Weight(r1, r2)
        assert f_b2_poly(w, P) == b2_oracle(w, P)

    @pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1), (0, 3)])
    def test_invariant_under_signed_permutations(self, r1, r2):
        assert weyl_invariant(f_b2_poly(B2Weight(r1, r2), B2P1))

    def test_degenerate_point_raises(self):
        # t = q drives a live ladder denominator through zero
        bad = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 2), sqrt_T=F(1, 5))
        with pytest.raises(ParameterDegeneracy):
            f_b2_poly(B2Weight(0, 2), bad)

    def test_pinned_product_raises(self):
        # tT = q pins the series prefactor denominator
        bad = ParamPoint(sqrt_q=F(1, 3), sqrt_t=F(1, 2), sqrt_T=F(2, 3))
        with pytest.raises(ParameterDegeneracy):
            f_b2_poly(B2Weight(0, 0), bad)

    def test_tiny_scan_bound_raises(self):
        with pytest.raises(NonTerminating):
            _series_terms(B2Weight(2, 2), B2P1, _RationalRing(B2P1.q, B2P1.t), 1)


class TestSingleRowCollapse:
    def test_row_zero_is_one(self):
        assert b2_row_threefold(0, B2P1) == ONE

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_matches_oracle(self, r):
        assert b2_row_threefold(r, B2P1) == b2_oracle(B2Weight(r, 0), B2P1)

    @pytest.mark.parametrize("P", [B2P1, B2P2])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_full_series(self, P, r):
        assert b2_row_threefold(r, P) == f_b2_poly(B2Weight(r, 0), P)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            b2_row_threefold(-1, B2P1)


class TestCharacterCollapse:
    def test_polytope_zero_weight(self):
        assert b2_character_polytope(0, 0) == ONE

    def test_polytope_sizes_are_classical_dimensions(self):
        # product formula over the four positive roots
        dims = {(0, 0): 1, (1, 0): 5, (0, 1): 4, (2, 0): 14, (1, 1): 16, (0, 2): 10}
        for (r1, r2), dim in dims.items():
            poly = b2_character_polytope(r1, r2)
            assert sum(poly.terms.values()) == dim

    def test_polytope_is_invariant(self):
        assert weyl_invariant(b2_character_polytope(2, 1))

    @pytest.mark.parametrize(
        "r1,r2", [(r1, total - r1) for total in range(5) for r1 in range(total + 1)]
    )
    def test_series_limit_matches_polytope(self, r1, r2):
        w = B2Weight(r1, r2)
        assert b2_character_series(w, CHAR_POINT) == b2_character_polytope(r1, r2)

    @pytest.mark.parametrize("s", [F(1, 2), F(1, 3), F(2, 3)])
    def test_series_limit_matches_polytope_past_the_suite(self, s):
        # the b2-character suite stops at total weight 2, and the test
        # above at 4 at one point
        P = ParamPoint(sqrt_q=s, sqrt_t=s, sqrt_T=s)
        for total in range(3, 7):
            for r1 in range(total + 1):
                w = B2Weight(r1, total - r1)
                assert b2_character_series(w, P) == b2_character_polytope(r1, total - r1), w

    def test_needs_collapsed_point(self):
        with pytest.raises(ParameterDegeneracy):
            b2_character_series(B2Weight(1, 0), B2P1)


class _ReferenceJet:
    """The truncated Laurent series c[0] v^off + c[1] v^(off+1) + ... the
    collapsed series was first computed in, kept as the reference for the
    leading-term ring.  prec is the absolute exponent where knowledge
    stops; None marks the exact zero series."""

    def __init__(self, off, coeffs, prec):
        while coeffs and coeffs[0] == 0:
            off += 1
            coeffs = coeffs[1:]
        if not coeffs:
            off = 0
        self.off = off
        self.coeffs = tuple(coeffs)
        self.prec = prec

    def is_exact_zero(self):
        return not self.coeffs and self.prec is None

    def __mul__(self, other):
        if self.is_exact_zero() or other.is_exact_zero():
            return _REFERENCE_ZERO
        if not self.coeffs or not other.coeffs:
            raise ParameterDegeneracy("series precision exhausted in a product")
        off = self.off + other.off
        length = min(len(self.coeffs), len(other.coeffs))
        out = [F(0)] * length
        for i, a in enumerate(self.coeffs[:length]):
            for j, b in enumerate(other.coeffs[: length - i]):
                out[i + j] += a * b
        return _ReferenceJet(off, out, off + length)

    def __truediv__(self, other):
        if not other.coeffs:
            raise ParameterDegeneracy("division by a vanishing series")
        c0, length = other.coeffs[0], len(other.coeffs)
        inv = [1 / c0] + [F(0)] * (length - 1)
        for k in range(1, length):
            inv[k] = -sum(other.coeffs[j] * inv[k - j] for j in range(1, k + 1)) / c0
        return self * _ReferenceJet(-other.off, inv, length - other.off)

    def __add__(self, other):
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        off = min(self.off, other.off)
        prec = min(self.prec, other.prec)
        out = [F(0)] * (prec - off)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                if 0 <= src.off + i - off < len(out):
                    out[src.off + i - off] += c
        return _ReferenceJet(off, out, prec)

    def value(self):
        if not self.coeffs:
            if self.prec is not None and self.prec < 1:
                raise ParameterDegeneracy("series precision exhausted at evaluation")
            return F(0)
        if self.off < 0:
            raise ParameterDegeneracy("coefficient diverges at the collapsed parameter point")
        return self.coeffs[0] if self.off == 0 else F(0)


_REFERENCE_ZERO = _ReferenceJet(0, (), None)


class _ReferenceJetScalars:
    """The reference ring: 48 binomial coefficients of (tv (1 + v))^p per
    factor."""

    zero_is_identical = True
    PREC = 48

    def __init__(self, tv):
        self.tv = tv
        self.one = _ReferenceJet(0, (F(1),), self.PREC)
        self.zero = _REFERENCE_ZERO

    def _tpow(self, p):
        coeffs, binom = [self.tv ** p], F(1)
        for i in range(1, self.PREC):
            binom = binom * F(p - i + 1, i)
            coeffs.append(self.tv ** p * binom)
        return coeffs

    def unit(self, gamma, p):
        gamma = F(gamma.num, gamma.den)
        return _ReferenceJet(0, [gamma * c for c in self._tpow(p)], self.PREC)

    def factor(self, gamma, p):
        gamma = F(gamma.num, gamma.den)
        if p == 0:
            return _REFERENCE_ZERO if gamma == 1 else _ReferenceJet(0, (1 - gamma,), self.PREC)
        coeffs = [-gamma * c for c in self._tpow(p)]
        coeffs[0] += 1
        return _ReferenceJet(0, coeffs, self.PREC)

    def dead(self, x):
        return x.is_exact_zero()

    def ratio(self, x, num, den):
        return x * num / den

    def accumulate(self, out, exps, x):
        out[exps] = out.get(exps, self.zero) + x

    def finish(self, out):
        return out

    def finalize(self, x):
        return x.value()


class _ReferenceRationalScalars:
    """The Fraction ring the plain series was first computed in, kept as the
    reference for the integer-pair ring: every value is a reduced Fraction
    and each gamma is turned into one on arrival."""

    zero_is_identical = False
    one = F(1)
    zero = F(0)

    def __init__(self, t):
        self.t = t

    def unit(self, gamma, p):
        return F(gamma.num, gamma.den) * self.t ** p

    def factor(self, gamma, p):
        return 1 - self.unit(gamma, p)

    def dead(self, x):
        return x == 0

    def ratio(self, x, num, den):
        return x * num / den

    def accumulate(self, out, exps, x):
        out[exps] = out.get(exps, self.zero) + x

    def finish(self, out):
        return out


def _outcome(series, ring, w, P, bound=None):
    """The nonzero coefficients series sums on ring, as Fractions, or the
    class and message of the QbcError it raised.  A ring of the object
    protocol hands back its values unfinalized; they are finalized here in
    the order the series first reached them, as the jet ring's finish
    does."""
    if bound is None:
        bound = _default_bound(w)
    try:
        terms = series(w, P, ring, bound)
        if hasattr(ring, "finalize"):
            terms = {exps: ring.finalize(x) for exps, x in terms.items()}
    except QbcError as exc:
        return type(exc), str(exc)
    return {exps: c for exps, c in terms.items() if c}


def _shipped(Ring, P):
    """A shipped ring at P: its powers of q and of t."""
    return Ring(P.q, P.t)


_SMALL = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 4))
_SIGN = st.sampled_from([F(1), F(-1)])


@st.composite
def _points(draw, collapse=True):
    """A point, collapsed (q = t = T, the square roots up to sign) about
    half the time unless collapse is False.  Off the collapse sqrt_t and
    sqrt_T are signed powers of sqrt q or small rationals times them, so
    that factors pin to 0 and denominators vanish at live indices."""
    sq = draw(_SMALL.filter(lambda x: abs(x) != 1))

    def coordinate():
        scale = draw(_SIGN | _SMALL)
        return scale * sq ** draw(st.integers(-2, 2))

    if collapse and draw(st.booleans()):
        st_, sT = sq * draw(_SIGN), sq * draw(_SIGN)
    else:
        st_, sT = coordinate(), coordinate()
    return ParamPoint(sqrt_q=sq, sqrt_t=st_, sqrt_T=sT)


@st.composite
def _series_inputs(draw, collapse=True):
    """A drawn point and a weight of total at most 3."""
    total = draw(st.integers(0, 3))
    r1 = draw(st.integers(0, total))
    return draw(_points(collapse)), B2Weight(r1, total - r1)


RINGS = [b2_reference._JetScalars, _ReferenceJetScalars]


class TestLeadingTermRing:
    """The collapsed series keeps one leading coefficient per value; it must
    give what the 48-term truncated ring gave, values and errors alike.  The
    object tests run on both reference rings, which the shipped jet ring's
    series is held to."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_series_inputs())
    def test_series_matches_truncated_reference(self, drawn):
        P, w = drawn
        assert _outcome(_series_terms, _shipped(_JetRing, P), w, P) == _outcome(
            b2_reference._series_terms, _ReferenceJetScalars(P.t), w, P
        )

    @pytest.mark.parametrize("Ring", RINGS)
    def test_cancellation_at_order_zero_is_zero(self, Ring):
        ring = Ring(F(1, 4))
        minus_one = ring.factor(_Pair(2), 0)
        assert ring.finalize(ring.one + minus_one) == 0

    @pytest.mark.parametrize("Ring", RINGS)
    def test_cancellation_at_order_minus_one_raises(self, Ring):
        ring = Ring(F(1, 4))
        pole = ring.one / ring.factor(_Pair(4), 1)  # 1 - 4 t vanishes at t = 1/4
        cancelled = pole + pole * ring.unit(_Pair(-1), 0)
        # what is left is O(v^0): a constant added to it stays unknown
        for value in (cancelled, cancelled + ring.one, ring.one + cancelled):
            with pytest.raises(ParameterDegeneracy):
                ring.finalize(value)

    @pytest.mark.parametrize("Ring", RINGS)
    def test_surviving_pole_raises(self, Ring):
        ring = Ring(F(1, 4))
        with pytest.raises(ParameterDegeneracy):
            ring.finalize(ring.one / ring.factor(_Pair(4), 1))

    @pytest.mark.parametrize("Ring", RINGS)
    def test_exact_zero_absorbs_products(self, Ring):
        ring = Ring(F(1, 4))
        zero = ring.factor(_Pair(1), 0)
        exhausted = ring.one + ring.factor(_Pair(2), 0)
        assert ring.dead(zero)
        assert not ring.dead(exhausted)
        for product in (zero * ring.one, exhausted * zero, zero / ring.factor(_Pair(4), 1)):
            assert ring.dead(product)
            assert ring.finalize(product) == 0
        with pytest.raises(ParameterDegeneracy):
            exhausted * ring.one

    @pytest.mark.parametrize("Ring", RINGS)
    def test_dividing_by_exact_zero_raises(self, Ring):
        ring = Ring(F(1, 4))
        zero = ring.factor(_Pair(1), 0)
        for numerator in (ring.one, zero):
            with pytest.raises(ParameterDegeneracy):
                numerator / zero

    @pytest.mark.parametrize("Ring", RINGS)
    def test_vanishing_factor_leads_at_order_one(self, Ring):
        # (1 - 4 t) / (1 - 16 t^2) -> 1/2 as t -> 1/4
        ring = Ring(F(1, 4))
        assert ring.finalize(ring.factor(_Pair(4), 1) / ring.factor(_Pair(16), 2)) == F(1, 2)


def _lead(entry):
    """A jet coefficient entry [num, den, off] as (coefficient, off)."""
    num, den, off = entry
    return F(num, den), off


class TestJetRing:
    """The jet ring's integer pieces at each branch, against the leading
    terms of the object ring they replace: a factor at x != 1, at x = 1
    with p = 0 (an exact zero) and with p != 0 (order 1, lead -x p); the
    addition of a term below, at and above an entry's order, with the
    cancellation that moves it to order off + 1; and finish, where a pole
    or an exhausted precision at order 0 or below raises."""

    @pytest.mark.parametrize(
        "gamma, p, lead",
        [
            ((2, 1), 0, (F(-1), 0)),
            ((-3, 5), -1, (F(17, 5), 0)),
            ((1, 1), 0, None),
            ((4, 1), 1, (F(-1), 1)),
            ((16, 1), 2, (F(-2), 1)),
            ((1, 4), -1, (F(1), 1)),
            ((-64, -1), 3, (F(-3), 1)),
        ],
        ids=["x=2", "x=-12/5", "x=1,p=0", "x=1,p=1", "x=1,p=2", "x=1,p=-1", "x=1,p=3"],
    )
    def test_factor_at_each_branch(self, gamma, p, lead):
        # at tv = 1/4, x = gamma tv^p; None is the exact zero
        ring, objects = _JetRing(F(1, 4), F(1, 4)), b2_reference._JetScalars(F(1, 4))
        num, den, off = ring.factor(*ring.scaled(*gamma, p), p)
        reference = objects.factor(_Pair(*gamma), p)
        if lead is None:
            assert num == 0 and den != 0
            assert reference.is_exact_zero()
        else:
            assert (F(num, den), off) == lead == (reference.coeff, reference.off)

    def test_product_multiplies_leads_and_adds_orders(self):
        # records (an, ad, p, e): 1 - (an / ad) q^(e + k), q = tv = 1/4
        ring, objects = _JetRing(F(1, 4), F(1, 4)), b2_reference._JetScalars(F(1, 4))
        records = [(1, 1, 1, 0), (2, 1, 0, 0), (1, 1, -1, 1), (1, 1, 0, 0)]
        gammas = [(_Pair(4), 1), (_Pair(2), 0), (_Pair(1, 16), -1), (_Pair(1), 0)]
        for k, count in ((0, 3), (1, 4)):
            num, den, off = ring.product(records[:count], k)
            want = objects.one
            for gamma, p in gammas[:count]:
                want = want * objects.factor(gamma * _Pair(1, 4) ** k, p)
            assert (F(num, den), off) == (want.coeff, want.off)
        # the exact zero 1 - q^0 at k = 0 kills the product
        assert ring.product(records, 0)[0] == 0

    def test_ratio_adds_orders(self):
        ring = _JetRing(F(1, 4), F(1, 4))
        assert ring.ratio((1, 2, 1), (3, 1, 0), (2, 3, 1), (4, 5, -1)) == (5, 4, 3)

    def test_add_at_each_branch(self):
        out = {}
        _JetRing.add(out, 0, 1, 2, 1)  # a new coefficient
        _JetRing.add(out, 0, 5, 1, 2)  # above its order: no change
        assert _lead(out[0]) == (F(1, 2), 1)
        _JetRing.add(out, 0, 1, 3, 1)  # at its order: the sum
        assert _lead(out[0]) == (F(5, 6), 1)
        _JetRing.add(out, 0, -5, 6, 1)  # cancelled: O(v^2)
        assert out[0][0] == 0 and out[0][2] == 2
        _JetRing.add(out, 0, 7, 1, 2)  # at the order it was lost at: still unknown
        assert out[0][0] == 0 and out[0][2] == 2
        _JetRing.add(out, 0, 3, 4, 0)  # below it: the new lead
        assert _lead(out[0]) == (F(3, 4), 0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(-3, 3).filter(bool),
                st.integers(-3, 3).filter(bool), st.integers(-1, 2),
            ),
            max_size=12,
        )
    )
    def test_add_matches_leading_term_addition(self, terms):
        out, want = {}, {}
        for exps, num, den, off in terms:
            _JetRing.add(out, exps, num, den, off)
            term = b2_reference._LeadTerm(F(num, den), off)
            want[exps] = want.get(exps, b2_reference._LEAD_ZERO) + term
        assert {e: _lead(entry) for e, entry in out.items()} == {
            e: (x.coeff, x.off) for e, x in want.items()
        }

    @pytest.mark.parametrize(
        "entry, value",
        [
            ([3, 4, 0], F(3, 4)),
            ([3, 4, 1], 0),
            ([0, 1, 1], 0),
            ([3, 4, -1], "coefficient diverges at the collapsed parameter point"),
            ([0, 1, 0], "series precision exhausted at evaluation"),
            ([0, 1, -1], "series precision exhausted at evaluation"),
        ],
        ids=["lead", "order-1", "exhausted-past-0", "pole", "exhausted-at-0", "exhausted-below-0"],
    )
    def test_finish_at_each_branch(self, entry, value):
        reference = b2_reference._LeadTerm(F(entry[0], entry[1]), entry[2])
        if isinstance(value, str):
            with pytest.raises(ParameterDegeneracy, match=value):
                _JetRing.finish({(0, 0): entry})
            with pytest.raises(ParameterDegeneracy, match=value):
                reference.value()
        else:
            assert _JetRing.finish({(0, 0): entry}) == ({(0, 0): value} if value else {})
            assert reference.value() == value


class TestPair:
    """The reference rings' unreduced pair has no value equality, no truth
    value and no division, so a stray zero test or division fails loudly
    instead of reading False or skipping the series' pole check."""

    def test_equality_and_truth_raise(self):
        zero, one = _Pair(0, 3), _Pair(2, 2)
        with pytest.raises(TypeError):
            zero == 0
        with pytest.raises(TypeError):
            one != one
        with pytest.raises(TypeError):
            bool(zero)
        with pytest.raises(TypeError):
            hash(one)
        assert zero.is_zero() and not one.is_zero()

    def test_no_division(self):
        # a step keeps its denominator apart for the series' zero test, so
        # a division, by a zero pair or any other, is an error
        with pytest.raises(TypeError):
            _Pair(1, 2) / _Pair(0, 5)
        with pytest.raises(TypeError):
            _Pair(1, 2) / _Pair(3, 5)

    def test_operators(self):
        x, y = _Pair(-2, 3), _Pair(6, 4)
        for pair, value in ((x * y, F(-1)), (1 - x, F(5, 3)), (x ** 3, F(-8, 27))):
            assert F(pair.num, pair.den) == value


class TestPairRing:
    """The plain series runs on bare integer pairs; it must give what the
    Fraction ring gave, values and errors alike."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_series_inputs(collapse=False))
    def test_series_matches_fraction_reference(self, drawn):
        P, w = drawn
        assert _outcome(_series_terms, _shipped(_RationalRing, P), w, P) == _outcome(
            b2_reference._series_terms, _ReferenceRationalScalars(P.t), w, P
        )

    @pytest.mark.parametrize("P", [B2P1, B2P2])
    def test_shipped_points_match_fraction_reference_through_weight_six(self, P):
        for total in range(7):
            for r1 in range(total + 1):
                w = B2Weight(r1, total - r1)
                terms = _outcome(b2_reference._series_terms, _ReferenceRationalScalars(P.t), w, P)
                assert f_b2_poly(w, P) == LaurentPoly(2, terms, 2), w

    def test_ratio_reduces_the_running_product(self):
        ring = _RationalRing(F(1, 9), F(1, 3))
        assert ring.ratio((6, 10), (1, 1), (4, 9), (8, 3)) == (1, 10)
        assert ring.ratio((6, 10), (-5, 2), (4, 9), (8, 3)) == (-1, 4)

    def test_a_dead_value_is_a_zero_numerator(self):
        # the walk's zero tests read a value's numerator as an int; the
        # value, a tuple, is true even when it is zero
        ring = _RationalRing(F(1, 9), F(1, 2))
        dead = ring.product([(*ring.scaled(2, 1, 1), 1, 0), (3, 1, 0, 1)], 0)
        assert dead == (0, 18) and dead
        assert F(*ring.product([(*ring.scaled(2, 1, 1), 1, 0)], 1)) == F(8, 9)
        P, w, bound, _ = _PINNED["ladder denominator"]
        with pytest.raises(ParameterDegeneracy, match="vanishing ladder denominator"):
            _series_terms(w, P, _RationalRing(P.q, P.t), bound)

    def test_cells_add_over_a_running_lcm(self):
        # unreduced cells, signs on either integer, denominators that do
        # and do not divide the running one, a block of cells crossed with
        # its skew and diagonal weights; finish makes one reduced Fraction
        # per nonzero coefficient
        cells = [
            ((0, 0), (2, 4)), ((0, 0), (-3, 6)), ((2, 0), (1, -3)),
            ((2, 0), (5, 4)), ((2, 0), (-7, 8)), ((2, 0), (9, 12)),
        ]
        out, want = {}, {}
        for (b1, b2), cell in cells:
            _RationalRing.accumulate(out, b1, b2, cell, [((0, 0), (1, 1))], [((0, 0), (1, 1))])
            want[b1, b2] = want.get((b1, b2), F(0)) + F(*cell)
        skew = [((0, 0), (1, 1)), ((-2, 2), (3, -5))]
        diagonal = [((0, 0), (2, 7)), ((-2, -2), (-1, 4)), ((-4, -4), (5, 6))]
        _RationalRing.accumulate(out, 4, 2, (2, 3), skew, diagonal)
        for (e1, e2), s in skew:
            for (g1, g2), d in diagonal:
                exps = (4 + e1 + g1, 2 + e2 + g2)
                want[exps] = want.get(exps, F(0)) + F(2, 3) * F(*s) * F(*d)
        finished = _RationalRing.finish(out)
        assert finished == {e: c for e, c in want.items() if c}
        assert (0, 0) not in finished and finished[2, 0] == F(5, 8)
        assert all(type(c) is F for c in finished.values())


class _CutScalars(_RationalRing):
    """The pair ring with 1 - t dead: both two-factor sums stop at their
    first cell, so the theta2 direction can pass the scan bound.  On the
    two shipped rings it cannot, since the diagonal sum at (n, 0, 0) is at
    least as long, unless t = q^-j, where a ladder denominator vanishes
    first."""

    def product(self, records, k):
        tn, td = self.t_power(1)
        for an, ad, p, e in records:
            qn, qd = self.q_power(e + k)
            if p == 1 and an * qn * td == ad * qd * tn:
                return 0, 1
        return super().product(records, k)


class _ReferenceCutScalars(b2_reference._RationalScalars):
    """_CutScalars on the object ring: a factor 1 - gamma t with gamma = 1
    is dead."""

    def factor(self, gamma, p):
        if p == 1 and gamma.num == gamma.den:
            return _Pair(0)
        return super().factor(gamma, p)


#: the object ring b2_reference runs on, for each ring the series runs on
_REFERENCE_RINGS = {
    _RationalRing: b2_reference._RationalScalars,
    _JetRing: b2_reference._JetScalars,
    _CutScalars: _ReferenceCutScalars,
}


@st.composite
def _stepper_inputs(draw):
    # the drawn point or one of the shipped generic ones, where most draws
    # of the pair ring sum the series instead of degenerating
    P, w = draw(_series_inputs())
    P = draw(st.sampled_from([P, B2P1, B2P2]))
    bound = draw(st.integers(0, _default_bound(w)))
    return P, w, bound, draw(st.sampled_from([_RationalRing, _JetRing]))


def _pinned(sq, st_, sT, r1, r2, bound, Ring):
    return ParamPoint(sqrt_q=sq, sqrt_t=st_, sqrt_T=sT), B2Weight(r1, r2), bound, Ring


#: an input on which the series raises, for each overrun label and each
#: degeneracy of the series
_PINNED = {
    "principal direction": _pinned(F(1, 2), F(1, 2), F(1, 2), 0, 0, 0, _JetRing),
    "second direction": _pinned(F(1, 2), F(1, 3), F(1, 5), 0, 2, 1, _CutScalars),
    "third direction": _pinned(F(1, 2), F(1), F(1, 2), 2, 0, 0, _RationalRing),
    "skew direction": _pinned(F(1, 2), F(1, 2), F(1, 2), 1, 0, 0, _RationalRing),
    "diagonal direction": _pinned(F(1, 2), F(1, 2), F(1, 2), 0, 1, 0, _JetRing),
    "ladder denominator": _pinned(F(1, 2), F(1, 2), F(1, 2), 0, 0, 0, _RationalRing),
    "series prefactor denominator": _pinned(F(1, 2), F(1, 4), F(2), 0, 0, 1, _RationalRing),
}


class TestSeriesReference:
    """The series walks every running-ratio direction through one stepper
    on bare integers; it must give what the hand-written loops of
    b2_reference gave on the object rings, values, error classes and
    messages alike, on both rings and at every bound."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_stepper_inputs())
    @example(_PINNED["principal direction"])
    @example(_PINNED["second direction"])
    @example(_PINNED["third direction"])
    @example(_PINNED["skew direction"])
    @example(_PINNED["diagonal direction"])
    @example(_PINNED["ladder denominator"])
    @example(_PINNED["series prefactor denominator"])
    def test_series_matches_the_hand_written_loops(self, drawn):
        P, w, bound, Ring = drawn
        assert _outcome(_series_terms, _shipped(Ring, P), w, P, bound) == _outcome(
            b2_reference._series_terms, _REFERENCE_RINGS[Ring](P.t), w, P, bound
        )

    @pytest.mark.parametrize("label", sorted(_PINNED))
    def test_pinned_inputs_raise_where_named(self, label):
        P, w, bound, Ring = _PINNED[label]
        if label.endswith("direction"):
            want = NonTerminating, f"{label} index passed {bound} without a vanishing factor"
        else:
            want = ParameterDegeneracy, f"vanishing {label} in the explicit series"
        assert _outcome(_series_terms, _shipped(Ring, P), w, P, bound) == want


def _row_outcome(threefold, r, P):
    """The row threefold makes, or the class and message of its error."""
    try:
        return threefold(r, P)
    except QbcError as exc:
        return type(exc), str(exc)


#: a point and row at which each ladder of the threefold row has a
#: vanishing lower factor
_THREEFOLD_PINNED = {
    "the threefold ladder": (ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(8), sqrt_T=F(8)), 3),
    "the skew ladder": (ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(8), sqrt_T=F(8)), 4),
}


class TestThreefoldReference:
    """The threefold row shares one skew ladder between its two directions
    and steps every weight by a running ratio; it must give what the
    per-term sum of b2_reference gave, rows and error messages alike."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_points(collapse=False), st.integers(0, 8))
    @example(*_THREEFOLD_PINNED["the threefold ladder"])
    @example(*_THREEFOLD_PINNED["the skew ladder"])
    def test_row_matches_the_per_term_sum(self, P, r):
        assert _row_outcome(b2_row_threefold, r, P) == _row_outcome(
            b2_reference.b2_row_threefold, r, P
        )

    @pytest.mark.parametrize("what", sorted(_THREEFOLD_PINNED))
    def test_pinned_points_raise_where_named(self, what):
        P, r = _THREEFOLD_PINNED[what]
        want = ParameterDegeneracy, f"vanishing lower Pochhammer in {what}"
        assert _row_outcome(b2_row_threefold, r, P) == want


def _plan_report(r1, r2, P):
    return _run("b2", _plan("", P.to_json_obj(), b2_conjecture_check(r1, r2, P)))


class TestConjectureCheck:
    @pytest.mark.parametrize("r1,r2", [(0, 0), (1, 1), (2, 1)])
    def test_passes(self, r1, r2):
        report = _plan_report(r1, r2, B2P1)
        assert report.passed
        assert report.counts()["pass"] == 3

    def test_case_identities(self):
        report = _plan_report(1, 1, B2P2)
        ids = [c.case_id for c in report.cases]
        assert ids == [
            "r11-termination",
            "r11-eigenpolynomial",
            "r11-difference-equation",
        ]

    def test_invalid_weight_raises_when_planned(self):
        with pytest.raises(ValueError):
            b2_conjecture_check(-1, 0, B2P1)

    def test_nonterminating_series_skips_the_comparisons(self, monkeypatch):
        def overrun(w, P):
            raise NonTerminating("principal direction index passed 8")

        monkeypatch.setattr(qbc.b2, "f_b2_poly", overrun)
        report = _plan_report(1, 0, B2P1)
        assert [c.verdict for c in report.cases] == ["fail", "skipped", "skipped"]
        assert report.cases[0].mismatch == {
            "expected": "terminating series",
            "got": "principal direction index passed 8",
        }
        assert [c.mismatch for c in report.cases[1:]] == [None, None]
        assert not report.passed

    def test_series_outside_the_operator_domain_fails(self, monkeypatch):
        # a term off the weight's coset leaves the operator's image with no
        # Laurent quotient by the Weyl denominator: that is the difference
        # equation's fail, not an abort
        monkeypatch.setattr(qbc.b2, "f_b2_poly", _planted(_orbit_error((1, 0))))
        report = _plan_report(1, 1, B2P1)
        assert [c.verdict for c in report.cases] == ["pass", "fail", "fail"]
        assert report.cases[2].mismatch == {
            "expected": "series in the operator's domain",
            "got": (
                "InexactDivision: the image is no Laurent polynomial: "
                "A_(3, 2) is left over, and mu - rho = (0, 1) is not dominant"
            ),
        }

    def test_series_that_is_not_invariant_fails(self, monkeypatch):
        # the operator takes invariant polynomials only: a series with x_1
        # alone added fails both comparisons instead of raising ValueError
        monkeypatch.setattr(qbc.b2, "f_b2_poly", _planted(X1))
        report = _plan_report(1, 1, B2P1)
        assert [c.verdict for c in report.cases] == ["pass", "fail", "fail"]
        assert report.cases[2].mismatch == {
            "expected": "series invariant under the signed permutations",
            "got": "a term whose image under a signed permutation is missing",
        }

    def test_planted_error_reports_its_leading_monomial(self, monkeypatch):
        # an even orbit sum off by 10^-9 leads the difference at the doubled
        # exponent (2, 0): the oracle has no term there, and the operator's
        # image and E times the series differ in both coefficients
        monkeypatch.setattr(qbc.b2, "f_b2_poly", _planted(_orbit_error((2, 0))))
        report = _plan_report(1, 1, B2P1)
        assert [(c.verdict, c.mismatch) for c in report.cases] == [
            ("pass", None),
            ("fail", {"monomial": [2, 0], "expected": "0/1", "got": "1/1000000000"}),
            (
                "fail",
                {
                    "monomial": [2, 0],
                    "expected": "115157/16200000000000",
                    "got": "8099/2700000000000",
                },
            ),
        ]


#: x_1 on the doubled lattice, a term no invariant series can have alone
X1 = monomial((2, 0), 1, 2)


def _orbit_error(key):
    """10^-9 times the orbit sum of the doubled exponent key."""
    return monomial_symmetric(key, 2, 2) * F(1, 10 ** 9)


def _planted(error):
    """f_b2_poly with the polynomial error added at weight (1, 1)."""
    real = f_b2_poly

    def planted(w, P):
        poly = real(w, P)
        if w == B2Weight(1, 1):
            poly = poly + error
        return poly

    return planted


class TestNegativeControl:
    """A planted error in the series at weight (1, 1) fails exactly that
    weight's two comparisons at both points, the suite runs on, and
    `qbc verify b2` exits 1.  The errors are an orbit sum off the weight's
    coset or on it, and x_1 alone, which the operator cannot take."""

    @pytest.mark.parametrize(
        "error",
        [_orbit_error((1, 0)), _orbit_error((2, 0)), X1],
        ids=["off-coset", "even", "not-invariant"],
    )
    def test_planted_error_fails_its_weight_only(self, error, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(qbc.b2, "f_b2_poly", _planted(error))
        report = run_suite("b2", default_config())
        assert len(report.cases) == 74
        failed = sorted(c.case_id for c in report.cases if c.verdict == "fail")
        assert failed == [
            f"b2-p{i}-r11-{check}"
            for i in (1, 2)
            for check in ("difference-equation", "eigenpolynomial")
        ]
        assert all(c.verdict == "pass" for c in report.cases if c.case_id not in failed)
        assert main(["verify", "b2"]) == 1
        assert capsys.readouterr().out.count("FAIL") == 4
