"""Substrate checks: Laurent arithmetic, exact division, partitions, orbits."""

import heapq
import itertools
import math
from fractions import Fraction as F
from functools import lru_cache
from operator import add, neg
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qbc import algebra
from qbc.algebra import (
    ClearedShiftOperator,
    LaurentPoly,
    OrbitPoly,
    ParamPoint,
    dominated_partitions,
    exact_div,
    padded_partition,
    rat,
    rational_sqrt,
    signed_orbit,
    solve_triangular_eigenproblem,
    weyl_invariant,
)
from qbc.errors import (
    DegenerateEigenvalues,
    DimensionMismatch,
    InexactDivision,
    LengthError,
    MissingSquareRoot,
    ParameterDegeneracy,
)
from qbc.askey_wilson import _aw_generator, _aw_operator, aw_apply
from qbc.b2 import _b2_generator, _b2_operator, b2_apply
from qbc.koornwinder import _koorn_generator, _koorn_operator, koorn_apply
from qbc.reports import poly_mismatch
from qbc.suites import default_config
from conftest import monomial_symmetric, orbit_sum, poly_key
from dividing_operator import DividingShiftOperator, _binomial_product


def lp1(terms):
    return LaurentPoly(1, terms)


def _int_poly(num_vars, terms, scale=1):
    """A polynomial with int coefficients, as the operator builds them;
    the LaurentPoly constructor would coerce them to Fraction."""
    return LaurentPoly._raw(num_vars, {e: c for e, c in terms.items() if c}, scale)


def _exponent_box(p: LaurentPoly):
    """Per-variable (min, max) exponent over the support; None if zero."""
    if not p.terms:
        return None
    return tuple(map(min, zip(*p.terms))), tuple(map(max, zip(*p.terms)))


def _peel_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Reference division: rescan the remainder for its lex-leading term.

    Quadratic in the remainder size, and independent of the heap that
    _heap_div keeps; the two must agree on every input, and on binomials
    both must agree with exact_div.
    """
    f._check_compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.num_vars, f.scale)
    f_lo, f_hi = _exponent_box(f)
    g_lo, g_hi = _exponent_box(g)
    box_lo = tuple(a - b for a, b in zip(f_lo, g_lo))
    box_hi = tuple(a - b for a, b in zip(f_hi, g_hi))
    if any(lo > hi for lo, hi in zip(box_lo, box_hi)):
        raise InexactDivision("degree box is empty")
    g_lead_e, g_lead_c = g.leading()
    g_lead_c = rat(g_lead_c)
    rem = dict(f.terms)
    quo = {}
    while rem:
        r_lead = max(rem)
        qe = tuple(a - b for a, b in zip(r_lead, g_lead_e))
        if any(e < lo or e > hi for e, lo, hi in zip(qe, box_lo, box_hi)):
            raise InexactDivision("remainder is not divisible")
        qc = rem[r_lead] / g_lead_c
        quo[qe] = qc
        for ge, gc in g.terms.items():
            e = tuple(x + y for x, y in zip(qe, ge))
            acc = rem.get(e)
            val = qc * gc
            if acc is None:
                rem[e] = -val
            else:
                acc = acc - val
                if acc:
                    rem[e] = acc
                else:
                    del rem[e]
    return LaurentPoly(f.num_vars, quo, f.scale)


def _heap_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Reference division by any nonzero g: peel the lex-leading term of
    the remainder against the lex-leading term of g, finding that term with
    a heap instead of a scan, after Monagan and Pearce, "Sparse polynomial
    division using a heap" (J. Symbolic Comput. 46, 2011).

    The remainder is a dict from exponent to coefficient, and a min-heap of
    the negated exponents orders it.  An exponent is pushed once, when a
    step first creates it.  Each step pops the lex-largest exponent, emits
    one quotient term, and subtracts that term times the non-leading terms
    of g.  A remainder term that cancels stays in the dict with coefficient
    zero and its heap entry goes stale: the pop skips it, and if a later
    step creates the exponent again the entry is live again.  Every
    exponent a step creates is lex-smaller than the one just popped, so no
    exponent needs a second entry.

    Every per-variable degree of an exact quotient is pinned by the degrees
    of f and g, which bounds the emitted exponents to a finite box; an
    emission outside it raises InexactDivision.  exact_div takes binomials
    only, and this is the tests' reference for those and the division for
    any other divisor.
    """
    f._check_compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.num_vars, f.scale)
    f_lo, f_hi = _exponent_box(f)
    g_lo, g_hi = _exponent_box(g)
    box_lo = tuple(a - b for a, b in zip(f_lo, g_lo))
    box_hi = tuple(a - b for a, b in zip(f_hi, g_hi))
    if any(lo > hi for lo, hi in zip(box_lo, box_hi)):
        raise InexactDivision("degree box is empty")
    g_lead_e, g_lead_c = g.leading()
    g_lead_c = rat(g_lead_c)
    g_rest = [(ge, gc) for ge, gc in g.terms.items() if ge != g_lead_e]
    rem = dict(f.terms)
    heap = [tuple(-x for x in e) for e in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        r_lead = tuple(-x for x in heapq.heappop(heap))
        c = rem.pop(r_lead)
        if not c:
            continue
        qe = tuple(a - b for a, b in zip(r_lead, g_lead_e))
        if any(e < lo or e > hi for e, lo, hi in zip(qe, box_lo, box_hi)):
            raise InexactDivision("remainder is not divisible")
        qc = c / g_lead_c
        quo[qe] = qc
        for ge, gc in g_rest:
            e = tuple(a + b for a, b in zip(qe, ge))
            acc = rem.get(e)
            if acc is None:
                rem[e] = -qc * gc
                heapq.heappush(heap, tuple(-x for x in e))
            else:
                rem[e] = acc - qc * gc
    return LaurentPoly(f.num_vars, quo, f.scale)


def qshift(f: LaurentPoly, i: int, k, P: ParamPoint) -> LaurentPoly:
    """Reference shift x_i -> q^k x_i: each term picks up q^(k * exponent
    of x_i).

    k may be a half-integer; the combined power of sqrt_q must land on an
    integer for every term of f, otherwise the shift does not stay inside the
    exact lattice and a ValueError is raised.  The operators form only
    T_0 f - f, for i = 0 and k = 1, over ints.
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


def _divide(f, g):
    """f / g: for a binomial g, exact_div of f's integer numerators by the
    primitive part of g's, through the algebra module global, rescaled by
    the constants that cleared them; for any other g, the heap reference."""
    if len(g.terms) != 2:
        return _heap_div(f, g)
    f_int, f_den = algebra._integer_numerators(f)
    g_int, g_den = algebra._integer_numerators(g)
    content = math.gcd(*g_int.terms.values())
    primitive = _int_poly(g.num_vars, {e: c // content for e, c in g_int.terms.items()}, g.scale)
    return algebra.exact_div(f_int, primitive) * F(g_den, f_den * content)


def _division_outcome(divide, f, g):
    try:
        return divide(f, g)
    except InexactDivision:
        return InexactDivision


class TestRationals:
    def test_rat_parses_strings(self):
        assert rat("3/4") == F(3, 4)
        assert rat("-2") == F(-2)
        assert rat(5) == F(5)

    def test_rat_rejects_bool(self):
        # a bool is an int to Python, but no rational in a configuration
        for flag in (True, False):
            with pytest.raises(TypeError):
                rat(flag)

    def test_rational_sqrt_exact(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(F(0)) == 0

    def test_rational_sqrt_irrational(self):
        with pytest.raises(MissingSquareRoot):
            rational_sqrt(F(2))
        with pytest.raises(MissingSquareRoot):
            rational_sqrt(F(-4))


class TestParamPoint:
    def test_squares_are_derived(self):
        P = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3), sqrt_T=F(2, 5))
        assert P.q == F(1, 4)
        assert P.t == F(1, 9)
        assert P.T == F(4, 25)

    def test_alpha_exact(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=2, b=3, c=5, d=F(5, 6))
        assert P.alpha == 10

    def test_alpha_irrational_raises(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=2, b=3, c=5, d=7)
        with pytest.raises(MissingSquareRoot):
            P.alpha

    def test_degenerate_base_rejected(self):
        with pytest.raises(ParameterDegeneracy):
            ParamPoint(sqrt_q=1)
        with pytest.raises(ParameterDegeneracy):
            ParamPoint(sqrt_q=F(1, 2), a=0)

    def test_missing_field_raises(self):
        P = ParamPoint(sqrt_q=F(1, 2))
        with pytest.raises(ParameterDegeneracy):
            P.t

    def test_q_and_t_are_computed_once_per_point(self):
        # the squares are kept on the point; replace() gives a point with
        # fresh ones, and == and hash still read only the fields
        P = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3))
        assert P.q is P.q and P.t is P.t
        Q = P.replace(sqrt_q=F(1, 5), sqrt_t=F(2, 7))
        assert (Q.q, Q.t) == (F(1, 25), F(4, 49))
        assert (P.q, P.t) == (F(1, 4), F(1, 9))
        fresh = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3))
        assert fresh == P and hash(fresh) == hash(P)
        assert P.replace(sqrt_t=F(1, 3)) == P
        assert {P: 1}[fresh] == 1
        bare = ParamPoint(sqrt_q=F(1, 2))
        for _ in range(2):
            with pytest.raises(ParameterDegeneracy):
                bare.t
        assert bare.replace(sqrt_t=F(1, 2)).t == F(1, 4)

    def test_hash_is_computed_once_per_point(self):
        # the hash is the hash of the fields, as the dataclass computed it,
        # kept on the point after its first read: the fields' hashes are
        # not read again.  replace() gives a point that hashes afresh, and
        # points equal field by field hash alike
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=F(5, 3), sqrt_t=F(1, 3))
        want = hash((P.sqrt_q, P.a, P.b, P.c, P.d, P.sqrt_t, P.sqrt_T, P.s))
        assert hash(P) == want
        with mock.patch.object(F, "__hash__", side_effect=AssertionError("hashed again")):
            assert hash(P) == want and {P: 1}[P] == 1
        Q = P.replace(b=F(7, 3))
        assert "_hash" not in vars(Q)
        assert hash(Q) == hash(ParamPoint(sqrt_q=F(1, 2), a=-2, b=F(7, 3), sqrt_t=F(1, 3)))
        assert Q != P and Q.replace(b=F(5, 3)) == P
        assert hash(Q.replace(b=F(5, 3))) == hash(P)

    def test_json_roundtrip(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=F(5, 3), s=F(1, 7))
        assert ParamPoint.from_json_obj(P.to_json_obj()) == P

    def test_canonical_key_is_filesystem_safe(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=F(5, 3))
        key = P.canonical_key()
        assert "/" not in key and "-" not in key and " " not in key


class TestLaurentArithmetic:
    def test_product_of_orbit_sums(self):
        # (x + 1/x) * (x - 1/x) = x^2 - 1/x^2
        f = lp1({(1,): 1, (-1,): 1})
        g = lp1({(1,): 1, (-1,): -1})
        assert f * g == lp1({(2,): 1, (-2,): -1})

    def test_cancellation_drops_terms(self):
        f = lp1({(1,): F(1, 2)})
        g = lp1({(1,): F(-1, 2), (0,): 3})
        assert (f + g) == lp1({(0,): 3})
        assert (f + g) - lp1({(0,): 3}) == LaurentPoly.zero(1)

    def test_scalar_ops(self):
        f = lp1({(2,): F(1, 3)})
        assert 3 * f == lp1({(2,): 1})
        assert f - f == LaurentPoly.zero(1)
        assert (f * 0).is_zero()

    def test_equality_with_bool_is_not_implemented(self):
        # a bool is no scalar (rat rejects it), so comparing with one falls
        # back to identity instead of raising
        p = LaurentPoly.monomial((0,))
        assert p.__eq__(True) is NotImplemented
        assert (p == True) is False
        assert p != False
        assert p in [True, p]

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            lp1({(1,): 1}) + LaurentPoly(2, {(1, 0): 1})

    def test_mixed_scale_rejected(self):
        with pytest.raises(DimensionMismatch):
            lp1({(1,): 1}) * LaurentPoly(1, {(1,): 1}, scale=2)

    def test_json_roundtrip_sorted(self):
        f = LaurentPoly(2, {(1, -2): F(3, 7), (-1, 0): 2})
        obj = f.to_json_obj()
        assert obj["terms"] == sorted(obj["terms"], key=lambda t: t["exps"])
        assert LaurentPoly(2, {tuple(t["exps"]): t["coeff"] for t in obj["terms"]}) == f


class TestExactDivision:
    def test_round_trip(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): -2, (-1, -1): F(1, 3)})
        g = LaurentPoly(2, {(2, 1): F(2, 5), (0, 0): 1, (-1, 2): 4})
        assert _heap_div(f * g, g) == f
        assert _heap_div(f * g, f) == g

    def test_inexact_raises(self):
        f = lp1({(2,): 1, (0,): -1})
        g = lp1({(1,): 1, (0,): 1, (-1,): 1})
        with pytest.raises(InexactDivision):
            _heap_div(f, g)

    def test_zero_dividend(self):
        assert exact_div(_int_poly(1, {}), _int_poly(1, {(1,): 1, (0,): -1})).is_zero()
        assert _heap_div(LaurentPoly.zero(1), lp1({(1,): 1})).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ValueError, match="binomials only"):
            exact_div(_int_poly(1, {(0,): 1}), LaurentPoly.zero(1))

    def test_laurent_units_divide(self):
        f = lp1({(-3,): F(5, 2)})
        g = lp1({(2,): F(1, 2)})
        assert _heap_div(f, g) == lp1({(-5,): 5})

    @pytest.mark.parametrize(
        "g", [lp1({(2,): F(1, 2)}), lp1({(1,): 1, (0,): 1, (-1,): 1})],
        ids=["monomial", "trinomial"],
    )
    def test_non_binomial_divisor_raises(self, g):
        with pytest.raises(ValueError, match="binomials only"):
            exact_div(g * g, g)

    def test_cancelled_then_recreated_term_is_consumed_once(self, monkeypatch):
        # (x^4 + x^2 + 1) / (x^2 - x + 1): the first step cancels the x^2 of
        # the dividend, the second creates x^2 again.  The exponent keeps its
        # one heap entry throughout and is popped and consumed once; the
        # cancelled x and 1 of the last step are popped as stale entries.
        pushed, popped = [], []
        real = heapq

        class SpyHeap:
            @staticmethod
            def heapify(heap):
                pushed.extend(heap)
                real.heapify(heap)

            @staticmethod
            def heappush(heap, item):
                pushed.append(item)
                real.heappush(heap, item)

            @staticmethod
            def heappop(heap):
                item = real.heappop(heap)
                popped.append(item)
                return item

        monkeypatch.setitem(globals(), "heapq", SpyHeap)
        f = lp1({(4,): 1, (2,): 1, (0,): 1})
        g = lp1({(2,): 1, (1,): -1, (0,): 1})
        quotient = lp1({(2,): 1, (1,): 1, (0,): 1})
        assert _heap_div(f, g) == quotient
        # heap entries are negated exponents
        assert sorted(pushed) == [(-4,), (-3,), (-2,), (-1,), (0,)]
        assert popped == [(-4,), (-3,), (-2,), (-1,), (0,)]
        assert _peel_div(f, g) == quotient

    def test_rank3_koornwinder_lcd_divides_back_out(self):
        P = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3), a=2, b=3, c=5, d=F(5, 6))
        factors = [
            canon
            for canon, mult in DividingShiftOperator(P, 3, *_koorn_generator(P, 3))._lcd.values()
            for _ in range(mult)
        ]
        # the 6 pole factors 1 - q x_i^2 and x_i^2 - q divide T f - f
        # instead: 3 (1 - x_i^2) and 6 (1 - x_i x_j^(+-1))
        assert len(factors) == 9
        total = _int_poly(3, {(0, 0, 0): 1})
        for canon in factors:
            total = total * canon
        for canon in factors:
            quotient = exact_div(total, canon)
            assert quotient == _peel_div(total, canon)
            total = quotient
        assert total == LaurentPoly.monomial((0, 0, 0))


class TestQShift:
    def test_full_shift(self):
        P = ParamPoint(sqrt_q=F(1, 2))
        f = lp1({(2,): 1, (-1,): 1})
        assert qshift(f, 0, 1, P) == lp1({(2,): F(1, 16), (-1,): 4})

    def test_half_lattice_shift(self):
        # x^(1/2) on the doubled lattice picks up q^(1/2) = sqrt_q
        P = ParamPoint(sqrt_q=F(1, 2))
        f = LaurentPoly(1, {(1,): 1}, scale=2)
        assert qshift(f, 0, 1, P) == LaurentPoly(1, {(1,): F(1, 2)}, scale=2)

    def test_half_step_on_unit_lattice(self):
        P = ParamPoint(sqrt_q=F(1, 3))
        f = lp1({(3,): 1})
        assert qshift(f, 0, F(1, 2), P) == lp1({(3,): F(1, 27)})

    def test_inverse_shift_round_trip(self):
        P = ParamPoint(sqrt_q=F(2, 3))
        f = lp1({(5,): F(7, 3), (-2,): 1, (0,): -4})
        assert qshift(qshift(f, 0, 1, P), 0, -1, P) == f


class TestPartitions:
    def test_validation(self):
        assert padded_partition([3, 1, 0, 0], 2) == (3, 1)
        with pytest.raises(ValueError):
            padded_partition([1, 2], 2)
        with pytest.raises(ValueError):
            padded_partition([2, -1], 2)

    def test_equality_with_tuples(self):
        # a partition is its padded tuple, whatever zeros it came with
        assert padded_partition([2, 1], 2) == (2, 1)
        assert padded_partition([2, 1], 4) == (2, 1, 0, 0)
        assert padded_partition([2, 1, 0, 0], 2) == (2, 1)
        assert padded_partition([], 0) == ()
        assert padded_partition([], 2) == (0, 0)
        assert padded_partition([1], 2) != (0, 1)
        with pytest.raises(ValueError):
            padded_partition([0, 1], 2)
        with pytest.raises(ValueError):
            padded_partition([1, -1], 2)

    def test_padding_guard(self):
        with pytest.raises(LengthError):
            padded_partition([2, 1, 1], 2)
        with pytest.raises(LengthError):
            dominated_partitions((2, 1, 1), 2)

    def test_dominance_basics(self):
        assert (1, 1) in dominated_partitions((2,), 2)
        assert (2, 0) not in dominated_partitions((1, 1), 2)
        assert (2, 1, 0) in dominated_partitions((3,), 3)
        assert (0,) in dominated_partitions((1,), 1)

    def test_dominated_enumeration(self):
        got = dominated_partitions((2,), 2)
        assert got[0] == (2, 0)
        assert set(got) == {(2, 0), (1, 0), (1, 1), (0, 0)}

    def test_dominated_sorted_descending(self):
        got = dominated_partitions((3,), 3)
        sums = [tuple(itertools.accumulate(p)) for p in got]
        assert sums == sorted(sums, reverse=True)


@settings(derandomize=True, max_examples=150)
@given(st.data())
def test_dominance_partial_order_laws(data):
    # mu <= lam in dominance exactly when mu is in lam's down-set
    def partition(label):
        parts = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
            label=label,
        )
        return tuple(sorted(parts, reverse=True))

    def leq(mu, lam):
        return padded_partition(mu, 4) in dominated_partitions(lam, 4)

    a, b, c = partition("a"), partition("b"), partition("c")
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert padded_partition(a, 4) == padded_partition(b, 4)
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


def _dominance_leq(mu: tuple, lam: tuple) -> bool:
    """Partial-sum dominance of two partitions padded to one length."""
    return all(a <= b for a, b in zip(itertools.accumulate(mu), itertools.accumulate(lam)))


@lru_cache(maxsize=None)
def _all_partitions(n: int, weight: int) -> tuple:
    """Every weakly decreasing nonnegative n-tuple of sum at most weight."""
    return tuple(
        mu
        for mu in itertools.product(range(weight, -1, -1), repeat=n)
        if sum(mu) <= weight and all(a >= b for a, b in zip(mu, mu[1:]))
    )


@settings(derandomize=True, max_examples=200)
@given(st.data())
def test_dominated_partitions_match_brute_force(data):
    # the pruned recursion lists exactly the dominated partitions, in
    # descending partial-sum order, with or without lam's trailing zeros
    n = data.draw(st.integers(0, 5), label="n")
    lam = data.draw(st.sampled_from(_all_partitions(n, 5)), label="lam")
    want = [mu for mu in _all_partitions(n, 5) if _dominance_leq(mu, lam)]
    want.sort(key=lambda mu: tuple(itertools.accumulate(mu)), reverse=True)
    parts = tuple(p for p in lam if p)
    assert dominated_partitions(lam, n) == dominated_partitions(parts, n) == want


@settings(derandomize=True, max_examples=100)
@given(st.data())
def test_exact_division_round_trip_property(data):
    def poly(label):
        n_terms = data.draw(st.integers(1, 4), label=label + "_n")
        terms = {}
        for k in range(n_terms):
            e = data.draw(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                label=f"{label}_e{k}",
            )
            num = data.draw(st.integers(-9, 9), label=f"{label}_c{k}")
            den = data.draw(st.integers(1, 9), label=f"{label}_d{k}")
            if num:
                terms[e] = F(num, den)
        return LaurentPoly(2, terms)

    f, g = poly("f"), poly("g")
    if g.is_zero():
        return
    assert _divide(f * g, g) == f


def _nonzero_rationals():
    # small integers make remainder terms cancel more often
    return st.one_of(
        st.sampled_from((F(1), F(-1), F(2))),
        st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    )


@settings(derandomize=True, max_examples=200)
@given(st.data())
def test_exact_division_matches_peel_reference(data):
    num_vars = data.draw(st.integers(1, 3), label="num_vars")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")

    def poly(label, min_size, max_size):
        terms = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(-3, 3)] * num_vars),
                _nonzero_rationals(),
                min_size=min_size,
                max_size=max_size,
            ),
            label=label,
        )
        return LaurentPoly(num_vars, terms, scale)

    g = poly("g", 1, 4)
    lead = data.draw(_nonzero_rationals().filter(lambda c: c != 1), label="lead")
    g = g * (lead / g.leading()[1])
    if data.draw(st.booleans(), label="exact"):
        q = poly("q", 1, 5)
        f = q * g
        assert _divide(f, g) == q
    else:
        f = poly("f", 0, 6)
    assert _division_outcome(_divide, f, g) == _division_outcome(_peel_div, f, g)
    if len(g.terms) != 2:
        with pytest.raises(ValueError, match="binomials only"):
            exact_div(f, g)


def _check_binomial_division(f, g):
    """exact_div against the heap reference on an int dividend and a
    primitive int binomial: equal quotients, with int coefficients, or
    InexactDivision from both."""
    got = _division_outcome(exact_div, f, g)
    assert got == _division_outcome(_heap_div, f, g)
    if got is not InexactDivision:
        assert all(type(c) is int for c in got.terms.values())
    return got


# (num_vars, scale, dividend, divisor, quotient, InexactDivision or
# ValueError for a divisor that is not primitive).  The last four rows are
# inexact: x1^2 x2^-2 by a divisor with |d|max = 3 and by one whose
# lex-larger exponent has an entry 5, and two dividends whose terms lie on
# distinct lines of 1 - x^-d, each line then a lone term, which no binomial
# divides
BINOMIAL_CASES = [
    pytest.param(1, 1, {(1,): 1, (0,): -1}, {(1,): 2, (0,): -2}, ValueError,
                 id="non-primitive"),
    pytest.param(1, 1, {(4,): 16, (0,): -1}, {(2,): 4, (0,): -1},
                 {(2,): 4, (0,): 1}, id="non-unit-lead"),
    pytest.param(1, 1, {(1,): 3, (0,): -1}, {(1,): 2, (0,): -1}, InexactDivision,
                 id="non-integral-step"),
    pytest.param(1, 1, {(2,): 1, (0,): 1}, {(1,): 1, (0,): -1}, InexactDivision,
                 id="line-remainder"),
    pytest.param(2, 1, {(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): -1},
                 {(1, 0): 1, (0, 1): 1}, id="lower-term-off-origin"),
    pytest.param(2, 1, {(1, 3): 1, (1, 0): -1}, {(0, 1): 1, (0, 0): -1},
                 {(1, 2): 1, (1, 1): 1, (1, 0): 1}, id="direction-first-entry-zero"),
    pytest.param(1, 1, {(3,): 1, (-3,): -1}, {(1,): 1, (-1,): -1},
                 {(2,): 1, (0,): 1, (-2,): 1}, id="negative-exponents"),
    pytest.param(2, 2, {(3, 1): 2, (1, 1): 1, (-1, 1): -1}, {(2, 0): 2, (0, 0): -1},
                 {(1, 1): 1, (-1, 1): 1}, id="scale-2"),
    pytest.param(2, 1, {(2, -2): 1}, {(1, -3): 1, (0, 0): -1}, InexactDivision,
                 id="long-direction"),
    pytest.param(2, 1, {(2, -2): 1}, {(5, 0): 1, (4, 1): -1}, InexactDivision,
                 id="lifted-lead"),
    pytest.param(3, 1, {(-1, 0, 1): -1, (1, 1, 0): 1}, {(0, 0, 0): 1, (-1, 0, -1): -1},
                 InexactDivision, id="lone-terms-near"),
    pytest.param(3, 1, {(-2, 0, 2): -1, (2, 1, -1): 1}, {(0, 0, 0): 1, (-1, 0, -3): -1},
                 InexactDivision, id="lone-terms-far"),
]


@pytest.mark.parametrize("num_vars, scale, f, g, want", BINOMIAL_CASES)
@pytest.mark.parametrize("make", [_int_poly, LaurentPoly], ids=["int", "fraction"])
def test_binomial_division_cases(make, num_vars, scale, f, g, want):
    # the LaurentPoly constructor gives Fraction coefficients, which
    # exact_div rejects even where they are integers
    f, g = make(num_vars, f, scale), make(num_vars, g, scale)
    if make is LaurentPoly or want is ValueError:
        with pytest.raises(ValueError, match="primitive int binomials only"):
            exact_div(f, g)
        return
    if want is not InexactDivision:
        want = LaurentPoly(num_vars, want, scale)
    assert _check_binomial_division(f, g) == want


@settings(derandomize=True, max_examples=200)
@given(st.data())
def test_binomial_division_matches_heap_path(data):
    num_vars = data.draw(st.integers(1, 3), label="num_vars")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")
    exps = st.tuples(*[st.integers(-3, 3)] * num_vars)
    e1, e0 = data.draw(st.lists(exps, min_size=2, max_size=2, unique=True), label="g")
    a, b = data.draw(st.tuples(*[st.integers(-4, 4).filter(bool)] * 2), label="g_c")
    content = math.gcd(a, b)
    g = _int_poly(num_vars, {e1: a // content, e0: b // content}, scale)

    def poly(label, min_size, max_size):
        terms = data.draw(
            st.dictionaries(exps, _nonzero_rationals(), min_size=min_size, max_size=max_size),
            label=label,
        )
        return LaurentPoly(num_vars, terms, scale)

    kind = data.draw(st.sampled_from(("exact", "bumped", "arbitrary")), label="kind")
    f = poly("f", 1, 8) if kind == "arbitrary" else poly("q", 1, 5) * g
    f = algebra._integer_numerators(f)[0]
    if kind == "bumped":
        # an exact product whose leading coefficient is off by one: a
        # quotient rounded down at that step would still divide out
        lead, c = f.leading()
        f = _int_poly(num_vars, {**f.terms, lead: c + 1}, scale)
    _check_binomial_division(f, g)


def _chain_outcome(divide, f, divisors):
    """f divided by each divisor in turn: the last quotient, or the class
    of the exception a division raised and that divisor's index."""
    for index, g in enumerate(divisors):
        try:
            f = divide(f, g)
        except (InexactDivision, ValueError) as exc:
            return type(exc), index
    return f


def _drawn_binomial(data, n, label):
    """A primitive int binomial in n variables with |d|max <= 3."""
    d = data.draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any), label=label + "_d")
    e0 = data.draw(st.tuples(*[st.integers(-2, 2)] * n), label=label + "_e0")
    a, b = data.draw(st.tuples(*[st.integers(-4, 4).filter(bool)] * 2), label=label + "_c")
    content = math.gcd(a, b)
    return _int_poly(n, {tuple(map(add, e0, d)): a // content, e0: b // content})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_packed_division_chain_matches_tuple_reference(data):
    # a chain of divisions, as the dividing reference runs them, against
    # the heap reference divided step by step: the same quotient, or the
    # same exception class at the same divisor
    n = data.draw(st.integers(1, 5), label="num_vars")
    count = data.draw(st.integers(1, 6), label="chain")
    divisors = [_drawn_binomial(data, n, f"g{k}") for k in range(count)]
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    coeffs = st.integers(-5, 5).filter(bool)
    q = _int_poly(n, data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5), label="q"))
    kind = data.draw(st.sampled_from(("exact", "prefix", "bumped", "arbitrary")), label="kind")
    f = q
    if kind != "arbitrary":
        stop = len(divisors)
        if kind == "prefix":
            stop = data.draw(st.integers(0, stop - 1), label="stop")
        for g in divisors[:stop]:
            f = f * g
    if kind == "bumped" and f.terms:
        # an exact product with its leading coefficient off by one
        lead, c = f.leading()
        f = _int_poly(n, {**f.terms, lead: c + 1})
    got = _chain_outcome(exact_div, f, divisors)
    assert got == _chain_outcome(_heap_div, f, divisors)
    if isinstance(got, LaurentPoly):
        assert all(type(c) is int for c in got.terms.values())
    if kind == "exact":
        assert got == q


@pytest.mark.parametrize(
    "P",
    [pytest.param(cp.point, id=f"p{i}") for i, cp in enumerate(default_config().points("koornwinder"), 1)],
)
def test_rank4_columns_match_the_tuple_reference(P):
    # the rank-4 operator's columns over the basis below (2) against the
    # dividing reference, each of whose applications makes 17 divisions
    basis = dominated_partitions((2,), 4)
    reference = DividingShiftOperator(P, 4, *_koorn_generator(P, 4))
    want = [reference.column(key) for key in basis]
    assert [_koorn_operator(P, 4).column(key) for key in basis] == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_packed_binomial_product_matches_the_tuple_product(data):
    # the dividing reference's cof_0 product, formed on packed keys with a
    # half that only just bounds every partial product, against the chain
    # of LaurentPoly products on exponent tuples that formed it before
    n = data.draw(st.integers(1, 3), label="num_vars")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    coeff = st.integers(-4, 4).filter(bool)
    shift = data.draw(exps, label="shift")
    factors = data.draw(
        st.lists(
            st.tuples(exps, exps, coeff, coeff).filter(lambda f: f[0] != f[1]),
            max_size=6,
        ),
        label="factors",
    )
    binomials = [_int_poly(n, {e1: a, e0: b}, scale) for e1, e0, a, b in factors]
    want = _int_poly(n, {shift: 1}, scale)
    for g in binomials:
        want = want * g
    got = _binomial_product(n, scale, shift, [g.terms for g in binomials])
    assert got == want
    assert set(map(type, got.terms.values())) <= {int}


def _act_signed(f: LaurentPoly, perm, signs) -> LaurentPoly:
    """The signed permutation x_i -> x_(perm[i])^(signs[i]) applied to f
    as a whole polynomial: the new exponent of variable perm[i] is signs[i]
    times the old exponent of variable i."""
    out = {}
    for exps, coeff in f.terms.items():
        new = [0] * f.num_vars
        for i, e in enumerate(exps):
            new[perm[i]] = signs[i] * e
        out[tuple(new)] = coeff
    return LaurentPoly(f.num_vars, out, f.scale)


def _reference_weyl_invariant(f: LaurentPoly) -> bool:
    """weyl_invariant as whole-polynomial images of the generators."""
    n = f.num_vars
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if _act_signed(f, perm, [1] * n) != f:
            return False
    signs = [1] * n
    signs[n - 1] = -1
    return _act_signed(f, list(range(n)), signs) == f


@settings(derandomize=True, max_examples=300)
@given(st.data())
def test_weyl_invariant_matches_whole_polynomial_images(data):
    # orbit-sum combinations, the same with one monomial added, and
    # arbitrary polynomials: the term-by-term check gives the verdict of
    # comparing each generator's image of f with f
    n = data.draw(st.integers(1, 3), label="n")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")
    exps = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    kind = data.draw(st.sampled_from(("invariant", "perturbed", "arbitrary")), label="kind")
    if kind == "arbitrary":
        terms = data.draw(st.dictionaries(exps, _nonzero_rationals(), max_size=6), label="f")
        f = LaurentPoly(n, terms, scale)
    else:
        keys = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
            lambda e: tuple(sorted(e, reverse=True))
        )
        coeffs = data.draw(st.dictionaries(keys, _nonzero_rationals(), max_size=3), label="f")
        f = OrbitPoly(n, coeffs, scale).expand()
        if kind == "perturbed":
            e, c = data.draw(st.tuples(exps, _nonzero_rationals()), label="bump")
            f = f + LaurentPoly.monomial(e, c, scale)
    assert weyl_invariant(f) == _reference_weyl_invariant(f)


def _signed_orbit_reference(entries):
    """signed_orbit as it was: every permutation of the entries, each with
    every sign flip of its nonzero entries, deduplicated."""
    seen = set()
    for perm in set(itertools.permutations(entries)):
        nonzero = [i for i, e in enumerate(perm) if e != 0]
        for flips in itertools.product((1, -1), repeat=len(nonzero)):
            image = list(perm)
            for idx, sgn in zip(nonzero, flips):
                image[idx] = sgn * image[idx]
            seen.add(tuple(image))
    return seen


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(-3, 3), max_size=5).map(tuple))
def test_signed_orbit_matches_every_permutation_and_flip(entries):
    assert signed_orbit(entries) == _signed_orbit_reference(entries)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_orbit_forms_act_as_their_expansions(data):
    # sums, scalings and the mismatch a check reports are those of the
    # expansions: the lex-top term of an invariant polynomial sits at a
    # dominant exponent, so leading() and coeff() agree on both forms
    n = data.draw(st.integers(1, 3), label="n")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")
    a, b = (_drawn_orbit_form(data, n, scale, 3) for _ in range(2))
    if data.draw(st.booleans(), label="share a weight"):
        nu, c = next(iter(a.terms.items()))
        b = b + OrbitPoly(n, {nu: c - b.coeff(nu)}, scale)
    w = data.draw(st.one_of(st.just(0), _nonzero_rationals()), label="w")
    assert OrbitPoly.from_poly(a.expand()) == a
    assert (a + b).expand() == a.expand() + b.expand()
    assert (a - b).expand() == a.expand() - b.expand()
    assert (a * w).expand() == a.expand() * w
    assert a.leading() == a.expand().leading()
    assert poly_mismatch(a, b) == poly_mismatch(a.expand(), b.expand())


class TestOrbitPoly:
    def test_never_equal_to_a_laurent_poly(self):
        one = OrbitPoly(1, {(0,): 1})
        assert one.terms == LaurentPoly.monomial((0,)).terms
        assert one != LaurentPoly.monomial((0,)) and LaurentPoly.monomial((0,)) != one

    def test_never_combines_with_a_laurent_poly(self):
        m1 = orbit_sum((1,), 2)
        full = m1.expand()
        for combine in (
            lambda: m1 + full, lambda: full + m1, lambda: m1 - full, lambda: full - m1,
            lambda: m1 * full, lambda: full * m1, lambda: m1 * m1,
        ):
            with pytest.raises(TypeError):
                combine()

    @pytest.mark.parametrize(
        "weight, error",
        [
            ((0, -1), ValueError),
            ((0, 1), ValueError),
            ((1,), DimensionMismatch),
            ((1, 0, 0), DimensionMismatch),
            ((True, 0), DimensionMismatch),
        ],
        ids=["negative", "increasing", "short", "long", "bool"],
    )
    def test_weights_must_be_dominant(self, weight, error):
        with pytest.raises(error):
            OrbitPoly(2, {weight: 1})
        body = OrbitPoly(2, {(1, 0): 1}).to_json_obj()
        body["terms"][0]["exps"] = list(weight)
        with pytest.raises((ValueError, DimensionMismatch)):
            OrbitPoly.from_json_obj(body)

    def test_construction_drops_zeros_and_coerces(self):
        f = OrbitPoly(2, {(1, 0): 0, (1, 1): 3, (0, 0): "1/2"})
        assert f.terms == {(1, 1): F(3), (0, 0): F(1, 2)}
        assert all(type(c) is F for c in f.terms.values())
        assert OrbitPoly.from_json_obj(f.to_json_obj()) == f

    def test_expansion_writes_each_orbit_once(self):
        f = OrbitPoly(2, {(1, 0): 2, (1, 1): 3})
        assert f.expand() == LaurentPoly(
            2,
            {
                (1, 0): 2, (-1, 0): 2, (0, 1): 2, (0, -1): 2,
                (1, 1): 3, (1, -1): 3, (-1, 1): 3, (-1, -1): 3,
            },
        )


class TestOrbits:
    def test_signed_orbit_counts(self):
        assert len(signed_orbit((1, 0))) == 4
        assert len(signed_orbit((2, 1, 0))) == 24
        assert len(signed_orbit((1, 1))) == 4

    def test_monomial_symmetric_one_var(self):
        assert monomial_symmetric((2,), 1) == lp1({(2,): 1, (-2,): 1})
        assert monomial_symmetric((), 1) == LaurentPoly.monomial((0,))

    def test_monomial_symmetric_invariant(self):
        m = monomial_symmetric((2, 1), 3)
        assert weyl_invariant(m)
        assert len(m.terms) == 24

    def test_weyl_invariant_rejects(self):
        assert not weyl_invariant(lp1({(1,): 1}))
        assert not weyl_invariant(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))

    def test_decompose_symmetric(self):
        # the orbit form of an invariant polynomial: its coefficients on
        # the orbit sums, which expand back to it
        f = 3 * monomial_symmetric((2, 1), 2) + F(1, 2) * monomial_symmetric((1,), 2)
        got = OrbitPoly.from_poly(f)
        assert got.terms == {(2, 1): F(3), (1, 0): F(1, 2)}
        assert got.expand() == f

    def test_decompose_rejects_non_invariant(self):
        with pytest.raises(ValueError):
            OrbitPoly.from_poly(LaurentPoly(2, {(1, 0): 1}))

    @pytest.mark.parametrize(
        "terms",
        [
            # x1 + 1/x1 + x2 + 1/x2: fixed by swapping x1 and x2 and by
            # inverting x3, moved by swapping x2 and x3
            pytest.param(
                {(1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 1},
                id="transposition",
            ),
            # x1 x2 x3: fixed by every permutation, moved by inverting x3
            pytest.param({(1, 1, 1): 1}, id="last-inversion"),
        ],
    )
    def test_decompose_rejects_one_broken_generator(self, terms):
        with pytest.raises(
            ValueError, match="^polynomial is not invariant under the signed-permutation group$"
        ):
            OrbitPoly.from_poly(LaurentPoly(3, terms))


class TestClearedShiftOperator:
    def test_forward_difference_style(self):
        # generator (1-x)^2 / ((1-x)(1-1/x)) (T - 1) = -x (T - 1); its image
        # under x -> 1/x is -(1/x) (T^-1 - 1).  On f = x + 1/x the operator
        # gives -x((q-1)x + (1/q-1)/x) - (1/x)((1/q-1)x + (q-1)/x).  Its
        # two denominators are one root 1 - x twice, up to a unit, so they
        # are no Weyl denominator and the straightening build refuses them
        P = ParamPoint(sqrt_q=F(1, 2))
        numer, denom = [(1, (1,))] * 2, [(1, (1,)), (1, (-1,))]
        op = DividingShiftOperator(P, 1, numer, denom)
        f = lp1({(1,): 1, (-1,): 1})
        q = P.q
        assert op.apply(f) == lp1({(2,): 1 - q, (0,): 2 * (1 - 1 / q), (-2,): 1 - q})
        with pytest.raises(ValueError, match="not distinct factors"):
            ClearedShiftOperator(P, 1, numer, denom)

    def test_unit_sharing_in_lcd(self):
        # the generator denominator 1 - x^2 and its image 1 - 1/x^2 differ by
        # a unit and must collapse to one canonical factor of the LCD; the
        # straightening build reads the one root 2 and applies the same
        P = ParamPoint(sqrt_q=F(1, 2))
        op = DividingShiftOperator(P, 1, [(1, (-2,))], [(1, (2,))])
        assert len(op._lcd) == 1
        straight = ClearedShiftOperator(P, 1, [(1, (-2,))], [(1, (2,))])
        for top in range(4):
            assert straight.apply(orbit_sum((top,), 1)).expand() == op.apply(
                monomial_symmetric((top,), 1)
            )

    @pytest.mark.parametrize(
        "apply, point, f",
        [
            (
                lambda f, P: koorn_apply(OrbitPoly.from_poly(f), P, 2),
                "koornwinder",
                LaurentPoly.monomial((1, 0)),
            ),
            (aw_apply, "askey-wilson", LaurentPoly.monomial((1,))),
            (b2_apply, "b2", LaurentPoly.monomial((2, 0), 1, 2)),
        ],
    )
    def test_non_invariant_input_raises(self, apply, point, f):
        # a full-term polynomial reaches an operator as its orbit form,
        # which exists only for an invariant one; the one- and two-variable
        # layers form it at their apply calls
        P = default_config().points(point)[0].point
        with pytest.raises(ValueError, match="is not invariant"):
            apply(f, P)

    def test_operator_takes_orbit_forms_of_its_own_lattice(self):
        P = default_config().points("koornwinder")[0].point
        op = _koorn_operator(P, 2)
        with pytest.raises(TypeError, match="applies to orbit forms"):
            op.apply(monomial_symmetric((1,), 2))
        for f in (orbit_sum((1,), 3), orbit_sum((2,), 2, 2)):
            with pytest.raises(DimensionMismatch):
                op.apply(f)
        assert koorn_apply(orbit_sum((1,), 2), P, 2) == op.apply(orbit_sum((1,), 2))

    @pytest.mark.parametrize(
        "kind, build, absorbs",
        [
            pytest.param("koornwinder", lambda P: _koorn_operator(P, 2), True, id="koornwinder"),
            pytest.param("askey-wilson", _aw_operator, True, id="askey-wilson"),
            pytest.param("b2", _b2_operator, False, id="b2"),
        ],
    )
    def test_shipped_operators_annihilate_constants(self, kind, build, absorbs):
        # every term is A_w (T_w - 1), so D 1 = 0; the shift pole
        # 1 - q x_1^2 is a denominator of the first two generators only
        op = build(default_config().points(kind)[0].point)
        assert op.apply(orbit_sum((), op.num_vars, op.scale)).is_zero()
        assert (op._pole is not None) == absorbs

    def test_b2_divisors_are_the_full_lcd(self):
        # no B2 denominator is the pole 1 - q^(1/2) y_1^2: nothing is absorbed
        P = default_config().points("b2")[0].point
        op = DividingShiftOperator(P, 2, *_b2_generator(P), scale=2)
        assert _b2_operator(P)._pole is None
        lcd, _ = _explicit_build("b2", P, 2, 2)
        want = [algebra._integer_numerators(canon)[0] for canon in _division_chain(lcd)]
        assert op._pole is None
        assert op._divisors == want
        # the short-root factors, in one lattice variable each, come first
        assert [len(_moved(g)) for g in want] == [1, 1, 2, 2]

    def test_half_lattice_pole_is_absorbed(self):
        # on the scale-2 lattice with y = x^(1/2), x -> q x is y -> q^(1/2) y
        # and the pole is 1 - q^(1/2) y^2: the Askey-Wilson generator in y at
        # base q^(1/2) is the one-variable operator at that base
        P = ParamPoint(sqrt_q=F(1, 4))
        base = ParamPoint(sqrt_q=F(1, 2), a=3, b=5, c=7, d=11)
        numer, denom, _ = _aw_generator(base)
        op = ClearedShiftOperator(P, 1, numer, denom, scale=2)
        dividing = DividingShiftOperator(P, 1, numer, denom, scale=2)
        assert op._pole is not None and dividing._pole == op._pole
        assert len(dividing._divisors) == 1
        for top in range(4):
            got = op.apply(orbit_sum((top,), 1, 2))
            assert got.terms == _aw_operator(base).apply(orbit_sum((top,), 1)).terms
            assert dividing.apply(monomial_symmetric((top,), 1, 2)) == got.expand()

    def test_generator_must_be_invariant_under_its_stabilizer(self):
        # (1 - x1 x2 / 2) is not invariant under x2 -> 1/x2, which fixes x1
        P = ParamPoint(sqrt_q=F(1, 2))
        numer = [(F(1, 2), (1, 1))]
        denom = [(1, (1, 1)), (1, (1, -1))]
        with pytest.raises(ValueError, match="generator coefficient is not invariant"):
            ClearedShiftOperator(P, 2, numer, denom)
        with pytest.raises(ValueError, match="generator coefficient is not invariant"):
            _FractionOperator(P, 2, numer, denom)

    def test_generator_coefficients_must_be_invariant_under_its_stabilizer(self):
        # (1 - 2 x1 x2) (1 - 3 x1 / x2) keeps its support under x2 -> 1/x2,
        # but swaps the coefficients 2 and 3
        P = ParamPoint(sqrt_q=F(1, 2))
        numer = [(2, (1, 1)), (3, (1, -1))]
        denom = [(1, (1, 1)), (1, (1, -1))]
        for build in (ClearedShiftOperator, _FractionOperator):
            with pytest.raises(ValueError, match="generator coefficient is not invariant"):
                build(P, 2, numer, denom)

    def test_records_must_match_the_variables(self):
        P = ParamPoint(sqrt_q=F(1, 2))
        with pytest.raises(DimensionMismatch):
            ClearedShiftOperator(P, 2, [(3, (1,))], [(1, (2, 0))])

    def test_denominator_factors_must_be_binomials(self):
        # 1 - 2 x^0 is the constant -1 and 1 - 0 x is 1: neither has a
        # primitive integer binomial form to divide by
        P = ParamPoint(sqrt_q=F(1, 2))
        for record in ((2, (0,)), (0, (1,))):
            with pytest.raises(ValueError, match="is not a binomial"):
                ClearedShiftOperator(P, 1, [(3, (1,))], [(1, (2,)), record])


# -- the triangular solve on a synthetic column map ------------------------------

# an upper-triangular map with the top key first: its diagonal entries 5, 3,
# 1 and 7 are the eigenvalues, and nothing maps into (0, 0)
TRIANGULAR = {
    (2, 0): {(2, 0): F(5), (1, 1): F(2), (1, 0): F(1)},
    (1, 1): {(1, 1): F(3), (1, 0): F(4)},
    (1, 0): {(1, 0): F(1)},
    (0, 0): {(0, 0): F(7)},
}


class TestTriangularSolve:
    def test_back_substitutes_the_top_eigenvector(self):
        # c_(1,1) = 2 / (5 - 3) and c_(1,0) = (1 + 4 c_(1,1)) / (5 - 1);
        # no column above (0, 0) reaches it, so the eigenvector leaves it out
        basis = list(TRIANGULAR)
        coeffs = solve_triangular_eigenproblem(basis, TRIANGULAR.__getitem__)
        assert coeffs == {(2, 0): 1, (1, 1): 1, (1, 0): F(5, 4)}
        for key in basis:
            image = sum(c * TRIANGULAR[prev].get(key, 0) for prev, c in coeffs.items())
            assert image == 5 * coeffs.get(key, 0)

    def test_shared_eigenvalue_names_both_keys(self):
        columns = {**TRIANGULAR, (1, 0): {(1, 0): F(5)}}
        with pytest.raises(DegenerateEigenvalues) as info:
            solve_triangular_eigenproblem(list(columns), columns.__getitem__)
        assert str(info.value) == "weights (2, 0) and (1, 0) share the eigenvalue 5"

    def test_column_leaving_the_basis_raises(self):
        # the top column reaches (1, 0), which this basis lacks
        with pytest.raises(ValueError) as info:
            solve_triangular_eigenproblem([(2, 0), (1, 1)], TRIANGULAR.__getitem__)
        assert str(info.value) == (
            "operator image of (2, 0) leaves the dominance span at (1, 0)"
        )


# -- the explicit operator sum, kept as the reference for the orbit fold -------


def _mono(n, spots, coeff):
    exps = [0] * n
    for i, p in spots:
        exps[i] += p
    return LaurentPoly.monomial(exps, coeff)


def _factor(u, e, scale=1):
    """The factor 1 - u x^e of a record as a LaurentPoly."""
    n = len(e)
    return LaurentPoly(n, {(0,) * n: 1, tuple(e): -rat(u)}, scale)


def _unit_normalize(p: LaurentPoly):
    """Split p into unit * canonical where unit is coeff * monomial.

    The canonical factor has all per-variable minimum exponents zero and its
    lex-leading coefficient equal to one, so factors that differ by a
    monomial unit (such as 1 - x^2 and 1 - x^-2) share one canonical key.
    """
    lo, _ = _exponent_box(p)
    shift = tuple(-e for e in lo)
    shifted = {
        tuple(x + y for x, y in zip(exps, shift)): c for exps, c in p.terms.items()
    }
    lead = max(shifted)
    lc = shifted[lead]
    canon = LaurentPoly(p.num_vars, {e: c / lc for e, c in shifted.items()}, p.scale)
    return canon, lc, lo


class _Term(NamedTuple):
    """One summand coeff(x) (T - 1) of the explicit sum: coeff is the
    product of numer over the product of denom, and T is the shift
    x_var -> q^step x_var."""

    numer: tuple
    denom: tuple
    var: int
    step: int


def _koorn_terms(P, n):
    """The 2n terms of the Koornwinder operator, each written out."""
    q, t = P.q, P.t
    one = LaurentPoly.monomial((0,) * n)
    terms = []
    for i in range(n):
        for step in (1, -1):
            numer = [one - _mono(n, [(i, step)], u) for u in (P.a, P.b, P.c, P.d)]
            denom = [
                one - _mono(n, [(i, 2 * step)], 1),
                one - _mono(n, [(i, 2 * step)], q),
            ]
            for j in range(n):
                if j == i:
                    continue
                numer.append(one - _mono(n, [(i, step), (j, 1)], t))
                numer.append(one - _mono(n, [(i, step), (j, -1)], t))
                denom.append(one - _mono(n, [(i, step), (j, 1)], 1))
                denom.append(one - _mono(n, [(i, step), (j, -1)], 1))
            terms.append(_Term(tuple(numer), tuple(denom), i, step))
    return tuple(terms)


def _aw_terms(P):
    """The up- and down-shift terms of the Askey-Wilson operator."""
    q = P.q
    one = LaurentPoly.monomial((0,))
    x2 = LaurentPoly.monomial((2,))
    xm2 = LaurentPoly.monomial((-2,))

    def affine(u, power):
        return one - LaurentPoly.monomial((power,), rat(u))

    params = (P.a, P.b, P.c, P.d)
    up = _Term(tuple(affine(u, 1) for u in params), (one - x2, one - x2 * q), 0, 1)
    down = _Term(tuple(affine(u, -1) for u in params), (one - xm2, one - xm2 * q), 0, -1)
    return (up, down)


def _b2_terms(P):
    """The four (T - 1) shift terms of the B2 operator, one per direction."""
    t, T = P.t, P.T
    terms = []
    for step in (1, -1):
        for var in (0, 1):
            short = [0, 0]
            short[var] = 2 * step
            roots = []
            for other in (-2, 2):
                long = list(short)
                long[1 - var] = other
                roots.append(long)
            roots.append(short)
            terms.append(
                _Term(
                    tuple(_factor(u, e, 2) for u, e in zip((t, t, T), roots)),
                    tuple(_factor(1, e, 2) for e in roots),
                    var,
                    step,
                )
            )
    return tuple(terms)


def _term_pole(P, term, num_vars, scale):
    """The canonical key of 1 - q^step x_var^2, the factor that divides
    T f - f for invariant f (on the scale-2 lattice, 1 - q^(step/2) y^2 in
    the lattice variable y)."""
    power = [0] * num_vars
    power[term.var] = 2
    coeff = P.sqrt_q ** (2 * term.step // scale)
    pole = LaurentPoly(num_vars, {(0,) * num_vars: 1, tuple(power): -coeff}, scale)
    return poly_key(_unit_normalize(pole)[0])


def _explicit_terms(kind, P, n):
    """The explicit terms of the shipped operator of a kind."""
    if kind == "koornwinder":
        return _koorn_terms(P, n)
    if kind == "askey-wilson":
        return _aw_terms(P)
    return _b2_terms(P)


@lru_cache(maxsize=None)
def _explicit_build(kind, P, num_vars, scale, absorb=False):
    """One cofactor per term of _explicit_terms: the LCD over all term
    denominators, and each term's numerator times the LCD factors its
    denominator lacks.  With absorb, each term's pole (_term_pole) found
    among its denominators leaves the LCD, once, and is returned to divide
    that term's T f - f."""
    terms = _explicit_terms(kind, P, num_vars)
    prepared = []
    lcd: dict = {}
    for term in terms:
        pole_key = _term_pole(P, term, num_vars, scale) if absorb else None
        pole = None
        counts: dict = {}
        unit_coeff = F(1)
        unit_shift = None
        for factor in term.denom:
            canon, lc, lo = _unit_normalize(factor)
            key = poly_key(canon)
            unit_coeff *= lc
            if unit_shift is None:
                unit_shift = list(lo)
            else:
                unit_shift = [a + b for a, b in zip(unit_shift, lo)]
            if pole is None and key == pole_key:
                pole = canon
                continue
            counts[key] = counts.get(key, 0) + 1
            if key not in lcd or lcd[key][1] < counts[key]:
                lcd[key] = (canon, counts[key])
        numer = LaurentPoly.monomial((0,) * num_vars, scale=scale)
        for f in term.numer:
            numer = numer * f
        prepared.append((term, pole, counts, numer, unit_coeff, tuple(unit_shift or ())))
    final = []
    for term, pole, counts, numer, unit_coeff, unit_shift in prepared:
        cof = numer
        for key, (canon, mult) in lcd.items():
            extra = mult - counts.get(key, 0)
            for _ in range(extra):
                cof = cof * canon
        if unit_shift:
            inv_shift = tuple(-e for e in unit_shift)
            cof = cof * LaurentPoly.monomial(inv_shift, 1 / unit_coeff, cof.scale)
        else:
            cof = cof * (1 / unit_coeff)
        final.append((term.var, term.step, pole, cof))
    return lcd, final


def _moved(p: LaurentPoly) -> set:
    """The variables with a nonzero exponent in some term of p."""
    return {i for e in p.terms for i, x in enumerate(e) if x}


def _division_chain(lcd):
    """The factors of an LCD, a dict of (canonical factor, multiplicity),
    each repeated to its multiplicity, in the order of the cleared
    operator's division chain: by the number of variables they move, the
    one-variable factors first, and in the dict's order among equals.  A
    canonical factor has per-variable minimum exponent zero, so the
    variables it moves are those of _moved."""
    chain = [canon for canon, mult in lcd.values() for _ in range(mult)]
    return sorted(chain, key=lambda g: len(_moved(g)))


def _explicit_apply(kind, P, num_vars, f, scalar=1, scale=1, absorb=False):
    """The operator applied as the explicit sum of its terms: one product
    per term, summed, then divided by the LCD factors.  With absorb, each
    term's T f - f is divided by its pole before its product."""
    lcd, final = _explicit_build(kind, P, num_vars, scale, absorb)
    total = LaurentPoly.zero(f.num_vars, f.scale)
    for var, step, pole, cof in final:
        g = qshift(f, var, step, P) - f
        if g.is_zero():
            continue
        if pole is not None:
            g = _divide(g, pole)
        total = total + cof * g
    if total.is_zero():
        return total
    for canon in _division_chain(lcd):
        total = _divide(total, canon)
    if scalar != 1:
        total = total * (1 / rat(scalar))
    return total


def _orbit_case(kind, P, n):
    """(shipped operator, its dividing reference, scalar, lattice scale)."""
    if kind == "koornwinder":
        op, generator, scale = _koorn_operator(P, n), _koorn_generator(P, n), 1
    elif kind == "askey-wilson":
        op, generator, scale = _aw_operator(P), _aw_generator(P), 1
    else:
        op, generator, scale = _b2_operator(P), _b2_generator(P), 2
    return op, DividingShiftOperator(P, n, *generator, scale), generator[2], scale


# (kind, point, num_vars, largest input exponent) for every shipped operator
ORBIT_CASES = [
    pytest.param(kind, cp.point, n, top, id=f"{kind}-p{i}-n{n}")
    for kind, ranks in (
        ("koornwinder", ((1, 4), (2, 2), (3, 1))),
        ("askey-wilson", ((1, 4),)),
        ("b2", ((2, 3),)),
    )
    for i, cp in enumerate(default_config().points(kind), 1)
    for n, top in ranks
]


def _monic_key(p):
    """p scaled by the inverse of its lex-leading coefficient: the support
    and the coefficient ratios, blind to a constant factor."""
    return poly_key(p * (1 / rat(p.leading()[1])))


def _traced_outcome(apply, f):
    """apply(f), or InexactDivision, with the (dividend, divisor) of every
    exact division it made, each up to a constant factor."""
    divisions = []
    real_div = algebra.exact_div

    def recording_div(num, den):
        divisions.append((_monic_key(num), _monic_key(den)))
        return real_div(num, den)

    with mock.patch.object(algebra, "exact_div", recording_div):
        try:
            result = apply(f)
        except InexactDivision:
            result = InexactDivision
    return result, divisions


def _drawn_orbit_form(data, n, scale, top) -> OrbitPoly:
    """A sum of up to three orbit sums with nonzero rational coefficients,
    each of a dominant tuple with entries at most top, as an orbit form; on
    the doubled lattice the entries' parities mix, so b2's cosets mix too."""
    orbits = data.draw(
        st.dictionaries(
            st.lists(st.integers(0, top), min_size=n, max_size=n).map(
                lambda e: tuple(sorted(e, reverse=True))
            ),
            _nonzero_rationals(),
            min_size=1,
            max_size=3,
        ),
        label="orbit sums",
    )
    return OrbitPoly(n, orbits, scale)


@pytest.mark.parametrize("kind, P, n, top", ORBIT_CASES)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_orbit_fold_matches_explicit_sum(kind, P, n, top, data):
    shipped, op, scalar, scale = _orbit_case(kind, P, n)
    f = _drawn_orbit_form(data, n, scale, top).expand()
    got, divisions = _traced_outcome(op.apply, f)
    want, _ = _traced_outcome(lambda f: _explicit_apply(kind, P, n, f, scalar, scale), f)
    absorbed, reference = _traced_outcome(
        lambda f: _explicit_apply(kind, P, n, f, scalar, scale, absorb=True), f
    )
    assert got == want == absorbed
    # the shipped operator straightens instead, dividing by the pole alone;
    # on b2's lattice the drawn orbits mix its weight cosets
    assert _traced_outcome(lambda f: shipped.apply(OrbitPoly.from_poly(f)).expand(), f)[0] == got
    # the fold divides g_0 by its pole once, where the explicit sum divides
    # each term's T_w f - f by its own, the generator's first; the divisions
    # by the factors of L follow, in the same order on the same inputs
    _, final = _explicit_build(kind, P, n, scale, True)
    poles = sum(pole is not None for _, _, pole, _ in final) if reference else 0
    assert divisions == reference[:poles][:1] + reference[poles:]


# -- the Fraction build, kept as the reference for the record build -----------


def _fold(h, images):
    """sum over images (spec, unit) of unit times the relabelled h, on
    exponent tuples: the spec's (source variable, sign, unit exponent) per
    variable takes x^e to the exponent tuple with entries s e_k + u, so an
    image of the operator gives (L / w(L)) w(h).  The reference for the
    packed product and fold of DividingShiftOperator.apply."""
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
    return LaurentPoly._raw(h.num_vars, {e: c for e, c in out.items() if c}, h.scale)


class _FractionOperator(DividingShiftOperator):
    """The operator built from LaurentPoly factors over Fraction: every
    factor image goes through _act_signed and _unit_normalize, L is the
    product of the lead-one canonical factors, and apply shifts with
    qshift, multiplies and folds on exponent tuples (_fold) and packs the
    fold for the divisions.  It shares column with the record build.  cof is
    L A_0 times the absorbed pole's canonical factor, and radix the product
    of the denominators that clear the pole's and L's factors to primitive
    integer binomials, so the record build's cof_0 is radix * cof."""

    def __init__(self, P, num_vars, numer_records, denom_records, scalar=1, scale=1):
        self.P = P
        self.num_vars, self.scale = num_vars, scale
        self._columns = {}
        self.scalar = rat(scalar)
        n = num_vars
        denom_factors = [_factor(u, e, scale) for u, e in denom_records]
        orbit = [algebra._swap(n, 0, i, s) for i in range(n) for s in (1, -1)]
        normal = [_unit_normalize(factor) for factor in denom_factors]
        keys = [poly_key(canon) for canon, _, _ in normal]
        kept = list(zip(denom_factors, keys))
        self._pole, pole_radix = None, 1
        pole = _factor(P.sqrt_q ** (2 // scale), (2,) + (0,) * (n - 1), scale)
        pole_key = poly_key(_unit_normalize(pole)[0])
        if pole_key in keys:
            k = keys.index(pole_key)
            self._pole, pole_radix = algebra._integer_numerators(normal[k][0])
            del kept[k]
        lcd: dict = {}
        for perm, signs in orbit:
            counts: dict = {}
            for factor, _ in kept:
                canon, _, _ = _unit_normalize(_act_signed(factor, perm, signs))
                key = poly_key(canon)
                counts[key] = counts.get(key, 0) + 1
                if key not in lcd or lcd[key][1] < counts[key]:
                    lcd[key] = (canon, counts[key])
        self._lcd = lcd
        cof = LaurentPoly.monomial((0,) * n, scale=scale)
        for u, e in numer_records:
            cof = cof * _factor(u, e, scale)
        unit_coeff, unit_shift = F(1), (0,) * n
        for _, lc, lo in normal:
            unit_coeff *= lc
            unit_shift = tuple(a + b for a, b in zip(unit_shift, lo))
        kept_keys = [key for _, key in kept]
        for key, (canon, mult) in lcd.items():
            for _ in range(mult - kept_keys.count(key)):
                cof = cof * canon
        self.cof = cof * LaurentPoly.monomial(
            tuple(-e for e in unit_shift), 1 / unit_coeff, scale
        )
        self._cof, cof_den = algebra._integer_numerators(self.cof)
        images = [self._image(perm, signs) for perm, signs in orbit]
        unit_den = math.lcm(*(unit.denominator for _, unit in images))
        self._images = [(spec, int(unit * unit_den)) for spec, unit in images]
        self._divisors, self.radix = [], pole_radix
        for canon in _division_chain(lcd):
            binomial, r = algebra._integer_numerators(canon)
            self._divisors.append(binomial)
            self.radix *= r
        self._unscale = F(self.radix, cof_den * unit_den) / self.scalar
        others = list(range(1, n))
        stabilizer = [algebra._swap(n, j, k, 1) for j, k in zip(others, others[1:])]
        if others:
            stabilizer.append(algebra._swap(n, others[-1], others[-1], -1))
        for perm, signs in stabilizer:
            if _fold(self._cof, [self._image(perm, signs)]) != self._cof:
                raise ValueError(
                    "generator coefficient is not invariant under permutations "
                    "and inversions of the other variables"
                )

    def _image(self, perm, signs):
        coeff, shift = F(1), (0,) * len(perm)
        for canon, mult in self._lcd.values():
            image, lc, lo = _unit_normalize(_act_signed(canon, perm, signs))
            if self._lcd.get(poly_key(image), (None, 0))[1] != mult:
                raise ValueError("denominators are not closed under signed permutations")
            coeff *= lc**mult
            shift = tuple(e - mult * x for e, x in zip(shift, lo))
        source = [None] * len(perm)
        for k, (p, s) in enumerate(zip(perm, signs)):
            source[p] = (k, s)
        return tuple((k, s, e) for (k, s), e in zip(source, shift)), 1 / coeff

    def apply(self, f):
        if not weyl_invariant(f):
            raise ValueError("operator input is not invariant under signed permutations")
        g = qshift(f, 0, 1, self.P) - f
        if g.is_zero():
            return LaurentPoly.zero(f.num_vars, f.scale)
        g, g_den = algebra._integer_numerators(g)
        if self._pole is not None:
            g = algebra.exact_div(g, self._pole)
        total = _fold(self._cof * g, self._images)
        if total.is_zero():
            return total
        for divisor in self._divisors:
            total = algebra.exact_div(total, divisor)
        return total * (self._unscale / g_den)


def _check_builds_agree(P, n, numer, denom, scalar, scale, keys):
    """The record build and the Fraction build of one generator have the
    same LCD factors with the same multiplicities, in the same order, the
    same absorbed pole, the same cof_0 once the multiplier folded into
    _unscale is put back (the record build's cof_0 being primitive), and, at
    each key, the same application: the same result or InexactDivision,
    after the same divisions up to constants."""
    op = DividingShiftOperator(P, n, numer, denom, scalar, scale)
    ref = _FractionOperator(P, n, numer, denom, scalar, scale)
    assert list(op._lcd.values()) == [
        (algebra._integer_numerators(c)[0], m) for c, m in ref._lcd.values()
    ]
    assert op._divisors == ref._divisors
    assert op._pole == ref._pole
    assert op._cof * (op._unscale * op.scalar) == ref.cof * ref.radix
    assert math.gcd(*op._cof.terms.values()) == 1
    for key in keys:
        f = monomial_symmetric(key, n, scale)
        assert _traced_outcome(op.apply, f) == _traced_outcome(ref.apply, f)
    return op, ref


def _partitions(n, top):
    """The partitions of weight at most top with at most n parts, padded."""
    return [
        mu
        for w in range(top + 1)
        for mu in dominated_partitions((w,), n)
        if sum(mu) == w
    ]


BUILD_CASES = [
    pytest.param(kind, cp.point, n, id=f"{kind}-p{i}-n{n}")
    for kind, ranks in (("koornwinder", (1, 2, 3)), ("askey-wilson", (1,)), ("b2", (2,)))
    for i, cp in enumerate(default_config().points(kind), 1)
    for n in ranks
]


@pytest.mark.parametrize("kind, P, n", BUILD_CASES)
def test_record_build_matches_fraction_build(kind, P, n):
    # every dominant key of weight at most 3; on the doubled B2 lattice the
    # weights (2 r1 + r2, r2) with r1 + r2 <= 3
    if kind == "koornwinder":
        generator, scale, keys = _koorn_generator(P, n), 1, _partitions(n, 3)
    elif kind == "askey-wilson":
        generator, scale, keys = _aw_generator(P), 1, _partitions(n, 3)
    else:
        keys = [(2 * r1 + r2, r2) for r1 in range(4) for r2 in range(4 - r1)]
        generator, scale = _b2_generator(P), 2
    op, ref = _check_builds_agree(P, n, *generator, scale, keys)
    shipped = ClearedShiftOperator(P, n, *generator, scale)
    for key in keys:
        assert op.column(key) == ref.column(key) == shipped.column(key)


def _records(data, n, label):
    """A few records (u, e) whose multiset is invariant under the inversion
    of x_2 when n = 2: a record with e_2 != 0 comes with its mirror."""
    out = []
    for u, e in data.draw(
        st.lists(
            st.tuples(
                _nonzero_rationals(),
                st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple).filter(any),
            ),
            max_size=3,
        ),
        label=label,
    ):
        out.append((u, e))
        if n == 2 and e[1]:
            out.append((u, (e[0], -e[1])))
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_record_build_matches_fraction_build_on_drawn_generators(data):
    # random generators, some with the pole among their denominators: the
    # two builds agree, and on an orbit sum each application divides the
    # same dividends in the same order, or both raise InexactDivision at the
    # same step
    n = data.draw(st.sampled_from((1, 2)), label="n")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")
    P = ParamPoint(sqrt_q=data.draw(st.sampled_from((F(1, 2), F(-2, 3), F(3))), label="sqrt_q"))
    numer = _records(data, n, "numer")
    denom = _records(data, n, "denom")
    if data.draw(st.booleans(), label="pole"):
        # 1 - x_1^-2 / q is a unit times the pole 1 - q x_1^2
        denom.append((1 / P.sqrt_q ** (2 // scale), (-2,) + (0,) * (n - 1)))
    _check_builds_agree(P, n, numer, denom, F(2, 3), scale, _partitions(n, 2))


# -- the straightening operator against the dividing reference ----------------


def _kept_roots(n, a, b):
    """The roots alpha with alpha_1 > 0 of the system {+-a e_i} and
    {+-b e_i +- b e_j}: a e_1 and b (e_1 +- e_j)."""
    roots = [(a,) + (0,) * (n - 1)]
    for j in range(1, n):
        for s in (b, -b):
            roots.append(tuple({0: b, j: s}.get(k, 0) for k in range(n)))
    return roots


def _drawn_root_generator(data, n, scale, P):
    """(numerator records, denominator records, whether rho is on the
    lattice) of a drawn B_n or C_n system: its roots alpha with alpha_1 > 0
    as the denominators 1 - x^alpha, maybe written as the unit multiples
    1 - x^-alpha, maybe the pole too, and a numerator invariant under the
    signed permutations of x_2..x_n, each drawn record with its images."""
    b = data.draw(st.sampled_from((1, 2)), label="b")
    if n == 1:
        a = data.draw(st.sampled_from((1, 2, 3, 4)), label="a")
    else:
        a = data.draw(st.sampled_from((b, 2 * b)), label="a")
    # rho is a (n - 1/2, ..., 1/2) for B_n, b (n, ..., 1) for C_n, a / 2 in rank 1
    integral = (a if n == 1 or a == b else 2) % 2 == 0
    # a root's unit form brings the unit -x^alpha into A_0, so the short
    # root and the pair roots, the two orbits of the stabilizer, each
    # change form as a whole
    flip = [data.draw(st.booleans(), label="unit form")] * 2
    flip[1:] = [data.draw(st.booleans(), label="pair unit form")] * (2 * n - 2)
    denom = [
        (1, tuple(map(neg, e))) if flipped else (1, e)
        for e, flipped in zip(_kept_roots(n, a, b), flip)
    ]
    if data.draw(st.booleans(), label="pole"):
        u = P.sqrt_q ** (2 // scale)
        first = (2,) + (0,) * (n - 1)
        if data.draw(st.booleans(), label="pole unit form"):
            u, first = 1 / u, tuple(map(neg, first))
        denom.append((u, first))
    denom = data.draw(st.permutations(denom), label="denominator order")
    numer = []
    for u, e in data.draw(
        st.lists(
            st.tuples(
                _nonzero_rationals(),
                st.tuples(st.integers(-2, 2), *[st.integers(-1, 1)] * (n - 1)).filter(any),
            ),
            max_size=2,
        ),
        label="numerator records",
    ):
        numer += [(u, e[:1] + rest) for rest in sorted(signed_orbit(e[1:]))]
    return numer, denom, integral


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_straightening_matches_the_dividing_reference_on_drawn_root_systems(data):
    # ranks 1-3 on both lattices, with and without the pole, over drawn
    # stabilizer-invariant numerators: on every drawn orbit form the
    # straightening operator's image is the orbit form of the dividing
    # reference's image of its expansion, or both raise InexactDivision; a
    # system whose rho is off the lattice is refused
    n = data.draw(st.integers(1, 3), label="n")
    scale = data.draw(st.sampled_from((1, 2)), label="scale")
    P = ParamPoint(sqrt_q=data.draw(st.sampled_from((F(1, 2), F(-2, 3), F(3))), label="sqrt_q"))
    numer, denom, integral = _drawn_root_generator(data, n, scale, P)
    if not integral:
        with pytest.raises(ValueError, match="off the lattice"):
            ClearedShiftOperator(P, n, numer, denom, F(2, 3), scale)
        return
    op = ClearedShiftOperator(P, n, numer, denom, F(2, 3), scale)
    ref = DividingShiftOperator(P, n, numer, denom, F(2, 3), scale)
    assert (op._pole is None) == (ref._pole is None)
    for _ in range(3):
        f = _drawn_orbit_form(data, n, scale, 3)
        want = _traced_outcome(ref.apply, f.expand())[0]
        if want is not InexactDivision:
            want = OrbitPoly.from_poly(want)
        assert _traced_outcome(op.apply, f)[0] == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_straightening_build_refuses_denominators_off_a_root_system(data):
    # the kept roots of a B_n or C_n system with one of them dropped,
    # repeated, given a u other than 1 or joined by a vector that is no
    # root, or the short and long roots in a ratio other than 1 or 2
    n = data.draw(st.integers(1, 3), label="n")
    b = data.draw(st.sampled_from((1, 2)), label="b")
    roots = _kept_roots(n, 2 * b, b)
    records = [(1, e) for e in roots]
    k = data.draw(st.integers(0, len(records) - 1), label="which")
    breaks = ["drop", "repeat", "scale", "extra"] + (["ratio"] if n > 1 else [])
    kind = data.draw(st.sampled_from(breaks), label="break")
    if kind == "drop":
        del records[k]
    elif kind == "repeat":
        records.append((1, roots[k]))
    elif kind == "scale":
        records[k] = (F(1, 2), roots[k])
    elif kind == "extra":
        records.append((1, (1,) * n))
    else:
        records = [(1, e) for e in _kept_roots(n, 3 * b, b)]
    P = ParamPoint(sqrt_q=F(1, 2))
    with pytest.raises(ValueError, match="denominators besides the pole"):
        ClearedShiftOperator(P, n, [], records)


KOORN_POINTS = [
    pytest.param(cp.point, id=f"p{i}")
    for i, cp in enumerate(default_config().points("koornwinder"), 1)
]


@pytest.mark.parametrize("n, row", [(3, 3), (4, 2)])
@pytest.mark.parametrize("P", KOORN_POINTS)
def test_packed_cofactor_grows_with_the_orbit_sums(P, n, row, monkeypatch):
    # smallest orbit sum first, an operator repacks cof_0 once at each half
    # larger than the one it keeps, and reuses the kept one otherwise; top
    # first, a fresh operator packs it once, at the largest half; both give
    # the same columns
    packed = []
    real = DividingShiftOperator._pack_cof

    def spy(self, half):
        packed.append((self, half))
        real(self, half)

    monkeypatch.setattr(DividingShiftOperator, "_pack_cof", spy)
    basis = dominated_partitions((row,), n)
    growing = DividingShiftOperator(P, n, *_koorn_generator(P, n))
    columns, kept = {}, []
    for key in reversed(basis):
        columns[key] = growing.column(key)
        if growing._layout is not None:
            kept.append(growing._layout[0])
    halves = [half for op, half in packed]
    assert {op for op, _ in packed} == {growing}
    assert kept == sorted(kept) and halves == sorted(set(kept)) and len(halves) > 1
    packed.clear()
    top_first = DividingShiftOperator(P, n, *_koorn_generator(P, n))
    for key in basis:
        assert top_first.column(key) == columns[key]
    assert packed == [(top_first, halves[-1])]
