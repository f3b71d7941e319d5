"""Substrate checks: Laurent arithmetic, exact division, partitions, orbits."""

import heapq
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbc import algebra
from qbc.algebra import (
    ClearedShiftOperator,
    LaurentPoly,
    ParamPoint,
    Partition,
    ShiftTerm,
    decompose_symmetric,
    dominance_leq,
    dominated_partitions,
    exact_div,
    monomial_symmetric,
    qshift,
    rat,
    rational_sqrt,
    signed_orbit,
    weyl_invariant,
)
from qbc.errors import (
    DimensionMismatch,
    InexactDivision,
    LengthError,
    MissingSquareRoot,
    ParameterDegeneracy,
)
from qbc.koornwinder import _koorn_operator


def lp1(terms):
    return LaurentPoly(1, terms)


def _peel_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Reference division: rescan the remainder for its lex-leading term.

    Quadratic in the remainder size, and independent of the heap that
    exact_div keeps; the two must agree on every input.
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
        assert (f + g) - 3 == LaurentPoly.zero(1)

    def test_scalar_ops(self):
        f = lp1({(2,): F(1, 3)})
        assert 3 * f == lp1({(2,): 1})
        assert f - f == LaurentPoly.zero(1)
        assert (f * 0).is_zero()

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            lp1({(1,): 1}) + LaurentPoly(2, {(1, 0): 1})

    def test_mixed_scale_rejected(self):
        with pytest.raises(DimensionMismatch):
            lp1({(1,): 1}) * LaurentPoly(1, {(1,): 1}, scale=2)

    def test_power(self):
        f = lp1({(1,): 1, (0,): 1})
        assert f ** 2 == lp1({(2,): 1, (1,): 2, (0,): 1})
        assert f ** 0 == LaurentPoly.one(1)

    def test_json_roundtrip_sorted(self):
        f = LaurentPoly(2, {(1, -2): F(3, 7), (-1, 0): 2})
        obj = f.to_json_obj()
        assert obj["terms"] == sorted(obj["terms"], key=lambda t: t["exps"])
        assert LaurentPoly.from_json_obj(obj) == f


class TestExactDivision:
    def test_round_trip(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): -2, (-1, -1): F(1, 3)})
        g = LaurentPoly(2, {(2, 1): F(2, 5), (0, 0): 1, (-1, 2): 4})
        assert exact_div(f * g, g) == f
        assert exact_div(f * g, f) == g

    def test_inexact_raises(self):
        f = lp1({(2,): 1, (0,): -1})
        g = lp1({(1,): 1, (0,): 1, (-1,): 1})
        with pytest.raises(InexactDivision):
            exact_div(f, g)

    def test_zero_dividend(self):
        g = lp1({(1,): 1})
        assert exact_div(LaurentPoly.zero(1), g).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(lp1({(0,): 1}), LaurentPoly.zero(1))

    def test_laurent_units_divide(self):
        f = lp1({(-3,): F(5, 2)})
        g = lp1({(2,): F(1, 2)})
        assert exact_div(f, g) == lp1({(-5,): 5})

    def test_cancelled_then_recreated_term_is_consumed_once(self, monkeypatch):
        # (x^4 + x^2 + 1) / (x^2 - x + 1): the first step cancels the x^2 of
        # the dividend, the second creates x^2 again.  The exponent keeps its
        # one heap entry throughout and is popped and consumed once; the
        # cancelled x and 1 of the last step are popped as stale entries.
        pushed, popped = [], []

        class SpyHeap:
            @staticmethod
            def heapify(heap):
                pushed.extend(heap)
                heapq.heapify(heap)

            @staticmethod
            def heappush(heap, item):
                pushed.append(item)
                heapq.heappush(heap, item)

            @staticmethod
            def heappop(heap):
                item = heapq.heappop(heap)
                popped.append(item)
                return item

        monkeypatch.setattr(algebra, "heapq", SpyHeap)
        f = lp1({(4,): 1, (2,): 1, (0,): 1})
        g = lp1({(2,): 1, (1,): -1, (0,): 1})
        quotient = lp1({(2,): 1, (1,): 1, (0,): 1})
        assert exact_div(f, g) == quotient
        # heap entries are negated exponents
        assert sorted(pushed) == [(-4,), (-3,), (-2,), (-1,), (0,)]
        assert popped == [(-4,), (-3,), (-2,), (-1,), (0,)]
        assert _peel_div(f, g) == quotient

    def test_rank3_koornwinder_lcd_divides_back_out(self):
        P = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3), a=2, b=3, c=5, d=F(5, 6))
        factors = [
            canon
            for canon, mult in _koorn_operator(P, 3)._lcd.values()
            for _ in range(mult)
        ]
        assert len(factors) == 15
        total = LaurentPoly.one(3)
        for canon in factors:
            total = total * canon
        for canon in factors:
            quotient = exact_div(total, canon)
            assert quotient == _peel_div(total, canon)
            total = quotient
        assert total == LaurentPoly.one(3)


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
        assert Partition([3, 1, 0, 0]).parts == (3, 1)
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_equality_with_tuples(self):
        assert Partition([2, 1]) == (2, 1)
        assert Partition([2, 1]) == (2, 1, 0, 0)
        assert Partition([]) == ()
        assert Partition([]) == (0, 0)
        assert Partition([1]) != (0, 1)
        assert Partition([1]) != (1, -1)
        assert not Partition([1]) == (2,)

    def test_padding_guard(self):
        with pytest.raises(LengthError):
            Partition([2, 1, 1]).padded(2)

    def test_dominance_basics(self):
        assert dominance_leq(Partition([1, 1]), Partition([2]))
        assert not dominance_leq(Partition([2]), Partition([1, 1]))
        assert dominance_leq(Partition([2, 1]), Partition([3]))
        assert dominance_leq(Partition([]), Partition([1]))

    def test_dominated_enumeration(self):
        got = dominated_partitions(Partition([2]), 2)
        assert got[0] == Partition([2])
        assert set(p.parts for p in got) == {(2,), (1,), (1, 1), ()}

    def test_dominated_sorted_descending(self):
        got = dominated_partitions(Partition([3]), 3)
        sums = [p.partial_sums(3) for p in got]
        assert sums == sorted(sums, reverse=True)


@settings(derandomize=True, max_examples=150)
@given(st.data())
def test_dominance_partial_order_laws(data):
    def partition(label):
        parts = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
            label=label,
        )
        return Partition(sorted(parts, reverse=True))

    a, b, c = partition("a"), partition("b"), partition("c")
    assert dominance_leq(a, a)
    if dominance_leq(a, b) and dominance_leq(b, a):
        assert a == b
    if dominance_leq(a, b) and dominance_leq(b, c):
        assert dominance_leq(a, c)


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
    assert exact_div(f * g, g) == f


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
        assert exact_div(f, g) == q
    else:
        f = poly("f", 0, 6)
    assert _division_outcome(exact_div, f, g) == _division_outcome(_peel_div, f, g)


class TestOrbits:
    def test_signed_orbit_counts(self):
        assert len(signed_orbit((1, 0))) == 4
        assert len(signed_orbit((2, 1, 0))) == 24
        assert len(signed_orbit((1, 1))) == 4

    def test_monomial_symmetric_one_var(self):
        assert monomial_symmetric((2,), 1) == lp1({(2,): 1, (-2,): 1})
        assert monomial_symmetric((), 1) == LaurentPoly.one(1)

    def test_monomial_symmetric_invariant(self):
        m = monomial_symmetric((2, 1), 3)
        assert weyl_invariant(m)
        assert len(m.terms) == 24

    def test_weyl_invariant_rejects(self):
        assert not weyl_invariant(lp1({(1,): 1}))
        assert not weyl_invariant(LaurentPoly(2, {(1, 0): 1, (0, 1): 1}))

    def test_decompose_symmetric(self):
        f = 3 * monomial_symmetric((2, 1), 2) + F(1, 2) * monomial_symmetric((1,), 2)
        got = decompose_symmetric(f)
        assert got == {(2, 1): F(3), (1, 0): F(1, 2)}

    def test_decompose_rejects_non_invariant(self):
        with pytest.raises(ValueError):
            decompose_symmetric(LaurentPoly(2, {(1, 0): 1}))


class TestClearedShiftOperator:
    def test_forward_difference_style(self):
        # f(qx) - f(x) divided by (1 - x) * (1 - 1/x): apply to an input that
        # the image divides exactly and compare by hand.
        P = ParamPoint(sqrt_q=F(1, 2))
        one_minus_x = lp1({(0,): 1, (1,): -1})
        one_minus_inv = lp1({(0,): 1, (-1,): -1})
        # operator: [1 / ((1-x)(1-1/x))] (T - 1) with numerator (1-x)^2
        op = ClearedShiftOperator(
            P,
            1,
            [
                ShiftTerm(
                    numer_factors=(one_minus_x, one_minus_x),
                    denom_factors=(one_minus_x, one_minus_inv),
                    var=0,
                    step=1,
                )
            ],
        )
        # (1-x)^2/((1-x)(1-1/x)) = (1-x)/(1-1/x) = -x(1-x)/(1-x) * ... = -x
        f = lp1({(1,): 1})  # f = x, (T-1)f = (q-1)x
        q = P.q
        assert op.apply(f) == lp1({(2,): -(q - 1)})

    def test_unit_sharing_in_lcd(self):
        # denominators (1 - x^2) and (1 - 1/x^2) differ by a unit and must
        # collapse to a single canonical factor in the least common denominator
        P = ParamPoint(sqrt_q=F(1, 2))
        a = lp1({(0,): 1, (2,): -1})
        b = lp1({(0,): 1, (-2,): -1})
        op = ClearedShiftOperator(
            P,
            1,
            [
                ShiftTerm(numer_factors=(b,), denom_factors=(a,), var=0, step=1),
                ShiftTerm(numer_factors=(b,), denom_factors=(b,), var=0, step=-1),
            ],
        )
        assert len(op._lcd) == 1
