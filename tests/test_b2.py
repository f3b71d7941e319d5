"""Rank-two layer: operator, eigenvalues, triangular oracle, the explicit
fivefold series, and its collapsed forms."""

from fractions import Fraction as F

import pytest

import qbc.b2
from qbc.algebra import (
    LaurentPoly,
    ParamPoint,
    decompose_symmetric,
    monomial_symmetric,
    weyl_invariant,
)
from qbc.b2 import (
    B2Weight,
    b2_apply,
    b2_character_polytope,
    b2_character_series,
    b2_conjecture_check,
    b2_eigenvalue,
    b2_oracle,
    b2_row_threefold,
    f_b2_poly,
)
from qbc.errors import DimensionMismatch, NonTerminating, ParameterDegeneracy
from qbc.suites import _plan, _run

# t, t^2, T, tT, t^2T must stay off integer powers of q, or a denominator
# ladder pins to 1 at a live index.  Both points were picked for that.
B2P1 = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3), sqrt_T=F(1, 5))
B2P2 = ParamPoint(sqrt_q=F(1, 3), sqrt_t=F(1, 2), sqrt_T=F(1, 5))
CHAR_POINT = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 2), sqrt_T=F(1, 2))

ONE = LaurentPoly.one(2, 2)


def eval_doubled(f, u1, u2):
    """Evaluate at x_i = u_i^2, so half-integer lattice points stay exact."""
    total = F(0)
    for (e1, e2), c in f.terms.items():
        total += c * u1 ** e1 * u2 ** e2
    return total


class TestB2Weight:
    def test_doubled_coordinates(self):
        w = B2Weight(2, 3)
        assert w.doubled == (7, 3)
        assert w.lam1 == F(7, 2)
        assert w.lam2 == F(3, 2)
        assert w.total == 5

    def test_epsilon_roundtrip(self):
        w = B2Weight.from_epsilon(F(3, 2), F(1, 2))
        assert w == B2Weight(1, 1)
        assert B2Weight.from_epsilon(2, 1) == B2Weight(1, 2)

    def test_invalid_weights_raise(self):
        with pytest.raises(ValueError):
            B2Weight(-1, 0)
        with pytest.raises(ValueError):
            B2Weight.from_epsilon(F(1, 2), 0)  # difference not an integer
        with pytest.raises(ValueError):
            B2Weight.from_epsilon(1, 2)  # not dominant
        with pytest.raises(ValueError):
            B2Weight.from_epsilon(F(1, 3), F(1, 3))

    def test_spectral_values(self):
        s1, s2 = B2Weight(1, 1).s_values(B2P1)
        t, sT, sq = B2P1.t, B2P1.sqrt_T, B2P1.sqrt_q
        assert s1 == t * sT * sq ** 3
        assert s2 == sT * sq


class TestOperator:
    def test_constant_is_eigenfunction(self):
        t, T = B2P1.t, B2P1.T
        img = b2_apply(ONE, B2P1)
        assert img == ONE * (t * t * T + t * T + t + 1)

    def test_matches_direct_substitution(self):
        # literal four-term action evaluated pointwise, denominators uncleared
        P = B2P2
        f = monomial_symmetric((2, 0), 2, 2) + monomial_symmetric((1, 1), 2, 2) * 3
        u1, u2 = F(2, 3), F(3, 7)
        x1, x2 = u1 * u1, u2 * u2
        t, T, sq = P.t, P.T, P.sqrt_q

        def coeff(y1, y2, y3):
            return ((1 - t * y1) / (1 - y1)) * ((1 - t * y2) / (1 - y2)) * (
                (1 - T * y3) / (1 - y3)
            )

        direct = (
            coeff(x1 / x2, x1 * x2, x1) * eval_doubled(f, sq * u1, u2)
            + coeff(x2 / x1, x1 * x2, x2) * eval_doubled(f, u1, sq * u2)
            + coeff(1 / (x1 * x2), x2 / x1, 1 / x1) * eval_doubled(f, u1 / sq, u2)
            + coeff(1 / (x1 * x2), x1 / x2, 1 / x2) * eval_doubled(f, u1, u2 / sq)
        )
        assert eval_doubled(b2_apply(f, P), u1, u2) == direct

    def test_preserves_invariance(self):
        img = b2_apply(monomial_symmetric((2, 0), 2, 2), B2P1)
        assert weyl_invariant(img)

    def test_triangular_on_orbit_sums(self):
        img = b2_apply(monomial_symmetric((3, 1), 2, 2), B2P1)
        assert set(decompose_symmetric(img)) <= {(3, 1), (1, 1)}

    def test_rejects_unit_lattice_input(self):
        with pytest.raises(DimensionMismatch):
            b2_apply(LaurentPoly.one(2, 1), B2P1)


class TestEigenvalue:
    def test_zero_weight(self):
        t, T = B2P1.t, B2P1.T
        assert b2_eigenvalue(B2Weight(0, 0), B2P1) == t * t * T + t * T + t + 1

    def test_first_fundamental(self):
        t, T, q = B2P1.t, B2P1.T, B2P1.q
        expected = t * t * T * q + t * T + t + 1 / q
        assert b2_eigenvalue(B2Weight(1, 0), B2P1) == expected

    def test_epsilon_display_agrees(self):
        # t^2 T q^(3/2) + t T q^(1/2) + t q^(-1/2) + q^(-3/2)
        t, T, sq = B2P1.t, B2P1.T, B2P1.sqrt_q
        expected = t * t * T * sq ** 3 + t * T * sq + t / sq + 1 / sq ** 3
        assert b2_eigenvalue(B2Weight.from_epsilon(F(3, 2), F(1, 2)), B2P1) == expected

    @pytest.mark.parametrize("r1,r2", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)])
    def test_spectral_form(self, r1, r2):
        w = B2Weight(r1, r2)
        s1, s2 = w.s_values(B2P2)
        t, sT = B2P2.t, B2P2.sqrt_T
        assert b2_eigenvalue(w, B2P2) == t * sT * (s1 + s2 + 1 / s1 + 1 / s2)

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
            f_b2_poly(B2Weight(2, 2), B2P1, bound=1)


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

    @pytest.mark.parametrize("r1,r2", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    def test_series_limit_matches_polytope(self, r1, r2):
        w = B2Weight(r1, r2)
        assert b2_character_series(w, CHAR_POINT) == b2_character_polytope(r1, r2)

    def test_needs_collapsed_point(self):
        with pytest.raises(ParameterDegeneracy):
            b2_character_series(B2Weight(1, 0), B2P1)


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
