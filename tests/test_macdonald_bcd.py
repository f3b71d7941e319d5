"""Family specializations: explicit one-row sums against the operator oracle."""

from fractions import Fraction as F

import pytest

from qbc.algebra import ParamPoint, Partition
from qbc.errors import MissingSquareRoot, ParameterDegeneracy
from qbc.koornwinder import koorn_oracle
from qbc.macdonald_bcd import (
    FAMILY_B,
    FAMILY_C,
    FAMILY_D,
    TYPE_B,
    TYPE_C,
    FamilyTag,
    lassalle_b_forms,
    lassalle_form,
    mac_row,
    simplification_lemma_check,
    specialize_params,
)
from qbc.suites import _plan, _run

# base points carry only (q, t); the family parameter lives on the tag.
# sqrt_param values keep b/t, the squared ladders, and the shifted lower
# Pochhammers away from integer powers of q.
MAC1 = ParamPoint(sqrt_q=F(1, 2), sqrt_t=F(1, 3))
MAC2 = ParamPoint(sqrt_q=F(1, 3), sqrt_t=F(1, 2))

TAG_C = FamilyTag(FAMILY_C, F(3, 2))
TAG_B = FamilyTag(FAMILY_B, F(3, 2))
TAG_D = FamilyTag(FAMILY_D)
ALL_TAGS = (TAG_C, TAG_B, TAG_D)


class TestFamilyTag:
    def test_param_squares_the_root(self):
        assert FamilyTag(FAMILY_C, F(5, 2)).param == F(25, 4)

    def test_missing_root_raises(self):
        with pytest.raises(MissingSquareRoot):
            FamilyTag(FAMILY_B).param
        with pytest.raises(MissingSquareRoot):
            specialize_params(FamilyTag(FAMILY_C), MAC1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilyTag("E")

    def test_zero_parameter_rejected(self):
        with pytest.raises(ParameterDegeneracy):
            FamilyTag(FAMILY_C, 0)


class TestSpecialize:
    def test_family_c_pattern(self):
        Q = specialize_params(TAG_C, MAC1)
        sb, sq = F(3, 2), F(1, 2)
        assert (Q.a, Q.b, Q.c, Q.d) == (-sb, sb, -sq * sb, sq * sb)
        # abcd = b^2 q, so the operator scalar is b itself
        assert Q.alpha == TAG_C.param

    def test_family_b_pattern(self):
        Q = specialize_params(TAG_B, MAC2)
        assert (Q.a, Q.b, Q.c, Q.d) == (-1, F(9, 4), -F(1, 3), F(1, 3))
        assert Q.alpha == TAG_B.sqrt_param

    def test_family_d_pattern(self):
        Q = specialize_params(TAG_D, MAC1)
        assert (Q.a, Q.b, Q.c, Q.d) == (-1, 1, -F(1, 2), F(1, 2))
        assert Q.alpha == 1

    def test_q_and_t_pass_through(self):
        Q = specialize_params(TAG_D, MAC2)
        assert (Q.sqrt_q, Q.sqrt_t) == (MAC2.sqrt_q, MAC2.sqrt_t)


class TestMacRow:
    def test_row_zero_is_one(self):
        for tag in ALL_TAGS:
            poly = mac_row(tag, 0, MAC1, 2)
            assert poly.constant() == 1 and len(poly.terms) == 1

    def test_row_is_monic(self):
        for tag in ALL_TAGS:
            poly = mac_row(tag, 3, MAC1, 2)
            exps, coeff = poly.leading()
            assert exps == (3, 0) and coeff == 1

    def test_inversion_invariance(self):
        poly = mac_row(TAG_B, 4, MAC1, 1)
        assert poly.invert_var(0).key() == poly.key()

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
    def test_matches_operator_oracle_rank_one(self, tag):
        Q = specialize_params(tag, MAC1)
        for r in range(5):
            want = koorn_oracle(Partition((r,)), Q, 1, use_cache=False)
            assert mac_row(tag, r, MAC1, 1).key() == want.key()

    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
    def test_matches_operator_oracle_rank_two(self, tag):
        Q = specialize_params(tag, MAC2)
        for r in range(4):
            want = koorn_oracle(Partition((r,)), Q, 2, use_cache=False)
            assert mac_row(tag, r, MAC2, 2).key() == want.key()

    def test_family_d_is_b_at_unit_parameter(self):
        unit_b = FamilyTag(FAMILY_B, 1)
        for r in range(5):
            assert mac_row(unit_b, r, MAC1, 2).key() == mac_row(TAG_D, r, MAC1, 2).key()

    def test_degenerate_t_power_raises(self):
        # t = q^-2 kills the monic prefactor's denominator at r >= 2
        with pytest.raises(ParameterDegeneracy):
            mac_row(TAG_D, 2, ParamPoint(sqrt_q=F(1, 2), sqrt_t=2), 1)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            mac_row(TAG_D, -1, MAC1, 1)


class TestLassalleForms:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
    def test_positive_power_display_matches(self, tag):
        for P in (MAC1, MAC2):
            for n in (1, 2):
                for r in range(5 if n == 1 else 4):
                    assert (
                        lassalle_form(tag, r, P, n).key()
                        == mac_row(tag, r, P, n).key()
                    )

    def test_rewrite_chain_agrees(self):
        for P in (MAC1, MAC2):
            for r in range(5):
                first, second, third = lassalle_b_forms(TAG_B, r, P, 2)
                assert first.key() == third.key()
                assert second.key() == third.key()

    def test_rewrite_chain_is_family_b_only(self):
        with pytest.raises(ValueError):
            lassalle_b_forms(TAG_C, 2, MAC1, 1)


def _lemma_report(variant, s, P, N):
    return _run("lemma", _plan("", P.to_json_obj(), simplification_lemma_check(variant, s, P, N)))


class TestSimplificationLemma:
    # second parameter tied: single ladder in x^2
    def test_type_c_through_x10(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=2, c=-1, d=1)
        report = _lemma_report(TYPE_C, F(1, 7), P, 10)
        assert report.passed
        assert report.counts() == {"pass": 22, "fail": 0, "skipped": 0}

    def test_type_b_through_x10(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=3, c=-1, d=1)
        report = _lemma_report(TYPE_B, F(1, 7), P, 10)
        assert report.passed

    def test_second_point(self):
        P = ParamPoint(sqrt_q=F(1, 3), a=-3, b=5, c=-1, d=1)
        assert _lemma_report(TYPE_B, F(2, 5), P, 8).passed
        assert _lemma_report(TYPE_C, F(2, 5), P.replace(b=3), 8).passed

    def test_degree_zero_case_present(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=2, c=-1, d=1)
        report = _lemma_report(TYPE_C, F(1, 7), P, 4)
        ids = {c.case_id for c in report.cases}
        assert "c-series-x00" in ids and "c-twist-x00" in ids

    def test_wrong_pattern_raises(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=2, c=-1, d=F(3, 2))
        with pytest.raises(ParameterDegeneracy):
            simplification_lemma_check(TYPE_C, F(1, 7), P, 4)
        tied = ParamPoint(sqrt_q=F(1, 2), a=-2, b=5, c=-1, d=1)
        with pytest.raises(ParameterDegeneracy):
            simplification_lemma_check(TYPE_C, F(1, 7), tied, 4)

    def test_pole_at_s_equals_q_raises(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=2, c=-1, d=1)
        with pytest.raises(ParameterDegeneracy):
            simplification_lemma_check(TYPE_C, F(1, 4), P, 4)

    def test_unknown_variant_rejected(self):
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=2, c=-1, d=1)
        with pytest.raises(ValueError):
            simplification_lemma_check("E", F(1, 7), P, 4)
