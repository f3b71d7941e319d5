"""Family specializations: explicit one-row sums against the operator oracle."""

from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import qbc.macdonald_bcd
from qbc.algebra import LaurentPoly, OrbitPoly, ParamPoint, format_rational, rat, weyl_invariant
from qbc.askey_wilson import collapse_sums, phi_series
from qbc.errors import MissingSquareRoot, ParameterDegeneracy, QbcError
from qbc.koornwinder import g_series_list, koorn_oracle
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
from qbc.qseries import qpoch, qpoch_multi
from qbc.suites import _plan, _run
import full_terms
import per_term

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
            assert poly == OrbitPoly(2, {(0, 0): 1})

    def test_row_is_monic(self):
        for tag in ALL_TAGS:
            poly = mac_row(tag, 3, MAC1, 2)
            exps, coeff = poly.leading()
            assert exps == (3, 0) and coeff == 1

    def test_inversion_invariance(self):
        poly = mac_row(TAG_B, 4, MAC1, 1)
        assert weyl_invariant(poly.expand())

    @pytest.mark.usefixtures("isolated_cache")
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
    def test_matches_operator_oracle_rank_one(self, tag):
        Q = specialize_params(tag, MAC1)
        for r in range(5):
            want = koorn_oracle((r,), Q, 1)
            assert mac_row(tag, r, MAC1, 1) == want

    @pytest.mark.usefixtures("isolated_cache")
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
    def test_matches_operator_oracle_rank_two(self, tag):
        Q = specialize_params(tag, MAC2)
        for r in range(4):
            want = koorn_oracle((r,), Q, 2)
            assert mac_row(tag, r, MAC2, 2) == want

    def test_family_d_is_b_at_unit_parameter(self):
        unit_b = FamilyTag(FAMILY_B, 1)
        for r in range(5):
            assert mac_row(unit_b, r, MAC1, 2) == mac_row(TAG_D, r, MAC1, 2)

    def test_degenerate_t_power_raises(self):
        # t = q^-2 kills the monic prefactor's denominator at r >= 2
        with pytest.raises(ParameterDegeneracy):
            mac_row(TAG_D, 2, ParamPoint(sqrt_q=F(1, 2), sqrt_t=2), 1)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            mac_row(TAG_D, -1, MAC1, 1)


@pytest.mark.parametrize("n, r", [(8, 4), (16, 3)])
@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
def test_displays_are_the_full_term_displays_past_the_suite_ranks(tag, n, r, monkeypatch):
    # both displays on orbit forms against the same displays summed over
    # the full-term G tables, at the frontier of the lassalle suite
    got = [display(tag, r, MAC1, n) for display in (mac_row, lassalle_form)]
    assert got[0] == got[1]
    full_terms.use_full_terms(monkeypatch)
    for display, orbit in zip((mac_row, lassalle_form), got):
        want = display(tag, r, MAC1, n)
        assert type(want) is LaurentPoly
        assert OrbitPoly.from_poly(want) == orbit


class TestLassalleForms:
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.family)
    def test_positive_power_display_matches(self, tag):
        for P in (MAC1, MAC2):
            for n in (1, 2):
                for r in range(5 if n == 1 else 4):
                    assert lassalle_form(tag, r, P, n) == mac_row(tag, r, P, n)

    def test_rewrite_chain_agrees(self):
        for P in (MAC1, MAC2):
            for r in range(5):
                first, second, third = lassalle_b_forms(TAG_B, r, P, 2)
                assert first == second == third

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

    def test_plan_walks_each_ladder_once(self, monkeypatch):
        # series x^p and twist x^p share the plain walk to p, and twist x^p
        # reads the plain walk to p - 2 from the plan's memo: one plain and
        # one twisted walk per degree
        walks = []

        def counted(*args):
            walks.append((args[-1], len(args[3])))
            return collapse_sums(*args)

        monkeypatch.setattr(qbc.macdonald_bcd, "collapse_sums", counted)
        P = ParamPoint(sqrt_q=F(1, 2), a=-2, b=3, c=-1, d=1)
        assert _lemma_report(TYPE_B, F(1, 7), P, 10).passed
        assert sorted(walks) == [(twist, p + 1) for twist in (0, 1) for p in range(11)]

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


# ---------------------------------------------------------------------------
# Per-term references: the displays and the lemma ladders as they were
# written before their weights went through qpoch_ratio, row_sum and one
# parametrized lemma ladder.  Every Pochhammer product is rebuilt per term
# and every zero check is spelled out.


def _nonzero_ref(value, what):
    if value == 0:
        raise ParameterDegeneracy(f"vanishing {what}")
    return value


def _head_ref(r: int, P: ParamPoint) -> Fraction:
    return qpoch(P.q, P.q, r) / _nonzero_ref(qpoch(P.t, P.q, r), "one-row prefactor")


def _weight_cd_ref(j: int, r: int, b: Fraction, P: ParamPoint, n: int) -> Fraction:
    # family D is the b = 1 case of the same single-ladder weight
    q, t = P.q, P.t
    num = qpoch(b / t, q, j) * qpoch(t ** -n * q ** -r, q, j)
    den = qpoch(q, q, j) * qpoch(t ** (1 - n) * q ** (1 - r) / b, q, j)
    _nonzero_ref(den, "lower Pochhammer in the one-row weight")
    pivot = _nonzero_ref(1 - t ** -n * q ** -r, "one-row weight pivot")
    ratio = (1 - t ** -n * q ** (-r + 2 * j)) / pivot
    return num / den * ratio * (t * t / (q * b)) ** j


def _weight_b_ref(i: int, j: int, r: int, a: Fraction, P: ParamPoint, n: int) -> Fraction:
    # the two (i+j)-ladders share the base t^(1-n) q^(1-r), so the numerator
    # i-ladder is cancelled against the denominator head, leaving only the
    # tail of length j; the uncancelled form is 0/0 at n = 1, i + j = r
    q, t = P.q, P.t
    num = (
        qpoch(a, q, i)
        * qpoch(t ** -n * q ** -r, q, i + j)
        * qpoch(t ** (2 - 2 * n) * q ** (-2 * r), q, i)
        * qpoch(1 / t, q, j)
    )
    den = (
        qpoch(q, q, i)
        * qpoch(t ** (1 - n) * q ** -r, q, i)
        * qpoch(t ** (1 - n) * q ** (1 - r + i), q, j)
        * qpoch(t ** (2 - 2 * n) * q ** (1 - 2 * r) / a, q, i)
        * qpoch(q, q, j)
    )
    _nonzero_ref(den, "lower Pochhammer in the one-row weight")
    pivot = _nonzero_ref(1 - t ** -n * q ** -r, "one-row weight pivot")
    ratio = (1 - t ** -n * q ** (-r + i + 2 * j)) / pivot
    return num / den * ratio * (t / a) ** i * (t * t / q) ** j


def _mac_row_ref(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    head = _head_ref(r, P)
    gs = g_series_list(r, n, P)
    total = OrbitPoly.zero(n)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        for j in range(r // 2 + 1):
            w = _weight_cd_ref(j, r, b, P, n)
            if w:
                total = total + gs[r - 2 * j] * w
    else:
        a = tag.param
        for i in range(r + 1):
            for j in range((r - i) // 2 + 1):
                w = _weight_b_ref(i, j, r, a, P, n)
                if w:
                    total = total + gs[r - i - 2 * j] * w
    return total * head


def _lassalle_cd_sum_ref(r: int, b: Fraction, P: ParamPoint, n: int, gs) -> OrbitPoly:
    # positive-power display; the shifted pivot 1 - t^n q^(r-i) replaces the
    # boundary factor of the numerator ladder
    q, t = P.q, P.t
    total = OrbitPoly.zero(n)
    for i in range(r // 2 + 1):
        num = qpoch(b / t, q, i) * qpoch(t ** n * q ** (r - i), q, i)
        den = qpoch(q, q, i) * qpoch(b * t ** (n - 1) * q ** (r - i), q, i)
        _nonzero_ref(den, "lower Pochhammer in the conjectured weight")
        pivot = _nonzero_ref(1 - t ** n * q ** (r - i), "conjectured weight pivot")
        w = t ** i * num / den * (1 - t ** n * q ** (r - 2 * i)) / pivot
        if w:
            total = total + gs[r - 2 * i] * w
    return total


def _lassalle_form_ref(tag: FamilyTag, r: int, P: ParamPoint, n: int) -> OrbitPoly:
    if r < 0:
        raise ValueError("row length must be nonnegative")
    P.require("sqrt_t")
    q, t = P.q, P.t
    gs = g_series_list(r, n, P)
    if tag.family in (FAMILY_C, FAMILY_D):
        b = Fraction(1) if tag.family == FAMILY_D else tag.param
        return _lassalle_cd_sum_ref(r, b, P, n, gs) * _head_ref(r, P)
    a = tag.param
    inner = [_lassalle_cd_sum_ref(k, Fraction(1), P, n, gs) for k in range(r + 1)]
    total = OrbitPoly.zero(n)
    for i in range(r + 1):
        num = (
            qpoch(a, q, i)
            * qpoch(t ** n * q ** (r - i), q, i)
            * qpoch(t ** (2 * n - 2) * q ** (2 * r - i + 1), q, i)
        )
        den = (
            qpoch(q, q, i)
            * qpoch(t ** (n - 1) * q ** (r - i + 1), q, i)
            * qpoch(a * t ** (2 * n - 2) * q ** (2 * r - i), q, i)
        )
        _nonzero_ref(den, "lower Pochhammer in the conjectured weight")
        w = num / den
        if w:
            total = total + inner[r - i] * w
    return total * _head_ref(r, P)


def _lassalle_b_forms_ref(tag: FamilyTag, r: int, P: ParamPoint, n: int):
    if tag.family != FAMILY_B:
        raise ValueError("the rewrite chain is specific to family B")
    P.require("sqrt_t")
    q, t = P.q, P.t
    a = tag.param
    gs = g_series_list(r, n, P)
    head = _head_ref(r, P)

    def iblock(i):
        num = (
            qpoch(a, q, i)
            * qpoch(t ** -n * q ** (1 - r), q, i)
            * qpoch(t ** (2 - 2 * n) * q ** (-2 * r), q, i)
        )
        den = (
            qpoch(q, q, i)
            * qpoch(t ** (1 - n) * q ** -r, q, i)
            * qpoch(t ** (2 - 2 * n) * q ** (1 - 2 * r) / a, q, i)
        )
        _nonzero_ref(den, "lower Pochhammer in the rewritten weight")
        return num / den * (t / a) ** i

    def jblock(j, offset):
        # offset is the row index already consumed by the outer sum
        num = qpoch(1 / t, q, j) * qpoch(t ** -n * q ** (-r + offset), q, j)
        den = qpoch(q, q, j) * qpoch(t ** (1 - n) * q ** (1 - r + offset), q, j)
        _nonzero_ref(den, "lower Pochhammer in the rewritten weight")
        pivot = _nonzero_ref(1 - t ** -n * q ** (-r + offset), "rewritten weight pivot")
        ratio = (1 - t ** -n * q ** (-r + offset + 2 * j)) / pivot
        return num / den * ratio * (t * t / q) ** j

    def d_row(k):
        # rewritten family-D display for a single row, no monic head
        out = OrbitPoly.zero(n)
        for j in range(k // 2 + 1):
            num = qpoch(1 / t, q, j) * qpoch(t ** -n * q ** -k, q, j)
            den = qpoch(q, q, j) * qpoch(t ** (1 - n) * q ** (1 - k), q, j)
            _nonzero_ref(den, "lower Pochhammer in the rewritten weight")
            pivot = _nonzero_ref(1 - t ** -n * q ** -k, "rewritten weight pivot")
            wj = num / den * (1 - t ** -n * q ** (-k + 2 * j)) / pivot * (t * t / q) ** j
            if wj:
                out = out + gs[k - 2 * j] * wj
        return out

    first = OrbitPoly.zero(n)
    for i in range(r + 1):
        wi = iblock(i)
        if wi:
            first = first + d_row(r - i) * wi

    second = OrbitPoly.zero(n)
    for i in range(r + 1):
        wi = iblock(i)
        if not wi:
            continue
        for j in range((r - i) // 2 + 1):
            w = wi * jblock(j, i)
            if w:
                second = second + gs[r - i - 2 * j] * w

    third = _mac_row_ref(tag, r, P, n)
    return first * head, second * head, third


def _lemma_outcomes_ref(variant, s, P: ParamPoint, N: int):
    """(id suffix, outcome) of every check of the lemma plan, through the
    four per-variant ladders; the plan's eager checks raise here too."""
    if variant not in (TYPE_C, TYPE_B):
        raise ValueError(f"unknown variant {variant!r}")
    P.require("a", "b", "c", "d")
    s = rat(s)
    q = P.q
    a = -P.a
    if P.c != -P.sqrt_q * a or P.d != P.sqrt_q * a:
        raise ParameterDegeneracy(
            "point does not realize the quadratic-pair pattern (-a, *, -sqrt(q) a, sqrt(q) a)"
        )
    if variant == TYPE_C and P.b != a:
        raise ParameterDegeneracy("variant C ties the second parameter to the first")
    b = P.b
    if s == q:
        raise ParameterDegeneracy("twisted ladder has a pole at s = q")
    a2 = a * a

    def iblock(i):
        num = qpoch_multi((b / a, s * s / a2 ** 2, q * s / a2), q, i)
        den = _nonzero_ref(
            qpoch_multi((q, q * s * s / (a2 * a * b), s / a2), q, i),
            "lower Pochhammer in the collapsed ladder",
        )
        return num / den * (q / b) ** i

    def plain(p):
        if variant == TYPE_C:
            if p % 2:
                return Fraction(0)
            j = p // 2
            num = qpoch(a2, q, j) * qpoch(s, q, j)
            den = _nonzero_ref(
                qpoch(q, q, j) * qpoch(q * s / a2, q, j),
                "lower Pochhammer in the collapsed ladder",
            )
            return num / den * (q / a2) ** j
        total = Fraction(0)
        for j in range(p // 2 + 1):
            i = p - 2 * j
            num = qpoch(a2, q, j) * qpoch(s, q, i + j)
            den = _nonzero_ref(
                qpoch(q, q, j) * qpoch(q * s / a2, q, i + j),
                "lower Pochhammer in the collapsed ladder",
            )
            total += num / den * iblock(i) * (q / a2) ** j
        return total

    def twisted(p):
        pivot = 1 - s / q
        if variant == TYPE_C:
            if p % 2:
                return Fraction(0)
            j = p // 2
            num = qpoch(a2 / q, q, j) * qpoch(s / q, q, j)
            den = _nonzero_ref(
                qpoch(q, q, j) * qpoch(q * s / a2, q, j),
                "lower Pochhammer in the twisted ladder",
            )
            return num / den * (1 - q ** (2 * j - 1) * s) / pivot * (q / a2) ** j
        total = Fraction(0)
        for j in range(p // 2 + 1):
            i = p - 2 * j
            num = qpoch(a2 / q, q, j) * qpoch(s / q, q, i + j)
            den = _nonzero_ref(
                qpoch(q, q, j) * qpoch(q * s / a2, q, i + j),
                "lower Pochhammer in the twisted ladder",
            )
            total += (
                num / den * iblock(i) * (1 - q ** (i + 2 * j - 1) * s) / pivot * (q / a2) ** j
            )
        return total

    ser = phi_series(s, P, N)

    def outcome(p, got, want):
        if got == want:
            return None
        return {
            "coefficient": f"x^{p}",
            "expected": format_rational(want),
            "got": format_rational(got),
        }

    tag = variant.lower()
    out = [(f"{tag}-series-x{p:02d}", lambda p=p: outcome(p, ser[p], plain(p)))
           for p in range(N + 1)]
    out += [
        (
            f"{tag}-twist-x{p:02d}",
            lambda p=p: outcome(
                p, twisted(p), plain(p) - (plain(p - 2) if p >= 2 else Fraction(0))
            ),
        )
        for p in range(N + 1)
    ]
    return [(suffix, _outcome(check)) for suffix, check in out]


def _outcome(fn, *args):
    """The value, or the class of the QbcError raised instead."""
    try:
        return fn(*args)
    except QbcError as exc:
        return type(exc)


_SMALL = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
_SQRT_Q = _SMALL.filter(lambda x: abs(x) != 1)


@st.composite
def _display_inputs(draw):
    """A family tag and a (q, t) point.  sqrt_t and the family root are a
    small rational times a power of sqrt(q), so t = q^k, b = t q^k and the
    pivots 1 - t^n q^r hit zero in a fair share of draws."""
    sq = draw(_SQRT_Q)

    def coordinate():
        return draw(_SMALL) * sq ** draw(st.integers(-3, 3))

    P = ParamPoint(sqrt_q=sq, sqrt_t=coordinate())
    family = draw(st.sampled_from((FAMILY_B, FAMILY_C, FAMILY_D)))
    tag = FamilyTag(family, None if family == FAMILY_D else coordinate())
    return tag, P


@st.composite
def _lemma_inputs(draw):
    """A quadratic-pair point (-a, b, -sqrt(q) a, sqrt(q) a) and an s that
    is 1, a^2 or a^3 b times a small rational times a power of sqrt(q), so
    the ladders' lower factors s/a^2 and q s^2/(a^3 b) hit q^-k too."""
    sq = draw(_SQRT_Q)

    def coordinate(lo, hi):
        return draw(_SMALL) * sq ** draw(st.integers(lo, hi))

    variant = draw(st.sampled_from((TYPE_C, TYPE_B)))
    a = coordinate(-2, 2)
    b = a if variant == TYPE_C else coordinate(-2, 2)
    P = ParamPoint(sqrt_q=sq, a=-a, b=b, c=-sq * a, d=sq * a)
    scale = draw(st.sampled_from((1, a * a, a ** 3 * b)))
    return variant, scale * coordinate(-4, 4), P


# Points where laziness alone decides whether a display or a lemma check
# raises.  B_ZERO_WEIGHTS: a = 1 zeroes every i-weight of the rewritten
# type-B displays past i = 0, and t = q^(-1/2) at n = 2 puts a zero pivot
# 1 - t^-2 q^-1 in the family-D row of length 1, a row only a zero weight
# asks for.  C_ODD_LADDER: variant C at a = 1, s = 1/q; the odd ladders'
# i-terms vanish since b = a, but their lower ladder (q s/a^2; q)_(i+j) is
# (1; q)_1 = 0, so a plan that summed them would raise where the i = 0
# ladder has no pole.
B_ZERO_WEIGHTS = (FamilyTag(FAMILY_B, 1), ParamPoint(sqrt_q=4, sqrt_t=F(1, 2)))
C_ODD_LADDER = (
    TYPE_C, F(9, 4), ParamPoint(sqrt_q=F(2, 3), a=-1, b=1, c=-F(2, 3), d=F(2, 3))
)


class TestAgainstPerTermReferences:
    """The displays and the lemma plan give the per-term references' values
    exactly, or raise the same error class, degenerate points included."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_display_inputs(), st.integers(1, 2), st.integers(0, 4))
    @example(B_ZERO_WEIGHTS, 2, 2)
    def test_displays_match(self, drawn, n, r):
        tag, P = drawn
        pairs = [(mac_row, _mac_row_ref), (lassalle_form, _lassalle_form_ref)]
        if tag.family == FAMILY_B:
            pairs.append((lassalle_b_forms, _lassalle_b_forms_ref))
        for display, reference in pairs:
            assert _outcome(display, tag, r, P, n) == _outcome(reference, tag, r, P, n)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_lemma_inputs(), st.integers(0, 6))
    @example(C_ODD_LADDER, 1)
    def test_lemma_plan_matches(self, drawn, N):
        variant, s, P = drawn

        def outcomes():
            plan = simplification_lemma_check(variant, s, P, N)
            return [(suffix, _outcome(check)) for suffix, _, _, check in plan]

        assert _outcome(outcomes) == _outcome(_lemma_outcomes_ref, variant, s, P, N)


def _raised(fn, *args):
    """The value, or the class and message of the QbcError raised instead."""
    try:
        return fn(*args)
    except QbcError as exc:
        return type(exc), str(exc)


@st.composite
def _pivot_inputs(draw):
    """A family tag and a (q, t) point.  In about one draw in three t is
    q^-1 or q^-2, so t^n q^k = 1 at k = n or 2n and the displays' pivots
    1 - t^-n q^-r and 1 - t^n q^(r-i) vanish on rows 0-6; otherwise sqrt_t
    and the family root are drawn as in _display_inputs."""
    sq = draw(_SQRT_Q)

    def coordinate():
        return draw(_SMALL) * sq ** draw(st.integers(-3, 3))

    if draw(st.integers(0, 2)):
        sqrt_t = coordinate()
    else:
        sqrt_t = draw(st.sampled_from((1, -1))) * sq ** -draw(st.integers(1, 2))
    family = draw(st.sampled_from((FAMILY_B, FAMILY_C, FAMILY_D)))
    tag = FamilyTag(family, None if family == FAMILY_D else coordinate())
    return tag, ParamPoint(sqrt_q=sq, sqrt_t=sqrt_t)


# t q = 1, so at rank 1, row 1 the pivot 1 - t^-1 q^-1 of the first term of
# mac_row vanishes: a walk that formed the weights only from its ladders
# would never meet it, as the row's longer ladders vanish with it.
PIVOT_POINT = ParamPoint(sqrt_q=F(1, 2), sqrt_t=2)
PIVOT_DRAWS = [(tag, PIVOT_POINT) for tag in (TAG_C, TAG_B, TAG_D)]


class TestWalkedDisplays:
    """Each display, one weight vector walked on the G table, gives the
    per-term display's orbit form exactly, or raises the same error class
    with the same message."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_pivot_inputs(), st.integers(1, 4), st.integers(0, 6))
    @example(PIVOT_DRAWS[0], 1, 1)
    @example(PIVOT_DRAWS[1], 1, 1)
    @example(PIVOT_DRAWS[2], 1, 1)
    @example(B_ZERO_WEIGHTS, 2, 2)
    def test_displays_match_the_per_term_displays(self, drawn, n, r):
        tag, P = drawn
        names = ["mac_row", "lassalle_form"]
        if tag.family == FAMILY_B:
            names.append("lassalle_b_forms")
        for name in names:
            walked = getattr(qbc.macdonald_bcd, name)
            assert _raised(walked, tag, r, P, n) == _raised(getattr(per_term, name), tag, r, P, n)

    @pytest.mark.parametrize("drawn", PIVOT_DRAWS, ids=lambda d: d[0].family)
    def test_pivot_draws_raise_at_the_first_term(self, drawn):
        tag, P = drawn
        with pytest.raises(ParameterDegeneracy) as info:
            mac_row(tag, 1, P, 1)
        assert str(info.value) == "vanishing lower Pochhammer in the one-row weight"
