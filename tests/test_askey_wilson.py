"""Tests for the one-variable layer.

Every identity is checked by two genuinely different routes: the operator is
applied through denominator clearing but compared against direct rational
substitution, the polyhedron sum is compared against the terminating series
expansion, and each transformation formula is evaluated from its own literal
factor block written out inside the test.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qbc import askey_wilson, qseries
from qbc.algebra import LaurentPoly, ParamPoint, rat, weyl_invariant
from qbc.askey_wilson import (
    FULL_BASE,
    HALF_BASE,
    EvenSumForms,
    aw_apply,
    aw_eigenvalue,
    aw_poly,
    even_sum_closed,
    even_sum_forms,
    fourfold_poly,
    odd_sum_closed,
    odd_sums,
    phi_series,
    psi_series,
    simplified_series,
)
from qbc.errors import ParameterDegeneracy, PoleInLower, QbcError
from qbc.qseries import (
    PhiSpec, _compiled, _factors, phi_sum, qbinom_series, qpoch, qpoch_multi, qpoch_ratio,
)
from qbc.suites import default_config
from conftest import monomial, monomial_symmetric, zero_poly
import per_term
from test_algebra import _exponent_box, qshift

# Parameter values stay away from integer and half-integer powers of q: with
# q = 1/4 a value like a = 2 = q^(-1/2) drives several lower Pochhammers in
# the coefficient families into exact zeros once s is pinned to a power of q.
POINT_A = ParamPoint(sqrt_q=Fraction(1, 2), a=3, b=5, c=7, d=11)
POINT_B = ParamPoint(sqrt_q=Fraction(1, 3), a=5, b=7, c=11, d=13)
POINT_C = ParamPoint(
    sqrt_q=Fraction(2, 3), a=Fraction(5, 2), b=Fraction(7, 2), c=4, d=6
)
POINTS = [POINT_A, POINT_B, POINT_C]


# -- per-term definitions ------------------------------------------------------
#
# The coefficient families with every Pochhammer ladder rebuilt per term.  The
# program sums them only through running-ratio walks; these are the
# definitions the walks are checked against.


def coeff_ce(k: int, l: int, s, P: ParamPoint) -> Fraction:
    """Even-family coefficient c_e(k, l; s): base q^2, depends only on a, c.

    Every ladder rebuilt: the running-ratio walk phi_series, fourfold_poly
    and even_sum_forms use is tested against it."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    kden = qpoch(q2, q2, k) * qpoch(q ** (4 * l + 2) * s ** 2 / a ** 2, q2, k)
    lden = (
        qpoch(q2, q2, l)
        * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, l)
        * qpoch(q * s / a ** 2, q, 2 * l)
        * qpoch(s ** 2 / a ** 2, q2, 2 * l)
    )
    if kden == 0 or lden == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the even family")
    knum = qpoch(a ** 2, q2, k) * qpoch(q ** (4 * l) * s ** 2, q2, k)
    lnum = (
        qpoch(c ** 2 / q, q2, l)
        * qpoch(s ** 2 / a ** 2, q2, l)
        * qpoch(s, q, 2 * l)
        * qpoch(q ** 2 * s ** 2 / a ** 4, q2, 2 * l)
    )
    return (knum / kden) * (q2 / a ** 2) ** k * (lnum / lden) * (q2 / c ** 2) ** l


def coeff_co(m: int, n: int, s, P: ParamPoint) -> Fraction:
    """Odd-family coefficient c_o(m, n; s): base q with two q^2 ladders.

    The per-term definition, every ladder rebuilt: the running-ratio walk
    phi_series, fourfold_poly and the bibasic suite's odd sums use is tested
    against it."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    q2 = q * q
    sac = q * s ** 2 / (a ** 2 * c ** 2)
    abcd = a * b * c * d
    qm = q ** m
    mden = qpoch(q, q, m) * qpoch(q ** 2 * s ** 2 / abcd, q, m) * qpoch(sac, q2, m)
    nden = (
        qpoch(q, q, n)
        * qpoch(qm * q ** 2 * s ** 2 / abcd, q, n)
        * qpoch(-q * s / (a * c), q, n)
        * qpoch(qm ** 2 * sac, q2, n)
    )
    if mden == 0 or nden == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the odd family")
    mnum = (
        qpoch(-b / a, q, m)
        * qpoch(s, q, m)
        * qpoch(q * s / (c * d), q, m)
        * qpoch(sac, q, m)
    )
    nnum = (
        qpoch(-d / c, q, n)
        * qpoch(qm * s, q, n)
        * qpoch(q * s / (a * b), q, n)
        * qpoch(-qm * q * s / (a * c), q, n)
        * qpoch(qm * sac, q, n)
    )
    return (mnum / mden) * (q / b) ** m * (nnum / nden) * (q / d) ** n


def coeff_co_recast(m: int, n: int, s, P: ParamPoint) -> Fraction:
    """c_o(m, n; s) regrouped so the parameter-symmetric part ladders in m+n.

    Two of the grouped denominators sit at a half power, so the point must
    carry sqrt_q (every ParamPoint does).  The odd walk odd_sums, which
    g_row_general reads as this display, is tested against it.
    """
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    w = m + n
    half = P.sqrt_q * s / (a * c)
    den = (
        qpoch(q, q, m)
        * qpoch(-q * s / (a * c), q, m)
        * qpoch_multi((q ** 2 * s ** 2 / (a * b * c * d), half, -half), q, w)
        * qpoch(q, q, n)
        * qpoch(-q * s / (a * c), q, n)
    )
    if den == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the odd family")
    num = (
        qpoch(-b / a, q, m)
        * qpoch(q * s / (c * d), q, m)
        * qpoch_multi(
            (s, -q * s / (a * c), q * s ** 2 / (a ** 2 * c ** 2)), q, w
        )
        * qpoch(-d / c, q, n)
        * qpoch(q * s / (a * b), q, n)
    )
    return (num / den) * (q / b) ** m * (q / d) ** n


def coeff_ce_prime(k: int, l: int, s, P: ParamPoint) -> Fraction:
    """Even-family coefficient absorbing a (1 - x^2) prefactor:
    (1 - x^2) sum c_e(k,l;s) x^(2k+2l) = sum c'_e(k,l;s) x^(2k+2l).

    The walk ce_prime_sums (kept in per_term, since the Koornwinder rows
    take the same family at shifts) is tested against it."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    if s == q:
        raise ParameterDegeneracy("the ratio factor needs s != q")
    kden = (
        qpoch(q2, q2, k)
        * qpoch(q * s / c ** 2, q2, k)
        * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, k)
    )
    lden = qpoch(q, q, l) * qpoch(q ** 2 * s / c ** 2, q, 2 * k + l)
    if kden == 0 or lden == 0:
        raise ParameterDegeneracy("vanishing lower Pochhammer in the primed even family")
    knum = (
        qpoch(q * a ** 2 / c ** 2, q2, k)
        * qpoch(q ** 3 * s / c ** 2, q2, k)
        * qpoch(q ** 2 * s ** 2 / c ** 4, q2, k)
    )
    lnum = qpoch(c ** 2 / q ** 2, q, l) * qpoch(s / q, q, 2 * k + l)
    ratio = (1 - q ** (2 * k + 2 * l - 1) * s) / (1 - s / q)
    return (knum / kden) * (q2 / a ** 2) ** k * (lnum / lden) * ratio * (q2 / c ** 2) ** l


def eval_laurent(f: LaurentPoly, x0: Fraction) -> Fraction:
    assert f.scale == 1
    return sum((c * x0 ** e[0] for e, c in f.terms.items()), Fraction(0))


class TestEigenvalue:
    def test_zero_at_n_zero(self):
        assert aw_eigenvalue(0, POINT_A) == 0

    def test_integer_matches_generic(self):
        P = POINT_A
        assert aw_eigenvalue(3, P) == aw_eigenvalue(P.q ** -3, P)

    def test_symmetric_under_s_reflection(self):
        P = POINT_B
        s = Fraction(3, 8)
        mirror = P.abcd() / (P.q * s)
        assert aw_eigenvalue(s, P) == aw_eigenvalue(mirror, P)


class TestAwPoly:
    def test_degree_zero(self):
        assert aw_poly(0, POINT_A) == monomial((0,))

    def test_degree_one_two_term_expansion(self):
        # a^-1 [(1-ab)(1-ac)(1-ad) - (1-abcd)(1-ax)(1-a/x)]
        P = POINT_A
        a, b, c, d = P.a, P.b, P.c, P.d
        x = monomial((1,))
        xinv = monomial((-1,))
        one = monomial((0,))
        expected = (
            one * ((1 - a * b) * (1 - a * c) * (1 - a * d))
            - (one - x * a) * (one - xinv * a) * (1 - a * b * c * d)
        ) * Fraction(1, a)
        assert aw_poly(1, P) == expected

    def test_inversion_symmetry(self):
        p = aw_poly(4, POINT_B)
        assert weyl_invariant(p)

    def test_top_degree_present(self):
        p = aw_poly(5, POINT_A)
        assert p.coeff((5,)) != 0
        assert _exponent_box(p) == ((-5,), (5,))

    def test_parameter_permutations_agree_after_normalization(self):
        P = POINT_A
        base = aw_poly(3, P)
        base = base * (1 / base.coeff((3,)))
        for quad in [(5, 3, 11, 7), (7, 11, 3, 5), (11, 7, 5, 3)]:
            Q = P.replace(a=quad[0], b=quad[1], c=quad[2], d=quad[3])
            other = aw_poly(3, Q)
            assert other * (1 / other.coeff((3,))) == base

    def test_vanishing_lower_pochhammer_raises(self):
        # ab = 4 = 1/q makes (ab;q)_2 vanish
        P = ParamPoint(sqrt_q=Fraction(1, 2), a=2, b=2, c=5, d=7)
        with pytest.raises(ParameterDegeneracy):
            aw_poly(2, P)


class TestOperator:
    def test_kills_constants(self):
        assert aw_apply(monomial((0,)), POINT_A).is_zero()

    def test_matches_direct_substitution(self):
        # independent route: evaluate the two rational coefficients of the
        # displayed operator at a plain number and shift numerically
        P = POINT_A
        a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
        f = aw_poly(3, P) + aw_poly(1, P) * Fraction(2, 7)
        x0 = Fraction(2, 3)

        def coeff(y):
            num = (1 - a * y) * (1 - b * y) * (1 - c * y) * (1 - d * y)
            return num / ((1 - y ** 2) * (1 - q * y ** 2))

        fx = eval_laurent(f, x0)
        direct = coeff(x0) * (eval_laurent(f, q * x0) - fx) + coeff(1 / x0) * (
            eval_laurent(f, x0 / q) - fx
        )
        assert eval_laurent(aw_apply(f, P), x0) == direct

    def test_eigenfunction_property(self):
        for P in POINTS:
            for n in range(5):
                p = aw_poly(n, P)
                assert aw_apply(p, P) == p * aw_eigenvalue(n, P)

    def test_triangular_on_monomial_basis(self):
        P = POINT_B
        image = aw_apply(monomial_symmetric((2,), 1), P)
        lo, hi = _exponent_box(image)
        assert lo[0] >= -2 and hi[0] <= 2
        assert weyl_invariant(image)

    @settings(derandomize=True, max_examples=20)
    @given(st.integers(0, 4), st.sampled_from(POINTS))
    def test_eigenfunction_random(self, n, P):
        p = aw_poly(n, P)
        assert aw_apply(p, P) == p * aw_eigenvalue(n, P)


class TestCoefficientFamilies:
    def test_base_cases_are_one(self):
        s = Fraction(1, 3)
        assert coeff_ce(0, 0, s, POINT_A) == 1
        assert coeff_co(0, 0, s, POINT_A) == 1
        assert coeff_ce_prime(0, 0, s, POINT_A) == 1

    def test_k_factor_alone(self):
        P = ParamPoint(sqrt_q=Fraction(1, 2), a=2, b=3, c=3, d=7)
        s = Fraction(1, 5)
        a, q = P.a, P.q
        expected = (
            (1 - a ** 2)
            * (1 - s ** 2)
            / ((1 - q ** 2) * (1 - q ** 2 * s ** 2 / a ** 2))
            * (q ** 2 / a ** 2)
        )
        assert coeff_ce(1, 0, s, P) == expected

    def test_even_family_ignores_b_and_d(self):
        s = Fraction(1, 3)
        base = coeff_ce(2, 1, s, POINT_A)
        assert coeff_ce(2, 1, s, POINT_A.replace(b=17, d=19)) == base

    def test_recast_odd_family_matches(self):
        s = Fraction(1, 3)
        for m, n in [(1, 2), (2, 2), (0, 3), (3, 0)]:
            assert coeff_co_recast(m, n, s, POINT_A) == coeff_co(m, n, s, POINT_A)

    def test_vanishing_pattern_at_pinned_s(self):
        # c_o(m, n; q^-2) must vanish exactly beyond the m+n <= 2 triangle
        P = POINT_A
        s = P.q ** -2
        for m in range(5):
            for n in range(5 - m):
                value = coeff_co(m, n, s, P)
                assert (value == 0) == (m + n > 2)

    def test_primed_family_absorbs_the_quadratic_factor(self):
        P = POINT_A
        s = Fraction(1, 3)
        raw = [
            sum(coeff_ce(K - l, l, s, P) for l in range(K + 1)) for K in range(6)
        ]
        primed = [
            sum(coeff_ce_prime(K - l, l, s, P) for l in range(K + 1))
            for K in range(6)
        ]
        for K in range(6):
            lower = raw[K - 1] if K else Fraction(0)
            assert primed[K] == raw[K] - lower

    def test_primed_family_rejects_s_equal_q(self):
        # at s = q the display divides by 1 - s/q
        with pytest.raises(ParameterDegeneracy):
            coeff_ce_prime(1, 0, POINT_A.q, POINT_A)


class TestSeriesIdentities:
    def test_low_order_coefficients(self):
        P = POINT_A
        s = Fraction(1, 3)
        ser = phi_series(s, P, 2)
        assert ser[0] == 1
        assert ser[1] == coeff_co(1, 0, s, P) + coeff_co(0, 1, s, P)
        assert psi_series(s, P, 0)[0] == 1

    def test_single_sum_equals_fourfold_series(self):
        for P, s in [(POINT_A, Fraction(1, 3)), (POINT_B, Fraction(1, 5))]:
            assert phi_series(s, P, 8) == psi_series(s, P, 8)

    def test_rescaled_series_at_terminating_s(self):
        # x^m times the series at s = q^-m, times a^m (abcd q^(m-1);q)_m /
        # (ab,ac,ad;q)_m, reproduces the terminating sum inside aw_poly
        P = POINT_A
        a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
        for m in (1, 2, 3):
            ser = psi_series(q ** -m, P, 2 * m + 2)
            assert all(ser[j] == 0 for j in range(2 * m + 1, 2 * m + 3))
            head = qpoch(a * b * c * d * q ** (m - 1), q, m) / qpoch_multi(
                (a * b, a * c, a * d), q, m
            )
            rescaled = LaurentPoly(
                1,
                {
                    (j - m,): a ** m * head * ser[j]
                    for j in range(2 * m + 1)
                },
            )
            bare = aw_poly(m, P) * (
                a ** m / qpoch_multi((a * b, a * c, a * d), q, m)
            )
            assert rescaled == bare

    def test_termination_of_pinned_series(self):
        P = POINT_B
        lam = 2
        ser = phi_series(P.q ** -lam, P, 2 * lam + 4)
        for j in range(2 * lam + 1, len(ser)):
            assert ser[j] == 0

    def test_fourfold_polynomial_matches(self):
        for P in POINTS:
            for lam in range(5):
                assert fourfold_poly(lam, P) == aw_poly(lam, P)

    def test_fourfold_palindromic(self):
        p = fourfold_poly(3, POINT_C)
        assert weyl_invariant(p)

    def test_polyhedron_size(self):
        lam = 3
        count = 0
        for k in range(lam + 1):
            for l in range(lam + 1):
                for m in range(lam + 1):
                    for n in range(lam + 1):
                        if (
                            m + n <= lam
                            and 2 * l <= lam - m - n
                            and k <= lam - 2 * l - m - n
                        ):
                            count += 1
        assert count == 24

    def test_difference_equation_at_half_power(self):
        # s = q^(-1/2) puts the series on the doubled exponent lattice, so
        # the cleared form of the operator can act on an honest Laurent
        # polynomial; comparison stops where truncation bites.
        P = POINT_A
        q = P.q
        s = 1 / P.sqrt_q
        N = 10
        ser = phi_series(s, P, N)
        f = LaurentPoly(
            1, {(2 * n - 1,): ser[n] for n in range(N + 1)}, scale=2
        )
        one = monomial((0,), scale=2)

        def xp(p):
            return monomial((2 * p,), 1, 2)

        lcd = (one - xp(2)) * (one - xp(2) * q) * (one - xp(2) * (1 / q))
        gup = one - xp(2) * (1 / q)
        gdown = (one - xp(2) * q) * (1 / q)
        for u in (P.a, P.b, P.c, P.d):
            gup = gup * (one - xp(1) * u)
            gdown = gdown * (xp(1) - one * u)
        lhs = gup * (qshift(f, 0, 1, P) - f) + gdown * (qshift(f, 0, -1, P) - f)
        rhs = lcd * f * aw_eigenvalue(rat(s), P)
        diff = lhs - rhs
        cutoff = 2 * N - 1
        assert any(e[0] <= cutoff for e in lhs.terms)
        for exps, coeff in diff.terms.items():
            assert exps[0] > cutoff, f"residual at half power {exps[0]}/2"


class TestTransformationSuite:
    def test_even_forms_agree(self):
        P = POINT_A
        s = Fraction(1, 7)
        forms = even_sum_forms(s, P, 6)
        assert forms.raw[0] == 1
        assert forms.raw == forms.closed == forms.bibasic_split == forms.bibasic_coupled

    def test_closed_form_symmetric_in_a_c(self):
        P = POINT_A
        swapped = P.replace(a=P.c, c=P.a)
        s = Fraction(1, 7)
        assert even_sum_forms(s, P, 5).closed == even_sum_forms(s, swapped, 5).closed

    def test_odd_sum_closed_form(self):
        P = POINT_A
        s = Fraction(1, 3)
        direct = odd_sums(s, P, 6)
        assert direct[0] == odd_sum_closed(0, s, P) == 1
        for l in range(1, 7):
            assert direct[l] == odd_sum_closed(l, s, P)

    def test_half_base_simplification(self):
        A, B, sq = 3, 5, Fraction(1, 2)
        P = ParamPoint(sqrt_q=sq, a=-A, b=B, c=-sq * A, d=sq * B)
        s = Fraction(1, 7)
        assert simplified_series(HALF_BASE, s, P, 10) == phi_series(s, P, 10)

    def test_full_base_simplification(self):
        A, B, sq = 3, 5, Fraction(1, 2)
        P = ParamPoint(sqrt_q=sq, a=-A, b=B, c=-sq * A, d=sq * A)
        s = Fraction(1, 7)
        assert simplified_series(FULL_BASE, s, P, 10) == phi_series(s, P, 10)

    def test_variant_shape_is_checked(self):
        P = POINT_A  # d is unrelated to the chained pattern
        with pytest.raises(ParameterDegeneracy):
            simplified_series(HALF_BASE, Fraction(1, 7), P, 4)


# Per-term references for the running-ratio walks: the old code, which
# rebuilds every coefficient from its qpoch ladders through coeff_ce /
# coeff_co, the definitions the walks must reproduce.


def _phi_series_reference(s, P, N):
    q = P.q
    coeffs = []
    for j in range(N + 1):
        acc = Fraction(0)
        for w in range(j + 1):
            if (j - w) % 2:
                continue
            deg = (j - w) // 2
            sw = q ** w * s
            even = sum(coeff_ce(deg - l, l, sw, P) for l in range(deg + 1))
            odd = sum(coeff_co(m, w - m, s, P) for m in range(w + 1))
            acc += even * odd
        coeffs.append(acc)
    return tuple(coeffs)


def _fourfold_reference(lam, P):
    q = P.q
    slam = q ** -lam
    terms = {}
    for m in range(lam + 1):
        for n in range(lam - m + 1):
            w = m + n
            co = coeff_co(m, n, slam, P)
            if co == 0:
                continue
            for l in range((lam - w) // 2 + 1):
                for k in range(lam - 2 * l - w + 1):
                    e = (-lam + 2 * k + 2 * l + w,)
                    terms[e] = terms.get(e, 0) + co * coeff_ce(k, l, q ** (w - lam), P)
    return LaurentPoly(1, terms) * qpoch(P.abcd() * q ** (lam - 1), q, lam)


def _split_reference(s, P, N):
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    split = [Fraction(0)] * (N + 1)
    for K in range(N + 1):
        for k in range(K + 1):
            l = K - k
            den = (
                qpoch(q2, q2, k)
                * qpoch(q ** (2 * l + 3) * s ** 2 / (a ** 2 * c ** 2), q2, k)
                * qpoch(q, q, l)
                * qpoch(q * s / a ** 2, q, l)
                * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, l)
            )
            if den == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the split form")
            num = (
                qpoch(q * a ** 2 / c ** 2, q2, k)
                * qpoch(q ** (2 * l) * s ** 2, q2, k)
                * qpoch(c ** 2 / q, q, l)
                * qpoch(s, q, l)
                * qpoch(q ** 2 * s ** 2 / a ** 4, q2, l)
            )
            split[K] += num / den * (q2 / a ** 2) ** k * (q2 / c ** 2) ** l
    return split


def _coupled_reference(s, P, N):
    a, c, q = P.a, P.c, P.q
    q2 = q * q
    coupled = [Fraction(0)] * (N + 1)
    for K in range(N + 1):
        for k in range(K + 1):
            l = K - k
            den = (
                qpoch(q2, q2, k)
                * qpoch(q * s / c ** 2, q2, k)
                * qpoch(q ** 3 * s ** 2 / (a ** 2 * c ** 2), q2, k)
                * qpoch(q, q, l)
                * qpoch(q ** 2 * s / c ** 2, q, 2 * k + l)
            )
            if den == 0:
                raise ParameterDegeneracy("vanishing lower Pochhammer in the coupled form")
            num = (
                qpoch(q * a ** 2 / c ** 2, q2, k)
                * qpoch(q ** 3 * s / c ** 2, q2, k)
                * qpoch(q ** 2 * s ** 2 / c ** 4, q2, k)
                * qpoch(c ** 2 / q, q, l)
                * qpoch(s, q, 2 * k + l)
            )
            coupled[K] += num / den * (q2 / a ** 2) ** k * (q2 / c ** 2) ** l
    return coupled


def _even_sum_closed_reference(s, P, N):
    """even_sum_closed as it rebuilt every parameter of its head factor and
    its 4phi3 once per degree."""
    P.require("a", "c")
    a, c, q = P.a, P.c, P.q
    s = rat(s)
    q2 = q * q
    closed = []
    for K in range(N + 1):
        head = qpoch_ratio(
            (a ** 2 * c ** 2 / q, s ** 2), (q2, q ** 3 * s ** 2 / (a ** 2 * c ** 2)),
            q2, K, "the head factor of the closed even form",
        )
        spec = PhiSpec(
            uppers=(a ** 2 / q, c ** 2 / q, q ** (2 * K) * s ** 2, q ** (-2 * K)),
            lowers=(-s, -q * s, a ** 2 * c ** 2 / q),
            base=q2,
            argument=q2,
        )
        closed.append(head * (q ** 3 / (a ** 2 * c ** 2)) ** K * phi_sum(spec, K))
    return closed


def _even_sum_forms_reference(s, P, N):
    # the routes in the order even_sum_forms takes them, so the first
    # degenerate route raises first in both
    raw = [sum(coeff_ce(K - l, l, s, P) for l in range(K + 1)) for K in range(N + 1)]
    closed = _even_sum_closed_reference(s, P, N)
    return EvenSumForms(raw, closed, _split_reference(s, P, N), _coupled_reference(s, P, N))


# References for the one-variable layer's integer-record paths: each is the
# body the program ran before it moved onto integer records, with its
# ladders built in Fraction arithmetic.


def _aw_poly_reference(n, P):
    """aw_poly by products of Fraction Laurent polynomials: the pair ladder
    (ax, a/x; q)_m multiplied out one factor pair at a time."""
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    for prod in (a * b, a * c, a * d):
        if qpoch(prod, q, n) == 0:
            raise ParameterDegeneracy(
                f"lower Pochhammer ({prod};q)_m vanishes for some m <= {n}"
            )
    x = monomial((1,))
    xinv = monomial((-1,))
    one = monomial((0,))
    abcd = a * b * c * d
    total = zero_poly(1)
    scalar = Fraction(1)
    pair = one
    qm = Fraction(1)
    for m in range(n + 1):
        total = total + pair * scalar
        if m == n:
            break
        ratio = (1 - q ** -n * qm) * (1 - abcd * q ** (n - 1) * qm) * q
        ratio /= (1 - q * qm) * (1 - a * b * qm) * (1 - a * c * qm) * (1 - a * d * qm)
        scalar *= ratio
        pair = pair * (one - x * (a * qm)) * (one - xinv * (a * qm))
        qm *= q
    return total * (qpoch_multi((a * b, a * c, a * d), q, n) * a ** -n)


def _psi_series_reference(s, P, N):
    """psi_series with each inner 6phi5 summed by phi_sum from its PhiSpec;
    a pole in row n is reported at the same term of that row."""
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    sq = P.sqrt_q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the series needs s != 0")
    pref = qbinom_series(a ** 2 / q, q, N)
    inner = []
    outer = Fraction(1)
    qn = Fraction(1)
    for n in range(N + 1):
        spec = PhiSpec(
            uppers=(
                q ** -n,
                q ** (n + 1) * s ** 2 / a ** 2,
                s,
                q * s / (a * b),
                q * s / (a * c),
                q * s / (a * d),
            ),
            lowers=(
                q ** 2 * s ** 2 / (a * b * c * d),
                sq * s / a,
                -sq * s / a,
                q * s / a,
                -q * s / a,
            ),
            base=q,
            argument=q,
        )
        try:
            inner.append(outer * phi_sum(spec, n))
        except PoleInLower as err:
            at_term = str(err).partition(" of ")[0]
            raise PoleInLower(f"{at_term} of row {n} of the inner 6phi5") from None
        outer *= (1 - q * s ** 2 / a ** 2 * qn) / (1 - q * qn) * (a / s)
        qn *= q
    coeffs = []
    for j in range(N + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += pref[i] * (q / a) ** i * inner[j - i]
        coeffs.append(acc)
    return tuple(coeffs)


def _odd_first(reference, s, P, N):
    """reference(s, P, N) after every c_o(m, n; s) with m + n <= N, which
    the walks build before any even term: a point degenerate in both
    families then raises the odd family's error on both sides."""
    for w in range(N + 1):
        for m in range(w + 1):
            coeff_co(m, w - m, s, P)
    return reference(s, P, N)


def _odd_sum_check_reference(l, s, P):
    """The direct side and the closed form of the degree-l odd sum, the
    direct side summed term by term through coeff_co."""
    P.require("a", "b", "c", "d")
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    s = rat(s)
    if s == 0:
        raise ParameterDegeneracy("the closed odd form needs s != 0")
    direct = sum(coeff_co(m, l - m, s, P) for m in range(l + 1))
    half = P.sqrt_q * s / (a * c)
    head = qpoch_ratio(
        (-d / c, q * s / (a * b), s, q * s ** 2 / (a ** 2 * c ** 2)),
        (q, q ** 2 * s ** 2 / (a * b * c * d), half, -half),
        q, l, "the head factor of the closed odd form",
    )
    spec = PhiSpec(
        uppers=(q ** -l, -(q ** -l) * a * c / s, -b / a, q * s / (c * d)),
        lowers=(-(q ** (-l + 1)) * c / d, q ** -l * a * b / s, -q * s / (a * c)),
        base=q,
        argument=q,
    )
    return direct, head * (q / d) ** l * phi_sum(spec, l)


def _outcome(fn, *args):
    """The value, or the class and message of the QbcError raised instead."""
    try:
        return fn(*args)
    except QbcError as exc:
        return type(exc), str(exc)


_SMALL = st.builds(
    Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)
)
_SQRT_Q = _SMALL.filter(lambda x: abs(x) != 1)


@st.composite
def _walk_inputs(draw):
    """A random small-height point and s.  Each coordinate is a small
    rational times a power of sqrt(q), so a lower ladder such as
    (q s / a^2; q)_2l or (q^2 s^2 / abcd; q)_m vanishes in about one draw
    in ten."""
    sq = draw(_SQRT_Q)

    def coordinate(lo, hi):
        return draw(_SMALL) * sq ** draw(st.integers(lo, hi))

    P = ParamPoint(
        sqrt_q=sq, a=coordinate(-2, 2), b=coordinate(-2, 2),
        c=coordinate(-2, 2), d=coordinate(-2, 2),
    )
    return P, coordinate(-6, 6)


# Points where a family's lower ladder first vanishes at degree 2, past the
# first step of its walk: the triangle of degree 1 is fine, degree 2 raises.
# EVEN_POLE: q^3 s^2/(a^2 c^2) = q^-2.  ODD_POLE: q^2 s^2/abcd = q^-1, which
# also starts (q^2 s^2/abcd; q)_(m+n) of the regrouped display.  RECAST_POLE:
# -q s/(ac) = q^-1, so the regrouped display's (-q s/(ac); q)_m vanishes at
# m = 2, and the odd walk meets the same factor in (-q s/(ac); q)_n of its
# row 0.  COUPLED_POLE:
# q^2 s/c^2 = q^-2, so (q^2 s/c^2; q)_(2k+l) vanishes at 2k + l = 3, in the
# coupled route and the primed family alike.  The split route has no such
# point: each of its lower factors vanishes only where a lower factor of the
# raw route, which runs first, vanishes at the same or a lower degree.
EVEN_POLE = (POINT_A, Fraction(672))
ODD_POLE = (POINT_A.replace(d=105), Fraction(840))
RECAST_POLE = (POINT_A, -POINT_A.a * POINT_A.c / POINT_A.q ** 2)
COUPLED_POLE = (POINT_A, Fraction(12544))


@st.composite
def _closed_even_inputs(draw):
    """A drawn point and s, or one changed so that a lower factor of the
    closed even form vanishes at a drawn degree: -s or -q s = q^(-2m) in the
    4phi3, or its a^2 c^2/q = q^(-2m); q^3 s^2/(a^2 c^2) = q^(-2m) in the
    head factor."""
    P, s = draw(_walk_inputs())
    q, sq = P.q, P.sqrt_q
    m, sign = draw(st.integers(0, 3)), draw(st.sampled_from((1, -1)))
    pole = draw(st.sampled_from(("none", "-s", "-qs", "ac", "head")))
    if pole == "-s":
        s = -(q ** (-2 * m))
    elif pole == "-qs":
        s = -(q ** (-2 * m - 1))
    elif pole == "ac":
        P = P.replace(c=sign * sq ** (1 - 2 * m) / P.a)
    elif pole == "head":
        s = sign * P.a * P.c * sq ** (-3 - 2 * m)
    return P, s


class TestClosedEvenForm:
    """even_sum_closed builds the parameters free of the degree once per
    call; it must give what the per-degree rebuild gave, values, error
    classes and messages alike."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_closed_even_inputs(), st.integers(0, 6))
    def test_matches_the_per_degree_reference(self, drawn, N):
        P, s = drawn
        assert _outcome(even_sum_closed, s, P, N) == _outcome(
            _even_sum_closed_reference, s, P, N
        )

    def test_degenerate_draws_raise_each_error(self):
        # the drawn inputs reach the head factor's ParameterDegeneracy and
        # the 4phi3's PoleInLower, as well as values
        seen = set()

        @settings(derandomize=True, max_examples=300, deadline=None)
        @given(_closed_even_inputs(), st.integers(0, 6))
        def record(drawn, N):
            P, s = drawn
            outcome = _outcome(_even_sum_closed_reference, s, P, N)
            seen.add(outcome[0] if type(outcome) is tuple else list)

        record()
        assert seen == {list, ParameterDegeneracy, PoleInLower}


class TestRunningRatioWalks:
    """phi_series, fourfold_poly and even_sum_forms build c_e / c_o terms by
    running ratios; each must agree with its per-term reference exactly, or
    raise the same error with the same message."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(_walk_inputs(), st.integers(0, 6), st.integers(0, 4))
    @example(EVEN_POLE, 2, 0)
    @example(ODD_POLE, 2, 0)
    @example(COUPLED_POLE, 2, 0)
    def test_walks_match_per_term_references(self, drawn, N, lam):
        P, s = drawn
        assert _outcome(phi_series, s, P, N) == _outcome(
            _odd_first, _phi_series_reference, s, P, N
        )
        assert _outcome(fourfold_poly, lam, P) == _outcome(
            _odd_first, lambda *_: _fourfold_reference(lam, P), P.q ** -lam, P, lam
        )
        assert _outcome(even_sum_forms, s, P, N) == _outcome(
            _even_sum_forms_reference, s, P, N
        )

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(_walk_inputs(), st.integers(0, 12))
    @example(ODD_POLE, 2)
    def test_fourfold_matches_the_per_lam_walk(self, drawn, lam):
        # the families built once per point at s = 1 and walked at shifts
        # -lam and w - lam, combined in integers, against both built at
        # s = q^-lam and combined one Fraction product at a time
        P, _ = drawn
        assert _outcome(fourfold_poly, lam, P) == _outcome(per_term.fourfold_poly, lam, P)

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(_walk_inputs(), st.integers(0, 4), st.integers(0, 6))
    @example(COUPLED_POLE, 2, 0)
    @example(ODD_POLE, 0, 2)
    @example(RECAST_POLE, 0, 2)
    def test_koornwinder_weight_walks_match_per_term_sums(self, drawn, D, W):
        # g_row_sym and g_row_general weigh their terms by these sums
        P, s = drawn
        assert _outcome(per_term.ce_prime_sums, s, P, D) == _outcome(
            lambda: [sum(coeff_ce_prime(K - l, l, s, P) for l in range(K + 1))
                     for K in range(D + 1)]
        )
        assert _outcome(odd_sums, s, P, W) == _outcome(
            lambda: [sum(coeff_co_recast(w - n, n, s, P) for n in range(w + 1))
                     for w in range(W + 1)]
        )

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(_walk_inputs(), st.integers(0, 6))
    @example(ODD_POLE, 2)
    @example(ODD_POLE, 1)
    def test_odd_sum_check_matches_per_term_sum(self, drawn, l):
        # the direct side read off the odd walk is the per-term sum, and
        # it raises exactly where a term of the sum does
        P, s = drawn
        assert _outcome(lambda: (odd_sums(s, P, l)[l], odd_sum_closed(l, s, P))) == _outcome(
            _odd_sum_check_reference, l, s, P
        )

    def test_even_walk_stops_at_a_vanishing_lower_ladder(self):
        # q^3 s^2/(a^2 c^2) = q^-2, so (q^3 s^2/(a^2 c^2); q^2)_l vanishes
        # from l = 2 on: the triangle k + l <= 1 is fine, k + l <= 2 is not
        P = POINT_A
        s = P.a * P.c / P.sqrt_q ** 5
        coeff_ce(1, 1, s, P)
        with pytest.raises(ParameterDegeneracy):
            coeff_ce(0, 2, s, P)
        assert even_sum_forms(s, P, 1) == _even_sum_forms_reference(s, P, 1)
        with pytest.raises(ParameterDegeneracy, match="even family"):
            even_sum_forms(s, P, 2)

    def test_odd_walk_stops_at_a_vanishing_lower_ladder(self):
        # abcd = 105^2 and q^2 s^2/abcd = q^-1, so (q^2 s^2/abcd; q)_m
        # vanishes from m = 2 on and c_o(m, n) with m + n = 2 has a zero
        # lower ladder
        P = POINT_A.replace(d=105)
        s = 105 / P.sqrt_q ** 3
        coeff_co(0, 1, s, P)
        for m in range(3):
            with pytest.raises(ParameterDegeneracy):
                coeff_co(m, 2 - m, s, P)
        assert phi_series(s, P, 1) == _phi_series_reference(s, P, 1)
        with pytest.raises(ParameterDegeneracy, match="odd family"):
            phi_series(s, P, 2)

    @pytest.mark.parametrize(
        "walk, point, family",
        [
            (even_sum_forms, EVEN_POLE, "the even family"),
            (phi_series, ODD_POLE, "the odd family"),
            (even_sum_forms, COUPLED_POLE, "the coupled form"),
            (per_term.ce_prime_sums, COUPLED_POLE, "the primed even family"),
            (odd_sums, ODD_POLE, "the odd family"),
            (odd_sums, RECAST_POLE, "the odd family"),
        ],
    )
    def test_pole_points_raise_at_degree_two(self, walk, point, family):
        # the @example points above are degenerate where they claim to be
        P, s = point
        walk(s, P, 1)
        with pytest.raises(ParameterDegeneracy) as info:
            walk(s, P, 2)
        assert str(info.value) == f"vanishing lower Pochhammer in {family}"


# PSI_POLE: q s/a = q^-1, so the lower (q s/a; q)_k of the inner 6phi5
# vanishes at its second term; rows 2 and 3 stop first at a zero upper
# q^(n+1) s^2/a^2 q^k, and row 4 raises.  PSI_CUTOFF: the upper s = q^-2
# ends every row from n = 3 on before q^-n does.  AW_POLE: ab = q^-1, so
# (ab; q)_n vanishes from n = 2 on.
PSI_POLE = (POINT_A, POINT_A.a / POINT_A.q ** 2)
PSI_CUTOFF = (POINT_B, POINT_B.q ** -2)
AW_POLE = (ParamPoint(sqrt_q=Fraction(1, 2), a=2, b=2, c=5, d=7), Fraction(1, 3))


class TestIntegerRecordPaths:
    """psi_series and aw_poly run on integer records; each must agree with
    its reference exactly, or raise the same error with the same message."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(_walk_inputs(), st.integers(0, 8), st.integers(0, 6))
    @example(PSI_POLE, 6, 0)
    @example(PSI_CUTOFF, 6, 0)
    @example(AW_POLE, 0, 3)
    def test_psi_series_and_aw_poly_match_references(self, drawn, N, n):
        P, s = drawn
        assert _outcome(psi_series, s, P, N) == _outcome(_psi_series_reference, s, P, N)
        assert _outcome(aw_poly, n, P) == _outcome(_aw_poly_reference, n, P)

    @pytest.mark.parametrize(
        "call, degree, error, message",
        [
            (lambda k: psi_series(PSI_POLE[1], PSI_POLE[0], k), 4, PoleInLower,
             "lower parameter ladder vanished at term 2 of "),
            (lambda k: aw_poly(k, AW_POLE[0]), 2, ParameterDegeneracy,
             "lower Pochhammer (4;q)_m vanishes for some m <= 2"),
        ],
        ids=["psi", "aw"],
    )
    def test_pole_points_raise_at_their_degree(self, call, degree, error, message):
        # the @example points above are degenerate where they claim to be
        call(degree - 1)
        with pytest.raises(error) as info:
            call(degree)
        assert str(info.value).startswith(message)


def _simplified_series_reference(variant, s, P, N):
    """simplified_series with its l and m ladders rebuilt by qpoch_ratio at
    every degree, as it was before it walked them."""
    P.require("a", "b", "c", "d")
    sq = P.sqrt_q
    q = P.q
    s = rat(s)
    A = -P.a
    B = P.b
    if P.c != -sq * A:
        raise ParameterDegeneracy("variant needs c = -q^(1/2) a chained to a")
    if variant == HALF_BASE:
        if P.d != sq * B:
            raise ParameterDegeneracy("half-base variant needs d = q^(1/2) b")
    elif variant == FULL_BASE:
        if P.d != sq * A:
            raise ParameterDegeneracy("full-base variant needs d = q^(1/2) a")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    coeffs = [Fraction(0)] * (N + 1)
    for l in range(N + 1):
        if variant == HALF_BASE:
            lterm = (
                qpoch_ratio((B / A, s / A ** 2), (sq, sq * s / (A * B)), sq, l, "the l ladder")
                * qpoch_ratio((s,), (s / A ** 2,), q, l, "the l ladder")
                * (sq / B) ** l
            )
        else:
            lterm = qpoch_ratio(
                (B / A, s ** 2 / A ** 4, s), (q, q * s ** 2 / (A ** 3 * B), s / A ** 2),
                q, l, "the l ladder",
            ) * (q / B) ** l
        for m in range((N - l) // 2 + 1):
            mterm = qpoch_ratio(
                (A ** 2, q ** l * s), (q, q ** (l + 1) * s / A ** 2), q, m, "the m ladder"
            )
            coeffs[2 * m + l] += lterm * mterm * (q / A ** 2) ** m
    return tuple(coeffs)


@st.composite
def _tied_inputs(draw):
    """A tied point of either simplified_series variant and an s that is 1,
    A^2, A B or A^3 B times a small rational times a power of sqrt(q), so
    lower factors such as s/A^2, q^(1/2) s/(A B) and q s^2/(A^3 B) hit
    q^-k too."""
    sq = draw(_SQRT_Q)

    def coordinate(lo, hi):
        return draw(_SMALL) * sq ** draw(st.integers(lo, hi))

    variant = draw(st.sampled_from((HALF_BASE, FULL_BASE)))
    A, B = coordinate(-2, 2), coordinate(-2, 2)
    d = sq * (B if variant == HALF_BASE else A)
    P = ParamPoint(sqrt_q=sq, a=-A, b=B, c=-sq * A, d=d)
    scale = draw(st.sampled_from((1, A * A, A * B, A ** 3 * B)))
    return variant, scale * coordinate(-8, 8), P


# FULL_LAST_POLE: s/A^2 = q^-N at N = 4.  The full-base walk keeps the
# quadratic-pair lemma's lower ladder (q s/A^2; q)_l uncancelled, so it
# raises at l = N, where the per-degree ladders cancel that factor and stay
# finite.  phi_series raises there as well from N = 2 on, at the even
# family's lower factor 1 - q^N s/A^2 of w = N - 2, l = 1; the suites
# truncate at N >= 4.
_FULL = ParamPoint(sqrt_q=Fraction(1, 2), a=-3, b=5, c=-Fraction(3, 2), d=Fraction(3, 2))
FULL_LAST_POLE = (FULL_BASE, 9 * _FULL.q ** -4, _FULL)
# FULL_Q_POLE: s/A^2 = q^-1, so the walk's lower (q s/A^2; q)_1 vanishes
# from N = 1 on, while phi_series is finite at N = 1 and raises from N = 2
# on; below N = 2 the full-base walk is no longer defined.
_FULL_Q = ParamPoint(
    sqrt_q=Fraction(1, 2), a=-Fraction(1, 4), b=5, c=-Fraction(1, 8), d=Fraction(1, 8)
)
FULL_Q_POLE = (FULL_BASE, Fraction(1, 4), _FULL_Q)


def _raised(fn, *args):
    """The value, or the class of the QbcError raised instead."""
    try:
        return fn(*args)
    except QbcError as exc:
        return type(exc)


class TestTiedCollapseWalks:
    """simplified_series walks both collapses as stride-2 record tables; it
    gives the per-degree reference's coefficients, or raises
    ParameterDegeneracy where the reference does.  The full-base walk is
    defined from N = 2 on and raises ValueError below."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_tied_inputs(), st.integers(0, 8))
    @example(FULL_LAST_POLE, 4)
    @example(FULL_Q_POLE, 1)
    @example(FULL_Q_POLE, 2)
    def test_collapses_match_per_degree_reference(self, drawn, N):
        variant, s, P = drawn
        if variant == FULL_BASE and N < 2:
            with pytest.raises(ValueError):
                simplified_series(variant, s, P, N)
            return
        got = _raised(simplified_series, variant, s, P, N)
        want = _raised(_simplified_series_reference, variant, s, P, N)
        if got is ParameterDegeneracy and want is not ParameterDegeneracy:
            # only the uncancelled lower factor 1 - q^N s/A^2 at l = N
            assert variant == FULL_BASE and s / P.a ** 2 == P.q ** -N
            assert _raised(phi_series, s, P, N) is ParameterDegeneracy
        else:
            assert got == want

    def test_full_base_raises_at_its_last_lower_factor(self):
        # the @example point is degenerate only for the walk, and only at N
        variant, s, P = FULL_LAST_POLE
        assert simplified_series(variant, s, P, 3) == _simplified_series_reference(
            variant, s, P, 3
        )
        _simplified_series_reference(variant, s, P, 4)
        with pytest.raises(ParameterDegeneracy) as info:
            simplified_series(variant, s, P, 4)
        assert str(info.value) == "vanishing lower Pochhammer in the full-base collapse"
        with pytest.raises(ParameterDegeneracy):
            phi_series(s, P, 4)


# -- the record walker's integer sums ------------------------------------------


def _walk_reference(tops, q, outer, inner, what, shift=0, stride=1):
    """qseries.walk as it was before it summed in integers: each term one
    reduced Fraction, added to its anti-diagonal by one Fraction addition."""
    if any(record[2] for record in outer[1] + outer[2]):
        raise ValueError("an outer step leaves a term with j = 0; its records carry y = 0")

    def advance(term, step, i, j):
        num, den, low = qseries._factors(step, i, j)
        if low == 0:
            raise ParameterDegeneracy(f"vanishing lower Pochhammer in {what}")
        return Fraction(term.numerator * num, term.denominator * den * low)

    outer, inner = _compiled(q, outer, inner, shift=shift)
    size = max((i + stride * top for i, top in enumerate(tops)), default=-1) + 1
    sums = [Fraction(0)] * size
    head = Fraction(1)
    for i, top in enumerate(tops):
        if i:
            head = advance(head, outer, i - 1, 0)
        term = head
        for j in range(top + 1):
            if j:
                term = advance(term, inner, i, j - 1)
            sums[i + stride * j] += term
    return sums


def _walk_log(walk, tops, base, outer, inner, shift, stride):
    """The walk's sums, or the class and message of the QbcError it raises
    with the number of steps it formed and the last of them.  Steps are
    logged at qseries._factors, the name the walker (and the reference
    above) reads it by."""
    steps = []
    factors = qseries._factors

    def logged(step, i, j):
        steps.append((step, i, j))
        return factors(step, i, j)

    qseries._factors = logged
    try:
        return walk(tops, base, outer, inner, "the drawn family", shift, stride)
    except QbcError as exc:
        return type(exc), str(exc), len(steps), steps[-1]
    finally:
        qseries._factors = factors


@st.composite
def _walk_tables(draw):
    """(tops, base, outer, inner, shift, stride) for qseries.walk.  The
    base may be negative, as the half-base collapse's q^(1/2) may be; each
    record's C is a small rational times a power of it, and may carry s^p,
    so upper and lower factors vanish at reachable terms, and factors
    1 - C with C > 1 make negative lower products."""
    base = draw(_SQRT_Q)

    def step(outer):
        def record():
            C = draw(_SMALL) * base ** draw(st.integers(-4, 4))
            x, y = draw(st.integers(0, 2)), 0 if outer else draw(st.integers(0, 2))
            return (C, x, y) + tuple(draw(st.lists(st.integers(0, 2), max_size=1)))

        weight = draw(_SMALL) * base ** draw(st.integers(-2, 2))
        numer = [record() for _ in range(draw(st.integers(0, 3)))]
        denom = [record() for _ in range(draw(st.integers(0, 3)))]
        return weight, numer, denom

    tops = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)), reverse=True)
    return tops, base, step(True), step(False), draw(st.integers(0, 3)), draw(st.sampled_from((1, 2)))


_H = Fraction(1, 2)
# UPPER_ZERO: 1 - 4 (1/2)^j vanishes at j = 2, so every row ends in zero
# terms from j = 3 on.  NEGATIVE_LOW: the inner lower factor 1 - 3 is -2
# at every step and the outer one 1 - 7 (1/2)^i is negative for i <= 2.
# LOWER_ZERO: 1 - 2 (1/2)^j vanishes at j = 1, so the walk raises on the
# step that leaves (0, 1).  SHIFTED_POLE: with base -1/2 and shift 2, the
# lower record (-8, 1, 1, 1) is 1 - (-2)(-1/2)^(i + j), zero where
# i + j = 1; the stride-2 walk raises on the step that leaves (0, 1).
UPPER_ZERO = (
    [5, 3, 1], _H, (Fraction(1, 3), [(Fraction(3), 1, 0)], [(Fraction(5), 1, 0)]),
    (Fraction(2), [(Fraction(4), 0, 1)], [(Fraction(7), 0, 1)]), 0, 1,
)
NEGATIVE_LOW = (
    [4, 4, 2], _H, (Fraction(1, 3), [(Fraction(3), 1, 0)], [(Fraction(7), 1, 0)]),
    (Fraction(2), [(Fraction(5), 1, 1)], [(Fraction(3), 0, 0), (Fraction(1, 3), 0, 1)]), 0, 1,
)
LOWER_ZERO = (
    [3, 3], _H, (Fraction(1, 3), [(Fraction(3), 1, 0)], [(Fraction(5), 1, 0)]),
    (Fraction(2), [(Fraction(5), 0, 1)], [(Fraction(2), 0, 1)]), 0, 1,
)
SHIFTED_POLE = (
    [3, 2], -_H, (Fraction(1, 3), [(Fraction(3), 1, 0)], [(Fraction(5), 1, 0)]),
    (Fraction(2), [(Fraction(5), 0, 1, 1)], [(Fraction(-8), 1, 1, 1)]), 2, 2,
)


class TestIntegerDiagonalSums:
    """qseries.walk keeps its terms as reduced integer pairs and its sums as
    integer numerators over a running lcm; it must give the Fraction
    walker's sums, or raise its error, with its message, at its step."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_walk_tables())
    @example(UPPER_ZERO)
    @example(NEGATIVE_LOW)
    @example(LOWER_ZERO)
    @example(SHIFTED_POLE)
    def test_walker_matches_the_fraction_walker(self, table):
        assert _walk_log(qseries.walk, *table) == _walk_log(_walk_reference, *table)

    def test_example_tables_are_what_they_claim(self):
        tops, base, outer, inner, shift, stride = UPPER_ZERO
        sums = qseries.walk(tops, base, outer, inner, "", shift, stride)
        cut = qseries.walk([2, 2, 1], base, outer, inner, "", shift, stride)
        assert sums == cut + [0] * (len(sums) - len(cut)) and all(sums[:4])
        tops, base, outer, inner, shift, stride = NEGATIVE_LOW
        [step] = _compiled(base, inner)
        assert all(_factors(step, 0, j)[2] < 0 for j in range(4))
        for table, steps, last in ((LOWER_ZERO, 2, (0, 1)), (SHIFTED_POLE, 2, (0, 1))):
            error, message, count, (_, i, j) = _walk_log(qseries.walk, *table)
            assert (error, message) == (
                ParameterDegeneracy, "vanishing lower Pochhammer in the drawn family"
            )
            assert (count, (i, j)) == (steps, last)

    @pytest.mark.parametrize("cp", default_config().points("askey-wilson"), ids=["p1", "p2", "p3"])
    def test_degree_24_sums_match_the_fraction_walker(self, cp, monkeypatch):
        # the suites' extended degree: fourfold_poly at lambda = 24 and
        # phi_series through x^24 at the shipped s
        P = cp.point
        got = fourfold_poly(24, P), phi_series(P.s, P, 24)
        monkeypatch.setattr(askey_wilson, "walk", _walk_reference)
        assert (fourfold_poly(24, P), phi_series(P.s, P, 24)) == got
