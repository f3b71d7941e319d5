"""Tests for the n-variable layer.

The triangular eigen-solver is the reference for the one-row formulas, so
it gets its own independent checks first: direct rational substitution for
the operator, the rank-one reduction, and eigenvalue distinctness scans.
"""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbc.algebra import (
    ClearedShiftOperator,
    LaurentPoly,
    OrbitPoly,
    ParamPoint,
    dominated_partitions,
    format_rational,
    padded_partition,
)
from qbc.askey_wilson import aw_apply, aw_eigenvalue, aw_poly
from qbc.errors import DimensionMismatch, ParameterDegeneracy, QbcError
from qbc import koornwinder
from qbc.koornwinder import (
    _koorn_operator,
    _poly_mul,
    g_row_general,
    g_row_sym,
    g_series,
    g_series_list,
    kernel_identity_check,
    koorn_apply,
    koorn_oracle,
    row_sum,
)
from qbc.qseries import qbinom_series, qpoch
from qbc.suites import RunConfig, _plan, _run, default_config, run_suite
from conftest import monomial_symmetric, orbit_sum, poly_key
import full_terms
import per_term

POINT_K1 = ParamPoint(
    sqrt_q=Fraction(1, 2), sqrt_t=Fraction(1, 3), a=2, b=3, c=5, d=Fraction(5, 6)
)
POINT_K2 = ParamPoint(
    sqrt_q=Fraction(1, 3),
    sqrt_t=Fraction(1, 2),
    a=3,
    b=2,
    c=Fraction(1, 2),
    d=Fraction(3, 4),
)
# chained family b=-a, d=-c keeps abcd/q a perfect square (alpha = 20)
POINT_SYM = POINT_K1.replace(b=-2, d=-5)
# kernel points need t = q^beta and a rational alpha: abcd = 441, alpha = 42
POINT_KER1 = ParamPoint(
    sqrt_q=Fraction(1, 2), sqrt_t=Fraction(1, 2), a=3, b=5, c=7, d=Fraction(21, 5)
)
POINT_KER2 = POINT_KER1.replace(sqrt_t=Fraction(1, 4))
# both shipped koornwinder points have a^2 q = 1, where a and 1/(q a) agree;
# this one has a^2 q = 4/9 (abcd/q = 900, alpha = 30)
POINT_K3 = ParamPoint(
    sqrt_q=Fraction(1, 3), sqrt_t=Fraction(1, 2), a=2, b=3, c=5, d=Fraction(10, 3)
)


def eval_two_vars(f, x1, x2):
    assert f.num_vars == 2 and f.scale == 1
    return sum(
        (c * x1 ** e[0] * x2 ** e[1] for e, c in f.terms.items()), Fraction(0)
    )


class TestOperator:
    def test_kills_constants(self):
        assert koorn_apply(orbit_sum((), 2), POINT_K1, 2).is_zero()

    def test_rank_one_reduction(self):
        # the n=1 operator is the one-variable operator divided by alpha
        P = POINT_K1
        f = aw_poly(2, P)
        image = koorn_apply(OrbitPoly.from_poly(f), P, 1)
        assert image.expand() == aw_apply(f, P) * (1 / P.alpha)

    def test_matches_direct_substitution(self):
        P = POINT_K1
        a, b, c, d, q, t = P.a, P.b, P.c, P.d, P.q, P.t
        f = monomial_symmetric((2, 1), 2) + monomial_symmetric((1,), 2) * 3
        x = (Fraction(2, 3), Fraction(3, 7))

        def up_coeff(i):
            xi, xj = x[i], x[1 - i]
            head = (1 - a * xi) * (1 - b * xi) * (1 - c * xi) * (1 - d * xi)
            head /= (1 - xi ** 2) * (1 - q * xi ** 2)
            pair = (1 - t * xi * xj) * (1 - t * xi / xj)
            pair /= (1 - xi * xj) * (1 - xi / xj)
            return head * pair

        def down_coeff(i):
            xi, xj = x[i], x[1 - i]
            head = (1 - a / xi) * (1 - b / xi) * (1 - c / xi) * (1 - d / xi)
            head /= (1 - 1 / xi ** 2) * (1 - q / xi ** 2)
            pair = (1 - t * xj / xi) * (1 - t / (xi * xj))
            pair /= (1 - xj / xi) * (1 - 1 / (xi * xj))
            return head * pair

        fx = eval_two_vars(f, *x)
        direct = Fraction(0)
        for i in range(2):
            shift_up = list(x)
            shift_up[i] *= q
            shift_dn = list(x)
            shift_dn[i] /= q
            direct += up_coeff(i) * (eval_two_vars(f, *shift_up) - fx)
            direct += down_coeff(i) * (eval_two_vars(f, *shift_dn) - fx)
        direct /= P.alpha * t
        image = koorn_apply(OrbitPoly.from_poly(f), P, 2)
        assert eval_two_vars(image.expand(), *x) == direct


def koorn_eigenvalue(lam, P: ParamPoint, n: int) -> Fraction:
    """The operator's eigenvalue on P_lam: the sum over j of
    e_j + 1/e_j - b_j - 1/b_j for b_j = alpha t^(n - j) and e_j = b_j q^(lam_j),
    the reference the solve's residual is checked against."""
    P.require("a", "b", "c", "d", "sqrt_t")
    alpha, q, t = P.alpha, P.q, P.t
    total = Fraction(0)
    for j, part in enumerate(padded_partition(lam, n), start=1):
        base = alpha * t ** (n - j)
        shifted = base * q ** part
        total += shifted + 1 / shifted - base - 1 / base
    return total


class TestEigenvalue:
    def test_empty_partition(self):
        assert koorn_eigenvalue((), POINT_K1, 2) == 0

    def test_rank_one_matches(self):
        P = POINT_K1
        for m in range(5):
            assert koorn_eigenvalue((m,), P, 1) == aw_eigenvalue(m, P) / P.alpha

    def test_distinct_below_weight_four(self):
        for P in (POINT_K1, POINT_K2, POINT_SYM):
            seen = {}
            for w in range(5):
                for mu in _partitions_of_weight(w, 2):
                    val = koorn_eigenvalue(mu, P, 2)
                    assert val not in seen.values() or mu in seen
                    seen[mu] = val
            assert len(set(seen.values())) == len(seen)


def _partitions_of_weight(w, length):
    out = []
    for first in range(w, -1, -1):
        for second in range(min(first, w - first), -1, -1):
            if first + second == w:
                out.append((first, second))
    return out


class TestOracle:
    @pytest.mark.usefixtures("isolated_cache")
    def test_trivial_partition(self):
        assert koorn_oracle((), POINT_K1, 2) == orbit_sum((), 2)

    @pytest.mark.usefixtures("isolated_cache")
    def test_rank_one_is_monic_rescale(self):
        P = POINT_K1
        p = aw_poly(2, P)
        monic = p * (1 / p.coeff((2,)))
        assert koorn_oracle((2,), P, 1) == OrbitPoly.from_poly(monic)

    @pytest.mark.usefixtures("isolated_cache")
    def test_eigen_residual_and_monic(self):
        P = POINT_K1
        poly = koorn_oracle((2, 1), P, 2)
        assert poly.coeff((2, 1)) == 1
        eig = koorn_eigenvalue((2, 1), P, 2)
        assert koorn_apply(poly, P, 2) == poly * eig

    @pytest.mark.usefixtures("isolated_cache")
    def test_rows_share_operator_columns(self, monkeypatch):
        # the bases of rows 0-3 at rank 3 nest, so four uncached solves
        # apply the operator once per distinct mu, not once per column; the
        # operator keeps the columns, so a fresh one starts with none
        applied = []
        real_apply = ClearedShiftOperator.apply

        def spy(op, f):
            applied.append(poly_key(f))
            return real_apply(op, f)

        _koorn_operator.cache_clear()
        monkeypatch.setattr(ClearedShiftOperator, "apply", spy)
        distinct, columns = set(), 0
        for r in range(4):
            basis = dominated_partitions((r,), 3)
            distinct.update(basis)
            columns += len(basis)
            koorn_oracle((r,), POINT_K1, 3)
        assert columns == 14
        assert len(applied) == len(set(applied)) == len(distinct) == 7

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        # a schema-2 entry holds the solve's orbit coefficients, on the
        # weights dominated by (2)
        monkeypatch.setenv("QBC_CACHE_DIR", str(tmp_path))
        first = koorn_oracle((2,), POINT_K2, 2)
        files = list((tmp_path / "koornwinder").glob("*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["schema"] == 2
        weights = [tuple(term["exps"]) for term in entry["polynomial"]["terms"]]
        assert sorted(weights) == sorted(first.terms) == [(0, 0), (1, 0), (1, 1), (2, 0)]
        second = koorn_oracle((2,), POINT_K2, 2)
        assert first == second

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("coeff", "1/0"),
            ("coeff", "1.5/1"),
            ("coeff", "3"),
            ("coeff", 3),
            ("exps", 1.5),
            ("exps", True),
            ("exps", None),
            ("weight", [0, -1]),
            ("weight", [0, 1]),
            ("weight", [0]),
            ("weight", [3, 0]),
            ("schema", 1),
        ],
        ids=[
            "zero-denominator", "fractional-numerator", "no-denominator",
            "coefficient-not-text", "fractional-exponent", "bool-exponent",
            "extra-exponent", "negative-weight", "increasing-weight", "short-weight",
            "weight-outside-the-basis", "schema-1",
        ],
    )
    def test_malformed_entry_is_solved_again(self, field, bad, tmp_path, monkeypatch):
        # the entry's checksum matches, but its first term holds a
        # coefficient that is no p/q text with q nonzero, an exponent that is
        # no int (1.5, or a bool), one exponent too many (None) or a weight
        # that is not in the solve's basis: negative, increasing, short, or
        # dominant but not dominated by (2); or the entry is of schema 1,
        # whose terms were the full polynomial's.  The reader must reject
        # it, not raise ZeroDivisionError, truncate 1.5 to 1, read True as 1
        # or take a weight off the basis, and the oracle solves again and
        # rewrites the entry
        monkeypatch.setenv("QBC_CACHE_DIR", str(tmp_path))
        solved = koorn_oracle((2,), POINT_K2, 2)
        (path,) = (tmp_path / "koornwinder").glob("*.json")
        entry = json.loads(path.read_text())
        term = entry["polynomial"]["terms"][0]
        if field == "coeff":
            term["coeff"] = bad
        elif field == "weight":
            term["exps"] = bad
        elif field == "schema":
            entry["schema"] = bad
        elif bad is None:
            term["exps"] = term["exps"] + [0]
        else:
            term["exps"] = [bad] + term["exps"][1:]
        entry["sha256"] = koornwinder._checksum(entry["polynomial"])
        path.write_text(json.dumps(entry))
        assert koorn_oracle((2,), POINT_K2, 2) == solved
        rewritten = json.loads(path.read_text())
        assert rewritten["schema"] == 2
        assert rewritten["polynomial"] == solved.to_json_obj()

    def test_entry_bytes_are_json_dump_bytes(self, tmp_path, monkeypatch):
        # the entry is the header, the polynomial and its checksum, written
        # in the bytes json.dump with sorted keys gives them
        monkeypatch.setenv("QBC_CACHE_DIR", str(tmp_path))
        lam = (2, 1)
        solved = koorn_oracle(lam, POINT_K1, 2)
        (path,) = (tmp_path / "koornwinder").glob("*.json")
        body = solved.to_json_obj()
        payload = dict(
            koornwinder._cache_header(lam, POINT_K1, 2),
            polynomial=body,
            sha256=koornwinder._checksum(body),
        )
        want = io.StringIO()
        json.dump(payload, want, sort_keys=True)
        assert path.read_bytes() == want.getvalue().encode()


def _g_list_reference(rmax, n, P):
    """(G_0, ..., G_rmax) by one convolution truncated at rmax: the 2n
    factor series multiplied in turn, every order of one factor before
    the next, as g_series_list computed it before its table grew."""
    heads = qbinom_series(P.t, P.q, rmax)
    out = [LaurentPoly.monomial((0,) * n)] + [LaurentPoly.zero(n) for _ in range(rmax)]
    for i in range(n):
        for sign in (1, -1):
            new = [LaurentPoly.zero(n) for _ in range(rmax + 1)]
            for r in range(rmax + 1):
                for j in range(rmax + 1 - r):
                    exps = [0] * n
                    exps[i] = sign * j
                    new[r + j] = new[r + j] + out[r] * LaurentPoly.monomial(exps, heads[j])
            out = new
    return out


class TestGeneratingFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_growing_table_matches_per_rmax_convolution(self, n, g_builds):
        # orders requested in increasing order grow the table one entry at
        # a time; every prefix is the orbit form of the convolution
        # truncated there.  The rank-n table grows from the rank-(n - 1)
        # one, so orders 0..6 are built once at each of the n ranks and 2
        # points
        for P in (POINT_K1, POINT_K2):
            for rmax in range(7):
                want = [OrbitPoly.from_poly(g) for g in _g_list_reference(rmax, n, P)]
                assert list(g_series_list(rmax, n, P)) == want
        assert len(g_builds) == len(set(g_builds)) == 14 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "P",
        [
            pytest.param(POINT_K1, id="koornwinder-1"),
            pytest.param(POINT_K2, id="koornwinder-2"),
            pytest.param(default_config().points("macdonald")[0].point, id="macdonald-1"),
        ],
    )
    def test_orbit_table_is_the_full_term_table_on_dominant_weights(self, P, n, g_builds):
        # the orbit recursion against the full-term recursion it replaced:
        # orders 0..6 at ranks 1-4, the full-term G_m invariant and its
        # coefficients at the dominant exponents those of the orbit form
        want = [OrbitPoly.from_poly(g) for g in full_terms.g_series_list(6, n, P)]
        assert list(g_series_list(6, n, P)) == want

    def test_table_serves_any_request_order_from_one_build(self, g_builds):
        full = g_series_list(5, 2, POINT_K2)
        for rmax in (0, 3, 1, 5, 2, 4):
            part = g_series_list(rmax, 2, POINT_K2)
            assert isinstance(part, tuple) and len(part) == rmax + 1
            assert all(a is b for a, b in zip(part, full))
        assert g_series_list(-1, 2, POINT_K2) == ()
        # the rank-2 entries and the rank-1 entries they grow from, once each
        assert len(g_builds) == 12
        assert set(g_builds) == {(j, k, POINT_K2) for j in range(6) for k in (1, 2)}

    def test_order_zero(self):
        assert g_series(0, 2, POINT_K1) == orbit_sum((), 2)

    def test_order_one(self):
        P = POINT_K1
        head = (1 - P.t) / (1 - P.q)
        assert g_series(1, 1, P) == orbit_sum((1,), 1, coeff=head)
        assert g_series(1, 2, P) == orbit_sum((1,), 2, coeff=head)

    def test_top_monomial_weight(self):
        P = POINT_K2
        g3 = g_series(3, 2, P)
        assert g3.coeff((3, 0)) == qpoch(P.t, P.q, 3) / qpoch(P.q, P.q, 3)

    def test_functional_equation(self):
        # the product satisfies F(u) prod(1-u x_i^{+-1}) = F(qu) prod(1-tu x_i^{+-1})
        P = POINT_K1
        q, t, n, rmax = P.q, P.t, 2, 5
        gs = [g.expand() for g in g_series_list(rmax, n, P)]

        def elementary(scalar):
            polys = [LaurentPoly.monomial((0,) * n)]
            for i in range(n):
                for sign in (1, -1):
                    e = [0] * n
                    e[i] = sign
                    factor = LaurentPoly.monomial(e, -scalar)
                    new = polys + [LaurentPoly.zero(n)]
                    for r in range(len(polys)):
                        new[r + 1] = new[r + 1] + polys[r] * factor
                    polys = new
            return polys

        plain = elementary(Fraction(1))
        scaled = elementary(t)
        for r in range(rmax + 1):
            lhs = LaurentPoly.zero(n)
            rhs = LaurentPoly.zero(n)
            for j in range(r + 1):
                if r - j < len(plain):
                    lhs = lhs + gs[j] * plain[r - j]
                    rhs = rhs + gs[j] * (q ** j) * scaled[r - j]
            assert lhs == rhs


def _sym_row(r, P, n):
    """The chained family's row: g_row_sym's weights on the G table."""
    gs = g_series_list(r, n, P)
    return row_sum(n, ((gs[r - d], w) for d, w in enumerate(g_row_sym(r, P, n))))


class TestOneRowFormulas:
    def test_row_sym_low_orders(self):
        P = POINT_SYM
        assert _sym_row(0, P, 2) == orbit_sum((), 2)
        assert _sym_row(1, P, 2) == g_series(1, 2, P)

    @pytest.mark.usefixtures("isolated_cache")
    def test_row_sym_matches_oracle(self):
        P = POINT_SYM
        for r in range(4):
            head = qpoch(P.t, P.q, r) / qpoch(P.q, P.q, r)
            expected = koorn_oracle((r,), P, 2) * head
            assert _sym_row(r, P, 2) == expected

    def test_row_general_collapses_to_sym(self):
        P = POINT_SYM
        for r in range(3):
            assert g_row_general(r, P, 2) == _sym_row(r, P, 2)

    @pytest.mark.usefixtures("isolated_cache")
    def test_row_general_matches_oracle_rank_one(self):
        P = POINT_K1
        for r in range(4):
            head = qpoch(P.t, P.q, r) / qpoch(P.q, P.q, r)
            expected = koorn_oracle((r,), P, 1) * head
            assert g_row_general(r, P, 1) == expected

    @pytest.mark.usefixtures("isolated_cache")
    def test_row_general_matches_oracle_two_vars(self):
        for P in (POINT_K1, POINT_K2):
            for r in range(3):
                head = qpoch(P.t, P.q, r) / qpoch(P.q, P.q, r)
                expected = koorn_oracle((r,), P, 2) * head
                assert g_row_general(r, P, 2) == expected


@pytest.mark.usefixtures("isolated_cache")
@pytest.mark.parametrize("n, r", [(5, 3), (6, 3)])
@pytest.mark.parametrize(
    "P",
    [pytest.param(cp.point, id=f"p{i}") for i, cp in enumerate(default_config().points("koornwinder"), 1)],
)
def test_row_general_matches_the_uncached_oracle_past_the_suite_ranks(P, n, r):
    # the frontier the suite does not reach: each oracle a fresh solve on
    # an empty cache, over the basis below (r) at ranks 5 and 6
    head = qpoch(P.t, P.q, r) / qpoch(P.q, P.q, r)
    assert g_row_general(r, P, n) == koorn_oracle((r,), P, n) * head


@pytest.mark.parametrize("n, r", [(8, 4), (16, 3)])
@pytest.mark.parametrize(
    "P",
    [pytest.param(cp.point, id=f"p{i}") for i, cp in enumerate(default_config().points("koornwinder"), 1)],
)
def test_row_general_is_the_full_term_row_past_the_suite_ranks(P, n, r, monkeypatch):
    # the row on orbit forms against the same row summed over the full-term
    # G tables, 3,649 terms at (8, 4) and 6,017 at (16, 3), where the orbit
    # form holds 12 and 7 coefficients
    got = g_row_general(r, P, n)
    full_terms.use_full_terms(monkeypatch)
    want = g_row_general(r, P, n)
    assert type(want) is LaurentPoly
    assert OrbitPoly.from_poly(want) == got
    assert len(got.terms) == len(dominated_partitions((r,), n))


@pytest.mark.usefixtures("isolated_cache")
def test_row_general_matches_the_oracle_where_a_squared_q_is_not_one():
    # the koornwinder suite's 14 cases, ranks 1-3, at POINT_K3: a wrong
    # rescaled a in g_row_general that the shipped points hide fails here
    points = {"koornwinder": [POINT_K3.to_json_obj()]}
    cfg = RunConfig.from_json_obj({"schema": 1, "points": points}, default_config())
    report = run_suite("koornwinder", cfg)
    assert [c.verdict for c in report.cases] == ["pass"] * 14


def _kernel_residuals_reference(n, beta, deg, P):
    """kernel_identity_check's residuals with all their terms, one per
    y-degree e, each summed from five polynomial scalings per j as the
    check did before it formed one scalar weight per j."""
    q, t, alpha, st = P.q, P.t, P.alpha, P.sqrt_t
    ratio = P.sqrt_q / st
    W = [g.expand() * ratio ** r for r, g in enumerate(g_series_list(deg, n, P))]
    DW = [koornwinder.koorn_apply(OrbitPoly.from_poly(w), P, n).expand() for w in W]
    const = (st ** n - st ** -n) * (alpha * st ** (n - 2) - 1 / (alpha * st ** (n - 2)))
    alpha_tilde = t / alpha
    lcd = _poly_mul(_poly_mul([1, 0, -1], [1, 0, -q]), [-q, 0, 1])
    gup, gdown = [-q, 0, 1], [1, 0, -q]
    for u in (P.sqrt_q * st / u for u in (P.a, P.b, P.c, P.d)):
        gup = _poly_mul(gup, [1, -u])
        gdown = _poly_mul(gdown, [-u, 1])
    gdown = [-v for v in gdown]
    residuals = []
    for e in range(deg + 1):
        residual = LaurentPoly.zero(n)
        for j in range(min(e, 6) + 1):
            w = W[e - j]
            if lcd[j]:
                residual = residual + (DW[e - j] + w * const) * lcd[j]
            power = beta * n + e - j
            if gup[j]:
                residual = residual - w * (gup[j] * (q ** power - 1) / alpha_tilde)
            if gdown[j]:
                residual = residual - w * (gdown[j] * (q ** -power - 1) / alpha_tilde)
        residuals.append(residual)
    return residuals


def _kernel_report(n, beta, deg, P):
    return _run("kernel", _plan("", P.to_json_obj(), kernel_identity_check(n, beta, deg, P)))


class TestKernelIdentity:
    def test_beta_one(self):
        report = _kernel_report(2, 1, 4, POINT_KER1)
        assert report.passed
        assert [c.case_id for c in report.cases] == [
            f"n2-beta1-y{e:02d}" for e in range(5)
        ]

    def test_beta_two(self):
        assert _kernel_report(2, 2, 4, POINT_KER2).passed

    @pytest.mark.parametrize(
        "cp",
        [pytest.param(cp, id=f"p{i}") for i, cp in enumerate(default_config().points("kernel"), 1)],
    )
    def test_rank_three_at_the_shipped_points(self, cp):
        # the constant's factor st^(n - 2) is 1 at the suite's rank 2, so
        # only a higher rank tells alpha st^(n - 2) from alpha / st^(n - 2)
        report = _kernel_report(3, cp.beta, 6, cp.point)
        assert [c.verdict for c in report.cases] == ["pass"] * 7

    def test_requires_matching_t(self):
        with pytest.raises(ParameterDegeneracy):
            kernel_identity_check(2, 1, 4, POINT_K1)

    @pytest.mark.parametrize("beta, P", [(1, POINT_KER1), (2, POINT_KER2)])
    def test_residuals_match_reference_with_a_planted_error(self, beta, P, monkeypatch):
        # koorn_apply off by 10^-9 m_(1) makes the identity fail; each
        # y-degree must report the mismatch the full-term residual gives at
        # its lex-leading monomial
        exact = koornwinder.koorn_apply
        planted = orbit_sum((1,), 2, coeff=Fraction(1, 10 ** 9))
        monkeypatch.setattr(
            koornwinder, "koorn_apply", lambda f, P, n: exact(f, P, n) + planted
        )
        reference = _kernel_residuals_reference(2, beta, 6, P)
        got = [check() for *_, check in kernel_identity_check(2, beta, 6, P)]
        want = []
        for e, residual in enumerate(reference):
            if residual.is_zero():
                want.append(None)
                continue
            exps, value = residual.leading()
            want.append({
                "coefficient": f"y^{2 * beta + e} x^{list(exps)}",
                "expected": "0/1",
                "got": format_rational(value),
            })
        assert any(want)
        assert got == want


def _row_sum_reference(n, terms, scale=1):
    """row_sum as it was before it summed in integers: one Fraction product
    and one Fraction sum per term.  It always started from the zero of
    scale 1; the scale is a parameter here so scale-2 operands compare."""
    total = OrbitPoly.zero(n, scale)
    for g, w in terms:
        if w:
            total = total + g * w
    return total


_BIG = st.builds(Fraction, st.integers(-(10 ** 20), 10 ** 20), st.integers(1, 10 ** 30))
_WEIGHTS = st.one_of(
    st.just(0), st.just(Fraction(0)), st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), _BIG,
)


@st.composite
def _row_terms(draw):
    """(n, scale, (operand, weight) pairs): orbit forms with coefficients
    and weights with denominators up to 10^30, zero weights, and now and
    then an operand repeated with the opposite weight, so whole terms
    cancel."""
    n, scale = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2)))
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda e: tuple(sorted(e, reverse=True))
    )
    coeffs = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), _BIG)
    polys = st.dictionaries(weights, coeffs, max_size=6).map(lambda t: OrbitPoly(n, t, scale))
    terms = draw(st.lists(st.tuples(polys, _WEIGHTS), max_size=6))
    if terms and draw(st.booleans()):
        p, w = terms[0]
        terms.append((p, -w))
    return n, scale, terms


class TestRowSum:
    """row_sum forms one integer linear combination of orbit forms; it must
    equal the Fraction sum term for term, on the operands' lattice scale."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_row_terms())
    def test_matches_the_fraction_sum(self, drawn):
        # a sum with no nonzero weight is the zero of scale 1, as before
        n, scale, terms = drawn
        got = row_sum(n, iter(terms))
        assert got == _row_sum_reference(n, terms, scale if any(w for _, w in terms) else 1)
        assert all(type(c) is Fraction and c for c in got.terms.values())

    def test_mismatched_operands_raise(self):
        one = orbit_sum((1,), 2, coeff=Fraction(1, 3))
        for other in (orbit_sum((1,), 1), orbit_sum((1,), 2, 2)):
            with pytest.raises(DimensionMismatch):
                row_sum(2, [(one, 1), (other, 2)])
            with pytest.raises(DimensionMismatch):
                _row_sum_reference(2, [(one, 1), (other, 2)])
        assert row_sum(2, [(one, 1), (orbit_sum((1,), 1), 0)]) == one
        # a full-term polynomial is no orbit form, even an invariant one
        with pytest.raises(TypeError, match="adds orbit forms"):
            row_sum(2, [(one, 1), (monomial_symmetric((1,), 2), 2)])
        with pytest.raises(TypeError):
            _row_sum_reference(2, [(one, 1), (monomial_symmetric((1,), 2), 2)])

    @pytest.mark.parametrize("beta, P", [(1, POINT_KER1), (2, POINT_KER2)])
    def test_kernel_residuals_equal_the_reference(self, beta, P, monkeypatch):
        # each y-degree's residual, exact and with koorn_apply off by
        # 10^-9 x_1, is the per-term reference's polynomial
        exact, summed = koornwinder.koorn_apply, koornwinder.row_sum
        residuals = []

        def recorded(n, terms):
            residuals.append(summed(n, terms))
            return residuals[-1]

        monkeypatch.setattr(koornwinder, "row_sum", recorded)
        for planted in (OrbitPoly.zero(2), orbit_sum((1,), 2, coeff=Fraction(1, 10 ** 9))):
            monkeypatch.setattr(
                koornwinder, "koorn_apply", lambda f, P, n: exact(f, P, n) + planted
            )
            residuals.clear()
            for *_, check in kernel_identity_check(2, beta, 6, P):
                check()
            reference = _kernel_residuals_reference(2, beta, 6, P)
            assert residuals == [OrbitPoly.from_poly(r) for r in reference]
            assert any(not r.is_zero() for r in residuals) == (not planted.is_zero())


_SMALL = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
_SQRT_Q = _SMALL.filter(lambda x: abs(x) != 1)


@st.composite
def _row_points(draw):
    """A point whose coordinates are a small rational times a power of
    sqrt(q), so the rescaled families' lower ladders and the primed
    family's ratio factor s = q vanish on a fair share of rows."""
    sq = draw(_SQRT_Q)

    def coordinate():
        return draw(_SMALL) * sq ** draw(st.integers(-3, 3))

    return ParamPoint(
        sqrt_q=sq, sqrt_t=coordinate(), a=coordinate(), b=coordinate(), c=coordinate(),
        d=coordinate(),
    )


def _raised(fn, *args):
    """The value, or the class and message of the QbcError raised instead."""
    try:
        return fn(*args)
    except QbcError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_row_points(), st.integers(1, 5), st.integers(0, 4))
def test_row_general_matches_the_layered_row(P, n, r):
    # one weight vector from the families built once per (P, n) and walked
    # at shift -r, against the row layered over the g_row_sym rows, each
    # built at its own spectral value
    assert _raised(g_row_general, r, P, n) == _raised(per_term.g_row_general, r, P, n)
