"""Acceptance gate: ten criteria, one test and one reported line each.

Every comparison is exact (Fraction arithmetic, == on polynomials); the wall
clock bounds are generous and only guard against complexity regressions.
Criterion 8 sweeps the rank-two conjecture up to the shipped total weight
bound of 3; `qbc verify b2 --max-weight 13` runs the extended sweep.
A last test pins the timing-free report of every suite at the default
configuration, so a refactor that changes any verdict or case shows, and
one more pins the report of the 366 legacy cases alone, so coverage can
grow without hiding a change to an old verdict.
"""

import hashlib
import itertools
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qbc.algebra import (
    LaurentPoly,
    ParamPoint,
    dominated_partitions,
    exact_div,
    weyl_invariant,
)
from qbc.askey_wilson import (
    aw_apply,
    aw_eigenvalue,
    aw_poly,
    fourfold_poly,
    phi_series,
    psi_series,
)
from qbc.koornwinder import CACHE_ENV
from qbc.qseries import qpoch, qpoch_multi
from qbc.reports import VerificationReport
from qbc.suites import (
    default_config,
    run_suite,
    suite_b2,
    suite_bibasic,
    suite_kernel,
    suite_koornwinder,
    suite_lassalle,
)
from conftest import monomial_symmetric
from test_algebra import qshift

CFG = default_config()
# sha256 of run_suite("all", CFG).to_json(with_timing=False): 366 passing cases
ALL_DIGEST = "6b7ebdcef175f4677fd3ee0e192a48b85406d93d7424bfa3ccb1586728377d14"
# the ids of those 366 cases, frozen, and the sha256 of their report alone;
# both stay fixed when later cases move ALL_DIGEST
LEGACY_IDS = Path(__file__).resolve().parent / "data" / "legacy_case_ids.txt"
LEGACY_DIGEST = "6b7ebdcef175f4677fd3ee0e192a48b85406d93d7424bfa3ccb1586728377d14"
AW_POINTS = [cp.point for cp in CFG.points("askey-wilson")]
# criteria 1 and 3 check the one-variable layer through this degree
AW_MAX_DEGREE = 24


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache(tmp_path_factory):
    saved = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("oracle-cache"))
    yield
    if saved is None:
        os.environ.pop(CACHE_ENV, None)
    else:
        os.environ[CACHE_ENV] = saved


def _timed(limit):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"exceeded {limit}s budget: {elapsed:.1f}s"

    return check


def test_criterion_01_fourfold_matches_terminating_sum():
    done = _timed(10)
    for P in AW_POINTS:
        for lam in range(AW_MAX_DEGREE + 1):
            assert fourfold_poly(lam, P) == aw_poly(lam, P)
    done()


def test_criterion_02_difference_equation():
    done = _timed(10)
    for P in AW_POINTS:
        for n in range(7):
            poly = aw_poly(n, P)
            assert aw_apply(poly, P) == aw_eigenvalue(n, P) * poly
    done()


def test_criterion_03_series_recombination_through_x12():
    done = _timed(10)
    for P in AW_POINTS:
        # through x^12, and on to the fourfold sweep's degree
        psi = psi_series(P.s, P, AW_MAX_DEGREE)
        phi = phi_series(P.s, P, AW_MAX_DEGREE)
        assert all(psi[j] == phi[j] for j in range(AW_MAX_DEGREE + 1))
    done()


def test_criterion_04_terminating_rescale():
    done = _timed(5)
    for P in AW_POINTS:
        a, q = P.a, P.q
        for m in range(1, 5):
            ser = psi_series(q**-m, P, 2 * m + 2)
            assert all(ser[j] == 0 for j in range(2 * m + 1, 2 * m + 3))
            head = qpoch(P.abcd() * q ** (m - 1), q, m) / qpoch_multi(
                (a * P.b, a * P.c, a * P.d), q, m
            )
            rescaled = LaurentPoly(
                1,
                {(j - m,): a**m * head * ser[j] for j in range(2 * m + 1)},
            )
            assert rescaled == aw_poly(m, P) * (
                a**m / qpoch_multi((a * P.b, a * P.c, a * P.d), q, m)
            )
    done()


def test_criterion_05_bibasic_suite():
    done = _timed(20)
    report = suite_bibasic(CFG)
    failures = [c.case_id for c in report.cases if c.verdict == "fail"]
    assert report.passed and report.cases, failures
    done()


def test_criterion_06_koornwinder_rows_match_oracle():
    done = _timed(300)
    report = suite_koornwinder(CFG)
    failures = [c.case_id for c in report.cases if c.verdict == "fail"]
    assert report.passed and report.cases, failures
    done()


def test_criterion_07_classical_family_rows():
    done = _timed(300)
    report = suite_lassalle(CFG)
    failures = [c.case_id for c in report.cases if c.verdict == "fail"]
    assert report.passed and report.cases, failures
    done()


def test_criterion_08_rank_two_conjecture_sweep():
    done = _timed(600)
    report = suite_b2(CFG)
    failures = [c.case_id for c in report.cases if c.verdict == "fail"]
    assert report.passed and report.cases, failures
    done()


def test_criterion_09_kernel_identity():
    done = _timed(120)
    report = suite_kernel(CFG)
    failures = [c.case_id for c in report.cases if c.verdict == "fail"]
    assert report.passed and report.cases, failures
    done()


def _random_poly(rng, num_vars, terms=4, span=3):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in range(num_vars))
        out[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    poly = LaurentPoly(num_vars, out)
    return poly


def _random_int_poly(rng, num_vars, terms=4, span=3):
    """A nonzero polynomial with int coefficients, as the operators divide
    them; the LaurentPoly constructor would coerce them to Fraction."""
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in range(num_vars))
        out[exps] = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    return LaurentPoly._raw(num_vars, out)


def _random_partition(rng, max_part=4, max_len=3):
    length = rng.randint(0, max_len)
    return tuple(sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True))


def _padded(mu, n=3):
    return tuple(mu) + (0,) * (n - len(mu))


def _dominance_leq(mu, lam, n=3):
    """Partial-sum dominance of two partitions of at most n parts."""
    sums = (itertools.accumulate(_padded(p, n)) for p in (mu, lam))
    return all(a <= b for a, b in zip(*sums))


def test_criterion_10_property_suites():
    rng = random.Random(190)

    # Pochhammer recurrence (a;q)_(n+1) = (a;q)_n (1 - a q^n)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        n = rng.randint(0, 10)
        assert qpoch(a, q, n + 1) == qpoch(a, q, n) * (1 - a * q**n)

    # q-shift inversion round-trip, integer and double steps
    P = ParamPoint(sqrt_q=Fraction(1, 2))
    for _ in range(60):
        nv = rng.randint(1, 3)
        f = _random_poly(rng, nv)
        i = rng.randrange(nv)
        k = rng.choice((1, 2))
        assert qshift(qshift(f, i, k, P), i, -k, P) == f

    # the dominated down-sets order partitions reflexively,
    # antisymmetrically and transitively, and each matches the down-set
    # enumerated by partial sums
    def leq(mu, lam):
        return _padded(mu) in dominated_partitions(lam, 3)

    for _ in range(120):
        mu, nu, lam = (_random_partition(rng) for _ in range(3))
        assert leq(mu, mu)
        if leq(mu, nu) and leq(nu, mu):
            assert mu == nu
        if leq(mu, nu) and leq(nu, lam):
            assert leq(mu, lam)
    for _ in range(30):
        lam = _random_partition(rng)
        listed = set(dominated_partitions(lam, 3))
        top = lam[0] if len(lam) else 0
        everything = set()
        for length in range(4):
            for parts in itertools.product(range(1, top + 1), repeat=length):
                cand = tuple(sorted(parts, reverse=True))
                if _dominance_leq(cand, lam):
                    everything.add(_padded(cand))
        if _dominance_leq((), lam):
            everything.add(_padded(()))
        assert listed == everything

    # exact division of an integer polynomial by a primitive integer
    # binomial inverts multiplication; a divisor with more or fewer terms is
    # refused, and its two lex-largest terms, made primitive, divide; the
    # same dividend over Fraction is refused
    for _ in range(60):
        nv = rng.randint(1, 2)
        f = _random_int_poly(rng, nv)
        g = _random_int_poly(rng, nv)
        if len(g.terms) != 2:
            with pytest.raises(ValueError, match="binomials only"):
                exact_div(f * g, g)
        top = sorted(g.terms.items())[-2:]
        content = math.gcd(*(c for _, c in top))
        g = LaurentPoly._raw(nv, {e: c // content for e, c in top})
        if len(g.terms) == 2:
            assert exact_div(f * g, g) == f
            with pytest.raises(ValueError, match="primitive int binomials only"):
                exact_div(LaurentPoly(nv, (f * g).terms), g)

    # palindromicity of the terminating one-variable polynomials
    for _ in range(8):
        P4 = AW_POINTS[rng.randrange(len(AW_POINTS))]
        n = rng.randint(0, 5)
        poly = aw_poly(n, P4)
        assert weyl_invariant(poly)

    # orbit sums and their products are hyperoctahedrally invariant
    for _ in range(40):
        nv = rng.randint(2, 3)
        first = monomial_symmetric(
            tuple(sorted((rng.randint(0, 3) for _ in range(nv)), reverse=True)), nv
        )
        second = monomial_symmetric(
            tuple(sorted((rng.randint(0, 2) for _ in range(nv)), reverse=True)), nv
        )
        assert weyl_invariant(first)
        assert weyl_invariant(first * second)


def test_all_suites_timing_free_body_is_unchanged():
    # runs on the oracle cache criteria 6-7 filled; any change to a verdict,
    # case id, anchor, point or mismatch shows up as a new digest
    report = run_suite("all", CFG)
    body = report.to_json(with_timing=False)
    assert report.counts() == {"pass": 366, "fail": 0, "skipped": 0}
    assert hashlib.sha256(body.encode()).hexdigest() == ALL_DIGEST


def test_legacy_cases_keep_their_digest():
    # every legacy case still runs, and the report of those cases alone,
    # rebuilt as verify all reports them, is byte for byte the legacy one
    ids = set(LEGACY_IDS.read_text().split())
    assert len(ids) == 366
    legacy = VerificationReport("all")
    for case in run_suite("all", CFG).cases:
        if case.case_id in ids:
            legacy.add(case)
    assert sorted(c.case_id for c in legacy.cases) == sorted(ids)
    body = legacy.to_json(with_timing=False)
    assert hashlib.sha256(body.encode()).hexdigest() == LEGACY_DIGEST
