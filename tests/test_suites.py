"""The case pipeline: how suites run their case entries and time them."""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import qbc.koornwinder
from qbc import suites
from conftest import orbit_sum
from qbc.reports import SKIPPED


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=fake.perf_counter))
    return fake


def test_packaged_configuration_is_read_once(monkeypatch):
    # default_config and the check of a configuration's group names share
    # one read of the packaged file
    reads = []
    files = suites.resources.files
    monkeypatch.setattr(suites.resources, "files", lambda pkg: reads.append(pkg) or files(pkg))
    suites._packaged.cache_clear()
    b2 = {"sqrt_q": "1/2", "sqrt_t": "1/3", "sqrt_T": "1/5"}
    for _ in range(3):
        suites.RunConfig.from_json_obj({"schema": 1, "points": {"b2": [b2]}})
        suites.default_config()
    assert len(reads) == 1
    known = set(suites._packaged()["points"])
    assert known == set(suites.default_config().groups)
    with pytest.raises(ValueError, match="unknown point group 'b3'"):
        suites.RunConfig.from_json_obj({"schema": 1, "points": {"b3": [b2]}})


def test_plan_verdicts_ids_and_setup_time(clock):
    def spend(seconds, outcome):
        clock.now += seconds
        return outcome

    def build():
        clock.now += 5.0
        return [
            ("a", "first", {"k": 0}, lambda: spend(1.0, None)),
            ("b", "second", {"k": 1}, lambda: spend(2.0, {"got": "1/1"})),
            ("c", "third", {"k": 2}, lambda: spend(0.5, SKIPPED)),
        ]

    def entries():
        yield from suites._plan("p1-", {"sqrt_q": "1/2"}, build())

    report = suites._run("plan", entries())
    assert report.suite == "plan"
    assert [c.case_id for c in report.cases] == ["p1-a", "p1-b", "p1-c"]
    assert [c.verdict for c in report.cases] == ["pass", "fail", "skipped"]
    assert [c.mismatch for c in report.cases] == [None, {"got": "1/1"}, None]
    assert [c.seconds for c in report.cases] == [6.0, 2.0, 0.5]


def test_work_between_checks_lands_in_the_next_case(clock):
    # 4 s of generator work precede each check, which itself takes 1 + k s;
    # the clock starts with the suite, so the cases cover all of its time
    def spend(seconds):
        clock.now += seconds

    def entries():
        for k in range(3):
            clock.now += 4.0
            yield f"c{k}", "anchor", None, {"k": k}, lambda: spend(1.0 + k)

    clock.now = 10.0
    report = suites._run("gen", entries())
    assert [c.seconds for c in report.cases] == [5.0, 6.0, 7.0]
    assert sum(c.seconds for c in report.cases) == clock.now - 10.0


def test_kernel_setup_lands_in_the_first_case(clock, monkeypatch):
    # the shared set-up of a kernel plan is one g_series_list call and one
    # operator application per series coefficient; only those advance the
    # clock here, so everything they cost must show in the y00 case.  On
    # empty G tables the rank-2 call grows orders 0..6, first growing the
    # rank-1 table to order 6, and each entry reads the rank-1 table
    # through g_series_list: 9 calls in all
    monkeypatch.setattr(qbc.koornwinder, "_G_TABLES", {})

    def charged(fn, seconds):
        def wrapped(*args):
            clock.now += seconds
            return fn(*args)

        return wrapped

    monkeypatch.setattr(
        qbc.koornwinder, "g_series_list", charged(qbc.koornwinder.g_series_list, 100.0)
    )
    monkeypatch.setattr(
        qbc.koornwinder, "koorn_apply", charged(qbc.koornwinder.koorn_apply, 1.0)
    )
    cfg = suites.default_config()
    one_point = replace(cfg, groups={**cfg.groups, "kernel": cfg.points("kernel")[:1]})
    report = suites.run_suite("kernel", one_point)
    assert report.passed
    seconds = {c.case_id: c.seconds for c in report.cases}
    assert seconds.pop("kernel-p1-n2-beta1-y00") == 9 * 100.0 + 7 * 1.0
    assert len(seconds) == 6 and set(seconds.values()) == {0.0}
    assert "seconds" not in report.to_json_obj(with_timing=False)["cases"][0]


def test_lassalle_suite_builds_each_g_list_once_and_takes_one_oracle_per_row(
    tmp_path, monkeypatch, g_builds
):
    # 2 points x 2 ranks x orders 0..4: 20 distinct G entries (j, n, P),
    # though the two displays of 3 families read them 120 times, in lists
    # of every length up to 5; each entry is built once, on empty tables,
    # and each of the 60 rows compares both displays with one oracle call
    monkeypatch.setenv(qbc.koornwinder.CACHE_ENV, str(tmp_path))
    calls = []

    def counted(*args):
        calls.append(args)
        return qbc.koornwinder.koorn_oracle(*args)

    monkeypatch.setattr(suites, "koorn_oracle", counted)
    report = suites.run_suite("lassalle", suites.default_config())
    assert report.passed and len(report.cases) == 120
    assert len(g_builds) == len(set(g_builds)) == 20
    assert len(calls) == 60
    assert isinstance(qbc.koornwinder.g_series_list(1, 1, calls[0][1]), tuple)


def test_verify_all_computes_each_head_list_once_per_growth(tmp_path, monkeypatch, g_builds):
    # a rank-n table grows the rank below to its own order before its
    # entries read it, so each of the 52 growths of verify all's 76 G
    # entries computes the head list (t;q)_j/(q;q)_j once, and no entry
    # grows the rank below again
    monkeypatch.setenv(qbc.koornwinder.CACHE_ENV, str(tmp_path))
    heads = []
    real = qbc.koornwinder.qbinom_series
    monkeypatch.setattr(qbc.koornwinder, "qbinom_series", lambda *a: heads.append(a) or real(*a))
    report = suites.run_suite("all", suites.default_config())
    assert report.passed
    assert len(g_builds) == len(set(g_builds)) == 76
    assert len(heads) == 52


def test_poly_mismatch_names_the_leading_monomial_of_a_planted_error(tmp_path, monkeypatch):
    # g_row_general + 10^-9 m_(1): the difference leads at x1, where the
    # mismatch reports the scaled oracle's coefficient and the planted one
    monkeypatch.setenv(qbc.koornwinder.CACHE_ENV, str(tmp_path))
    real = suites.g_row_general

    def planted(r, P, n):
        return real(r, P, n) + orbit_sum((1,), n, coeff=Fraction(1, 10**9))

    monkeypatch.setattr(suites, "g_row_general", planted)
    report = suites.run_suite("koornwinder", suites.default_config(), ranks=[2], rows=[2])
    assert [(c.case_id, c.verdict, c.mismatch) for c in report.cases] == [
        (
            "koorn-p1-n2-r02",
            "fail",
            {
                "monomial": [1, 0],
                "expected": "-41447360/2779677",
                "got": "-41447359997220323/2779677000000000",
            },
        ),
        (
            "koorn-p2-n2-r02",
            "fail",
            {
                "monomial": [1, 0],
                "expected": "-11583/2048",
                "got": "-22623046871/4000000000",
            },
        ),
    ]


EPS = Fraction(1, 10**9)


def _one_point_failures(suite, monkeypatch, name, planted):
    """(case id, mismatch) of every failing case of suite at the first point
    of each group, with suites.name replaced by planted(real)."""
    cfg = suites.default_config()
    cfg = replace(cfg, groups={g: pts[:1] for g, pts in cfg.groups.items()})
    monkeypatch.setattr(suites, name, planted(getattr(suites, name)))
    report = suites.run_suite(suite, cfg)
    return [(c.case_id, c.mismatch) for c in report.cases if c.verdict == "fail"]


@pytest.mark.parametrize("name, suffix", [("mac_row", "row"), ("lassalle_form", "positive")])
def test_lassalle_mismatch_names_the_leading_monomial_of_a_planted_error(
    name, suffix, tmp_path, monkeypatch
):
    # either display of row 2 at rank 2 off by EPS m_(1), as an orbit form:
    # each family's case fails at x1 with the values the full-term rows gave
    monkeypatch.setenv(qbc.koornwinder.CACHE_ENV, str(tmp_path))

    def planted(real):
        def display(tag, r, P, n):
            poly = real(tag, r, P, n)
            return poly + orbit_sum((1,), n, coeff=EPS) if (r, n) == (2, 2) else poly

        return display

    b_row = {"expected": "-234175/145089", "got": "-234174999854911/145089000000000"}
    cd_row = {"expected": "0/1", "got": "1/1000000000"}
    assert _one_point_failures("lassalle", monkeypatch, name, planted) == [
        (f"las-{family}-p1-n2-r2-{suffix}", {"monomial": [1, 0], **values})
        for family, values in (("b", b_row), ("c", cd_row), ("d", cd_row))
    ]


def test_kernel_mismatch_names_the_leading_monomial_of_a_planted_error(tmp_path, monkeypatch):
    # koorn_apply off by EPS m_(1), as an orbit form: every y-degree's
    # residual at the first kernel point leads at x1, with the values the
    # full-term residuals gave
    monkeypatch.setenv(qbc.koornwinder.CACHE_ENV, str(tmp_path))
    exact = qbc.koornwinder.koorn_apply
    monkeypatch.setattr(
        qbc.koornwinder, "koorn_apply",
        lambda f, P, n: exact(f, P, n) + orbit_sum((1,), n, coeff=EPS),
    )
    cfg = suites.default_config()
    report = suites.run_suite("kernel", replace(cfg, groups={"kernel": cfg.points("kernel")[:1]}))
    got = ["-1/4000000000", "-1/4000000000", "17/16000000000", "17/16000000000"]
    got += ["-1/4000000000", "-1/4000000000"]
    assert [(c.case_id, c.mismatch) for c in report.cases if c.verdict == "fail"] == [
        (
            f"kernel-p1-n2-beta1-y{e:02d}",
            {"coefficient": f"y^{e + 2} x^[1, 0]", "expected": "0/1", "got": value},
        )
        for e, value in enumerate(got)
    ]


def _plus_eps(real, index, when=lambda N: True):
    """A series builder whose entry at index(N) is off by EPS when when(N)."""

    def planted(*args):
        ser = list(real(*args))
        N = args[-1]
        if when(N):
            ser[index(N)] += EPS
        return tuple(ser)

    return planted


def test_odd_sum_mismatch_names_the_value(monkeypatch):
    def planted(real):
        return lambda l, s, P: real(l, s, P) + (EPS if l == 1 else 0)

    assert _one_point_failures("bibasic", monkeypatch, "odd_sum_closed", planted) == [
        (
            "bib-odd-p1-l1",
            {
                "value": "odd sum, degree 1",
                "expected": "198256000905519/905519000000000",
                "got": "198256/905519",
            },
        ),
    ]


def test_even_sum_mismatch_names_the_power_and_route(monkeypatch):
    def planted(real):
        def forms(s, P, N):
            out = real(s, P, N)
            coupled = list(out.bibasic_coupled)
            coupled[1] += EPS
            return out._replace(bibasic_coupled=tuple(coupled))

        return forms

    assert _one_point_failures("bibasic", monkeypatch, "even_sum_forms", planted) == [
        (
            "bib-even-p1",
            {
                "power": 2,
                "route": "bibasic-coupled",
                "expected": "-175048/628625",
                "got": "-1400383994971/5029000000000",
            },
        ),
    ]


def test_watson_mismatch_names_the_power(monkeypatch):
    # an error of EPS * a is not symmetric under the a/c swap
    def planted(real):
        def closed(s, P, N):
            out = list(real(s, P, N))
            out[1] += P.a * EPS
            return tuple(out)

        return closed

    assert _one_point_failures("bibasic", monkeypatch, "even_sum_closed", planted) == [
        (
            "bib-watson-p1",
            {
                "power": 2,
                "expected": "-1400383984913/5029000000000",
                "got": "-1400383964797/5029000000000",
            },
        ),
    ]


def test_series_recombination_mismatch_names_the_power(monkeypatch):
    # only the series case truncates at the configured degree 12
    def planted(real):
        return _plus_eps(real, lambda N: 1, lambda N: N == 12)

    assert _one_point_failures("askey-wilson", monkeypatch, "psi_series", planted) == [
        (
            "aw-series-p1",
            {
                "power": 1,
                "expected": "198256/905519",
                "got": "198256000905519/905519000000000",
            },
        ),
    ]


def test_tied_collapse_mismatch_names_the_power(monkeypatch):
    def planted(real):
        return _plus_eps(real, lambda N: 1)

    assert _one_point_failures("bibasic", monkeypatch, "simplified_series", planted) == [
        (
            "bib-tied-half-p1",
            {"power": 1, "expected": "-24/209", "got": "-23999999791/209000000000"},
        ),
        (
            "bib-tied-full-p1",
            {"power": 1, "expected": "-1024/26459", "got": "-1023999973541/26459000000000"},
        ),
    ]


def test_rescale_tail_mismatch_expects_zero(monkeypatch):
    # the rescale case m truncates at 2m + 2; its x^(2m+1) must vanish
    def planted(real):
        return _plus_eps(real, lambda N: N - 1, lambda N: N < 12)

    assert _one_point_failures("askey-wilson", monkeypatch, "psi_series", planted) == [
        (f"aw-rescale-p1-m{m}", {"power": 2 * m + 1, "expected": "0/1", "got": "1/1000000000"})
        for m in range(1, 5)
    ]
