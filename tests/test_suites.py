"""The case pipeline: how suites run their case entries and time them."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

import qbc.koornwinder
from qbc import suites
from qbc.algebra import SKIPPED
from qbc.reports import VerificationReport


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
    # clock here, so everything they cost must show in the y00 case
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
    assert seconds.pop("kernel-p1-n2-beta1-y00") == 107.0
    assert len(seconds) == 6 and set(seconds.values()) == {0.0}
    assert "seconds" not in report.to_json_obj(with_timing=False)["cases"][0]


def test_lassalle_suite_builds_each_g_list_once_and_takes_one_oracle_per_row(
    tmp_path, monkeypatch
):
    # 2 points x 2 ranks x rows 0..4: 20 distinct (r, n, P), though the two
    # displays of 3 families read them 120 times; each of the 60 rows
    # compares both displays with one oracle call
    monkeypatch.setenv(qbc.koornwinder.CACHE_ENV, str(tmp_path))
    calls = []

    def counted(*args):
        calls.append(args)
        return qbc.koornwinder.koorn_oracle(*args)

    monkeypatch.setattr(suites, "koorn_oracle", counted)
    qbc.koornwinder.g_series_list.cache_clear()
    report = suites.run_suite("lassalle", suites.default_config())
    assert report.passed and len(report.cases) == 120
    assert qbc.koornwinder.g_series_list.cache_info().misses == 20
    assert len(calls) == 60
    assert isinstance(qbc.koornwinder.g_series_list(1, 1, calls[0][1]), tuple)

