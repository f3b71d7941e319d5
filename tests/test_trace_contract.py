"""The benchmark's trace contract: layers it reports.

perfbench wraps ``algebra.exact_div`` at its module global and counts the
calls and the dividend terms, and ``LaurentPoly.__mul__``, which forms the
cleared operator's products, on the class.  Those counts compare two commits only while
one operator application still divides once by its absorbed pole, through
that global, and nowhere else: the cleared operator reads the rest of its
image off the Weyl character formula.  The dividing reference the tests
keep (``dividing_operator``) divides once more per factor of its cleared
denominator, through the same global.  perfbench also wraps
``qseries.power_of_base``, each suite function, whose span must enclose
the suite's cases, the series ``phi_series``, ``fourfold_poly`` and
``even_sum_forms`` at the ``suites`` and ``macdonald_bcd`` globals that
call them, and the rank-two series: ``b2._series_terms`` at its module global and
``b2_character_series`` at the ``suites`` global.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qbc import algebra
from qbc.algebra import LaurentPoly
from qbc.koornwinder import CACHE_ENV, _koorn_generator, _koorn_operator
from qbc.suites import default_config
from conftest import monomial_symmetric, orbit_sum, poly_key
from dividing_operator import DividingShiftOperator
from test_algebra import _mono, _unit_normalize

ROOT = Path(__file__).resolve().parents[1]


def _unabsorbed_lcd_factors(P, n):
    """The factor count of the least common denominator of the 2n terms of
    the rank-n operator, none absorbed: each denominator factor, up to a
    monomial unit, to its largest multiplicity in one term."""
    one = LaurentPoly.monomial((0,) * n)
    lcd = Counter()
    for i in range(n):
        for s in (1, -1):
            denom = [one - _mono(n, [(i, 2 * s)], 1), one - _mono(n, [(i, 2 * s)], P.q)]
            for j in set(range(n)) - {i}:
                denom += [one - _mono(n, [(i, s), (j, e)], 1) for e in (1, -1)]
            lcd |= Counter(poly_key(_unit_normalize(f)[0]) for f in denom)
    return sum(lcd.values())


@pytest.mark.parametrize("n, orbit_factors", [(3, 15), (4, 24)])
def test_one_apply_divides_once_per_lcd_factor(n, orbit_factors, monkeypatch):
    # the 2n terms' denominators take orbit_factors factors, none absorbed;
    # the pole 1 - q x_1^2 divides T f - f first, and its 2n images stay out
    # of the dividing reference's LCD, which keeps n factors 1 - x_i^2 and
    # n(n - 1) pair factors; the shipped operator divides by the pole alone
    P = default_config().points("koornwinder")[0].point
    op = DividingShiftOperator(P, n, *_koorn_generator(P, n))
    assert _unabsorbed_lcd_factors(P, n) == orbit_factors
    factors = orbit_factors - 2 * n
    assert sum(mult for _, mult in op._lcd.values()) == factors
    divisors = []
    real_div = algebra.exact_div

    def spy(num, den):
        divisors.append(den)
        return real_div(num, den)

    monkeypatch.setattr(algebra, "exact_div", spy)
    op.apply(monomial_symmetric((1,), n))
    assert len(divisors) == 1 + factors
    assert divisors[0] is op._pole
    # the chain divides by the n one-variable binomials 1 - x_i^2 right
    # after the pole, and by the n(n - 1) pair factors after them
    moved = [{i for e in g.terms for i, x in enumerate(e) if x} for g in divisors[1:]]
    assert sorted(len(m) for m in moved[:n]) == [1] * n
    assert set().union(*moved[:n]) == set(range(n))
    assert all(len(m) == 2 for m in moved[n:])
    divisors.clear()
    shipped = _koorn_operator(P, n)
    shipped.apply(orbit_sum((1,), n))
    assert len(divisors) == 1 and divisors[0] is shipped._pole


def test_perfbench_traces_exact_div_on_oracle_rank3():
    # one rank-3, row-2 solve applies the operator to the three non-constant
    # orbit sums of its basis: one pole division each, whose dividends,
    # T f - f of m_(1), m_(1,1) and m_(2), hold 2 + 8 + 2 = 12 terms.  The
    # operator's products are LaurentPoly products: the build multiplies in
    # the generator's 8 numerator binomials and each application forms one
    # H = x^(rho - sum K) N g, 8 + 3 = 11 in all; suite_koornwinder scales
    # the oracle, an orbit form, by the row head without a LaurentPoly
    # product
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "oracle_rank3",
         "--seed", "0", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["algebra.exact_div.calls"] == 3
    assert metrics["algebra.exact_div.terms_in"] == 12
    assert metrics["algebra.exact_div.s"] > 0
    assert metrics["algebra.laurent_mul.calls"] == 11


BIBASIC_TRACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from qbc import suites
tracer = spans.Tracer()
spans.install_qbc_layers(tracer)
report = suites.run_suite("bibasic", suites.default_config())
metrics = spans.layer_metrics(tracer)
print(json.dumps({
    "passed": report.passed,
    "case_seconds": sum(c.seconds for c in report.cases),
    "power_of_base_calls": metrics["qseries.power_of_base.calls"],
    "suite_total_s": metrics["suites.bibasic.total_s"],
}))
"""


def test_traced_bibasic_reaches_the_cutoff_search_and_encloses_its_cases(tmp_path):
    # phi_sum finds its cutoff through the module global perfbench wraps,
    # and the suite span, wrapped around the suite function, covers every
    # second its cases report
    proc = subprocess.run(
        [sys.executable, "-c", BIBASIC_TRACE, str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), CACHE_ENV: str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["passed"] is True
    assert result["power_of_base_calls"] > 0
    assert result["suite_total_s"] >= result["case_seconds"] > 0


SERIES_TRACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from qbc import suites
tracer = spans.Tracer()
spans.install_qbc_layers(tracer)
passed = [suites.run_suite(name, suites.default_config()).passed
          for name in sys.argv[2].split(",")]
metrics = spans.layer_metrics(tracer)
print(json.dumps({
    "passed": passed,
    "calls": {name: metrics.get(name + ".calls", 0) for name in sys.argv[3:]},
}))
"""

SERIES_LAYERS = (
    "askey_wilson.phi_series", "askey_wilson.fourfold_poly", "askey_wilson.even_sum_forms",
)


def _traced_calls(tmp_path, suite_names, layers):
    proc = subprocess.run(
        [sys.executable, "-c", SERIES_TRACE, str(ROOT / "perfbench"),
         ",".join(suite_names), *layers],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), CACHE_ENV: str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["passed"] == [True] * len(suite_names)
    return result["calls"]


def test_traced_series_suites_reach_the_walked_series(tmp_path):
    # the suites and macdonald_bcd look these up as module globals, which is
    # where perfbench wraps them
    calls = _traced_calls(tmp_path, ("askey-wilson", "bibasic"), SERIES_LAYERS)
    assert all(calls[name] > 0 for name in SERIES_LAYERS), calls


def test_traced_b2_suite_reaches_the_rank_two_series(tmp_path):
    # f_b2_poly and b2_character_series call _series_terms through the b2
    # module global; the suite calls b2_character_series through its own
    layers = ("b2.series", "b2.character_series")
    calls = _traced_calls(tmp_path, ("b2",), layers)
    assert all(calls[name] > 0 for name in layers), calls
