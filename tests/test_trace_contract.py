"""The benchmark's trace contract: the division layer it reports.

perfbench wraps ``algebra.exact_div`` at its module global and counts the
calls and the dividend terms.  Those counts compare two commits only while
one operator application still divides once per factor of its cleared
denominator, through that global.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qbc import algebra
from qbc.algebra import monomial_symmetric
from qbc.koornwinder import _koorn_operator
from qbc.suites import default_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n, factors", [(3, 15), (4, 24)])
def test_one_apply_divides_once_per_lcd_factor(n, factors, monkeypatch):
    P = default_config().points("koornwinder")[0].point
    op = _koorn_operator(P, n)
    assert sum(mult for _, mult in op._lcd.values()) == factors
    divisors = []
    real_div = algebra.exact_div

    def spy(num, den):
        divisors.append(den)
        return real_div(num, den)

    monkeypatch.setattr(algebra, "exact_div", spy)
    op.apply(monomial_symmetric((1,), n))
    assert len(divisors) == factors


def test_perfbench_traces_exact_div_on_oracle_rank3():
    # one rank-3, row-2 solve applies the operator to the three non-constant
    # orbit sums of its basis: 3 x 15 divisions
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "oracle_rank3",
         "--seed", "0", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["algebra.exact_div.calls"] == 45
    assert metrics["algebra.exact_div.terms_in"] == 15_554
    assert metrics["algebra.exact_div.s"] > 0
