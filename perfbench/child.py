"""One verification run in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job names a generated configuration, the suite call and where to write
the result.  ``qbc`` must be importable (the parent puts the checkout's
``src`` on PYTHONPATH).  The oracle operators are process-wide caches, so a
fresh process per run is what makes every run start as a user's
``qbc verify`` does.

The result records ``ready``, the CLOCK_MONOTONIC reading once ``qbc`` is
imported and the configuration loaded; the parent subtracts its own
reading taken just before the spawn, so set-up covers interpreter start.
Just before and just after the verification call the child times a fixed
reference computation, which tells the parent how fast the machine ran
around the call.
"""

import hashlib
import json
import os
import sys
import time
from fractions import Fraction


def reference_times():
    """Wall and CPU seconds of a fixed computation, best of three.

    The computation squares a sparse two-variable Laurent polynomial with
    rational coefficients held in a dict keyed by exponent tuples, the kind
    of work qbc does, without calling qbc: its time moves only with the
    machine's speed, and it slows under a busy neighbour about as much as
    the verification calls do."""
    poly = {
        (i, j): Fraction(3 ** abs(i + j) + 1, 2 ** abs(i + 2 * j) + 5)
        for i in range(-6, 7)
        for j in range(-3, 4)
    }
    best_wall = best_cpu = float("inf")
    for _ in range(3):
        wall, cpu = time.perf_counter(), time.process_time()
        square = {}
        for (a1, a2), ca in poly.items():
            for (b1, b2), cb in poly.items():
                key = (a1 + b1, a2 + b2)
                square[key] = square.get(key, 0) + ca * cb
        best_wall = min(best_wall, time.perf_counter() - wall)
        best_cpu = min(best_cpu, time.process_time() - cpu)
    return best_wall, best_cpu


def verify(cfg, job) -> dict:
    from qbc.suites import run_suite

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install_qbc_layers(tracer)
    narrowed = {
        key: None if job[key] is None else tuple(job[key]) for key in ("ranks", "rows")
    }
    before = reference_times()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        report = run_suite(job["suite"], cfg, **narrowed)
        report.to_json()
    except Exception as exc:  # the parent counts this run's cases as failed
        return {"error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    after = reference_times()
    layers = spans.layer_metrics(tracer) if tracer is not None else None
    body = report.to_json(with_timing=False)
    return {
        "wall_s": wall,
        "call_cpu_s": cpu,
        "reference_wall_s": (before[0] + after[0]) / 2,
        "reference_cpu_s": (before[1] + after[1]) / 2,
        "digest": hashlib.sha256(body.encode()).hexdigest(),
        "cases": len(report.cases),
        "not_pass": sorted(c.case_id for c in report.cases if c.verdict != "pass"),
        "layers": layers,
    }


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from qbc.koornwinder import CACHE_ENV
    from qbc.suites import RunConfig

    with open(job["config"]) as fh:
        cfg = RunConfig.from_json_obj(json.load(fh))
    os.environ[CACHE_ENV] = cfg.cache_dir
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not job["setup_only"]:
        result.update(verify(cfg, job))
    tmp = job["out"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
