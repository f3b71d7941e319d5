"""Record the benchmark's baseline for this checkout into baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/record_baseline.py [--seed N] [--seconds S]

Seed and seconds default to 0 and BENCHMARK.json's run_seconds.  Runs
every workload of run.py once untraced and once traced, then times
the koornwinder oracle once at the (rank, row) scaling points (2, 6),
(3, 4) and (4, 1).  Only the workloads listed in BENCHMARK.json are gated;
the others and the scaling points are informational.  Takes about ten
minutes on a 2-core machine.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

SCALING_POINTS = ((2, 6), (3, 4), (4, 1))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stdout}\n{done.stderr}")
    return {"notes": lines[:-1], "result": json.loads(lines[-1])}


def scaling(seed: int) -> list:
    out = []
    tmp = run.SCRATCH / f"scaling-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        for rank, row in SCALING_POINTS:
            name = f"oracle_n{rank}_r{row}"
            (tmp / name).mkdir()
            bench = run.Bench(
                name, run.oracle_case(rank, row), seed, tmp / name, run.monotonic() + 3600
            )
            result = bench.verify_once(bench.fresh_cache(), "scaling point")
            if bench.problems:
                raise SystemExit(f"scaling point ({rank}, {row}): {bench.problems}")
            out.append({
                "rank": rank, "row": row, "point": bench.cfg["points"]["koornwinder"][0],
                "wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
            })
            print(f"scaling ({rank}, {row}): {result['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    record = {
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": {
            "cpu": cpu_model(), "arch": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system(),
        },
        "seed": args.seed,
        "run_seconds": seconds,
        "workloads": {},
    }
    gated = {w["name"] for w in spec["workloads"]}
    for name in run.WORKLOADS:
        record["workloads"][name] = {
            "in_benchmark_json": name in gated,
            "untraced": bench_once(name, args.seed, seconds, 0),
            "traced": bench_once(name, args.seed, seconds, 1),
        }
        print(f"{name}: done", flush=True)
    record["oracle_scaling"] = {
        "note": "one fresh-process koornwinder case per point on an empty cache; "
                "informational, outside the gate",
        "points": scaling(args.seed),
    }
    (run.HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
