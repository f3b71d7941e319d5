"""Benchmark for qbc: ``verify all`` on a warm and a cold oracle cache, and the oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:

- verify_all_warm: ``run_suite("all")`` on a cache one untimed cold run
  filled, the everyday re-check.  The oracle shrinks to cache reads and the
  formula side (q-Pochhammer ladders, series, B2) dominates.
- oracle_rank3: the koornwinder suite narrowed to rank 3, row 2, at one
  point, on an empty cache (``qbc verify koornwinder --n 3 --r 2``).
  Building the cleared operator, exact division and the triangular solve
  are nearly all of the work; the formula side is negligible.
- verify_all_cold: ``run_suite("all")`` on an empty cache, a user's first
  run, where every solve is written to the cache.
- oracle_rank4: the oracle_rank3 call at rank 4, row 1, the scaling
  frontier, where the 24-factor operator and its divisions are the work.

Every timed run is a fresh interpreter, started one at a time, because the
program keeps its oracle operators in process-wide caches and a user's
``qbc verify`` starts cold in that respect.  With ``--trace 0`` a run
times whole verification calls for about ``--seconds`` seconds.  Each
child also times a fixed reference computation (a sparse product of
rational Laurent polynomials that never touches qbc) just before and just
after its call.  The
end-to-end metrics are:

- wall_ref, cpu_ref: a call's wall (CPU) time divided by the reference
  computation's, that is the call's cost in units of the reference on the
  same machine at the same moment; the lower quartile over the run's calls;
- setup_s: the median set-up time over every child the run started;
- peak_rss_mb: the median peak resident memory of the timed calls.

The times are taken relative to the reference because on a shared 2-core
machine the same call runs up to twice as slow while a neighbour is busy,
in spells that last tens of seconds.  Raw call times then spread by 15 to
25% between runs whatever statistic is taken; the ratio to a reference
timed moments before and after in the same process cancels most of the
machine's speed, and its lower quartile over a run spreads by about 5%.  A
call whose reference fell into a spell that missed the call itself reads
too fast, which is why the quartile is taken and not the minimum.  The raw
times are printed on the ``#`` lines.  This only works for calls of a few
seconds: the reference cannot see a spell that starts and ends inside a 10
to 19 s call, so verify_all_cold and oracle_rank4 spread as widely as raw
times do.
BENCHMARK.json therefore lists verify_all_warm and oracle_rank3; the other
two stay runnable, traced and untraced, for the numbers they give.

With ``--trace 1`` a run makes one untraced and two traced calls and
prints the per-layer metrics, after checking that exact counts repeat and
that each layer was reached on the workload that exercises it.

Every call passes the correctness gate: all cases pass, every timing-free
report body of a run has one sha256 (so the warm body equals the cold one
that filled its cache), and at seed 0 that digest is the shipped one.  The
last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when the gate held, 1 when it did
not, and 2, without a result, when the checkout holds no ``qbc`` source.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SCRATCH = ROOT / ".perfbench_tmp"
CACHE_ENV = "QBC_CACHE_DIR"

# sha256 of run_suite("all", default_config()).to_json(with_timing=False)
SEED0_DIGEST = "6b7ebdcef175f4677fd3ee0e192a48b85406d93d7424bfa3ccb1586728377d14"


def oracle_case(rank: int, row: int) -> dict:
    """The koornwinder suite narrowed to one rank and row at one point,
    on an empty cache: the same work as ``qbc verify koornwinder``."""
    return {"suite": "koornwinder", "ranks": [rank], "rows": [row], "cache": "empty"}


WORKLOADS = {
    "verify_all_cold": {"suite": "all", "ranks": None, "rows": None, "cache": "empty"},
    "verify_all_warm": {"suite": "all", "ranks": None, "rows": None, "cache": "filled"},
    "oracle_rank4": oracle_case(4, 1),
    "oracle_rank3": oracle_case(3, 2),
}

SETUP_ONLY_RUNS = 10
TRACED_RUNS = 2
# a run must end within 180 s; children still going at this point are killed
DEADLINE_S = 170.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def expected_cache_entries(spec: dict, cfg: dict) -> int:
    """Oracle solves one call writes to an empty cache.  The full suite
    asks for ranks 1-3 (14 rows) at each koornwinder point and for ranks
    1-2, rows 0-4, of three families at each macdonald point."""
    if spec["ranks"] is not None:
        return 1
    points = cfg["points"]
    return 14 * len(points["koornwinder"]) + 30 * len(points["macdonald"])


def cache_usage(cache_dir: Path):
    files = [p for p in cache_dir.rglob("*.json") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Bench:
    """One benchmark invocation: its scratch directory, its children and
    everything they reported."""

    def __init__(self, name: str, spec: dict, seed: int, tmp: Path, deadline: float):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.cfg = workload.generate(ROOT, seed)
        if spec["ranks"] is not None:
            self.cfg["points"]["koornwinder"] = self.cfg["points"]["koornwinder"][:1]
        self.spawned = 0
        self.setup = []
        self.samples = []
        self.problems = []
        self.calls = []  # [cases, broke the gate] per verification call
        self.digests = set()
        self.cases = None

    def config_for(self, cache_dir: Path) -> Path:
        path = cache_dir.with_suffix(".config.json")
        path.write_text(json.dumps(dict(self.cfg, cache_dir=str(cache_dir))))
        return path

    def fresh_cache(self) -> Path:
        cache_dir = self.tmp / f"cache{self.spawned}"
        cache_dir.mkdir()
        return cache_dir

    def spawn(self, cache_dir: Path, setup_only=False, trace=False) -> dict:
        """Run one child to completion; return its report plus rusage."""
        self.spawned += 1
        n = self.spawned
        job = {
            "config": str(self.config_for(cache_dir)),
            "out": str(self.tmp / f"out{n}.json"),
            "setup_only": setup_only,
            "trace": trace,
            "suite": self.spec["suite"],
            "ranks": self.spec["ranks"],
            "rows": self.spec["rows"],
        }
        job_path = self.tmp / f"job{n}.json"
        job_path.write_text(json.dumps(job))
        # bytecode goes to this run's scratch space, so after the untimed
        # first child every set-up imports compiled modules, as an
        # installed package does
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONPYCACHEPREFIX=str(self.tmp / "pycache"),
        )
        env.pop(CACHE_ENV, None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        err_path = self.tmp / f"err{n}.txt"
        with open(err_path, "w") as err:
            started = monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(job_path)],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            status, usage, killed = self.reap(proc)
        out_path = Path(job["out"])
        if status != 0 or not out_path.exists():
            tail = err_path.read_text()[-400:].strip()
            why = "killed at the deadline" if killed else f"exit status {status}"
            return {"error": f"child {n} {why}: {tail}"}
        out = json.loads(out_path.read_text())
        out["setup_s"] = out.pop("ready") - started
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        out["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.setup.append(out["setup_s"])
        return out

    def reap(self, proc):
        """Wait for the child with os.wait4, which returns that child's own
        rusage; RUSAGE_CHILDREN would give the maximum over all children."""
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and monotonic() > self.deadline:
                proc.kill()
                killed = True
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage, killed

    def check(self, out: dict, cache_dir: Path, role: str) -> dict:
        """The correctness gate for one verification child.  A call that
        errors or breaks the gate counts all its cases as failed."""
        before = len(self.problems)
        self.gate(out, cache_dir, role)
        self.calls.append([out.get("cases"), len(self.problems) > before])
        return out

    def gate(self, out: dict, cache_dir: Path, role: str) -> None:
        if "error" in out:
            self.problems.append(f"{role}: {out['error']}")
            return
        self.cases = out["cases"]
        if out["not_pass"]:
            self.problems.append(f"{role}: not pass: {', '.join(out['not_pass'][:5])}")
        self.digests.add(out["digest"])
        if len(self.digests) > 1:
            self.problems.append(f"{role}: report body differs from an earlier call")
        if self.seed == 0 and self.spec["suite"] == "all" and out["digest"] != SEED0_DIGEST:
            self.problems.append(f"{role}: seed-0 digest {out['digest']} is not the shipped one")
        if self.spec["ranks"] is not None and out["cases"] != 1:
            self.problems.append(f"{role}: expected one case, got {out['cases']}")
        files, size = cache_usage(cache_dir)
        want = expected_cache_entries(self.spec, self.cfg)
        if files != want:
            self.problems.append(f"{role}: cache holds {files} entries, expected {want}")
        out["cache_files"], out["cache_bytes"] = files, size

    def verify_once(self, cache_dir: Path, role: str, trace=False) -> dict:
        return self.check(self.spawn(cache_dir, trace=trace), cache_dir, role)

    def prepare(self):
        """Untimed: byte-compile the package, time bare set-ups, and fill
        the cache the warm workload reads."""
        unused = self.fresh_cache()
        for i in range(1 + SETUP_ONLY_RUNS):
            out = self.spawn(unused, setup_only=True)
            if "error" in out:
                self.problems.append(f"set-up: {out['error']}")
                return
            if i == 0:
                self.setup.clear()
        if self.spec["cache"] == "filled":
            self.warm_cache = self.fresh_cache()
            self.verify_once(self.warm_cache, "cache fill")

    def cache_for_call(self) -> Path:
        return self.warm_cache if self.spec["cache"] == "filled" else self.fresh_cache()

    def timed(self, seconds: float):
        start = monotonic()
        while True:
            began = monotonic()
            self.samples.append(self.verify_once(self.cache_for_call(), "timed call"))
            now = monotonic()
            # stop before a call that, as long as the last, would end late
            if now - start + (now - began) > seconds or self.problems:
                break

    def tally(self):
        """(attempted, failed) cases over every verification call; a run
        that failed before its first call counts as one failed case."""
        if not self.calls:
            return 1, 1
        attempted = failed = 0
        for cases, broken in self.calls:
            cases = cases or self.cases or 1
            attempted += cases
            failed += cases if broken else 0
        return attempted, failed


def lower_quartile(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(bench: Bench, seconds: float, metric_units: dict) -> dict:
    bench.timed(seconds)
    good = [s for s in bench.samples if "error" not in s]
    values = {
        "setup_s": statistics.median(bench.setup) if bench.setup else None,
    }
    if good:
        values["wall_ref"] = lower_quartile([s["wall_s"] / s["reference_wall_s"] for s in good])
        values["cpu_ref"] = lower_quartile([s["call_cpu_s"] / s["reference_cpu_s"] for s in good])
        values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in good)
    print(
        f"# {bench.name} seed {bench.seed}: {len(good)} timed calls, "
        f"wall s {[round(s['wall_s'], 3) for s in good]}, "
        f"child cpu s {[round(s['cpu_s'], 3) for s in good]}, "
        f"reference s {[round(s['reference_wall_s'], 4) for s in good]}, "
        f"setup median of {len(bench.setup)}"
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units.items()
        if values.get(name) is not None
    }


EXACT_SUFFIXES = (
    ".calls", ".columns", ".terms_in", ".hits", ".misses", ".solves", ".files", ".bytes",
)

# the layers each workload must reach, so a counter wired to the wrong
# lookup site shows up as a zero where work certainly happened
ORACLE_LAYERS = (
    "algebra.", "koornwinder.oracle.calls", "koornwinder.oracle.misses",
    "koornwinder.oracle.s", "koornwinder.cache.", "koornwinder.g_row_general",
    "suites.koornwinder",
)
HOME_LAYERS = {
    "verify_all_cold": ("",),
    "verify_all_warm": ("",),
    "oracle_rank4": ORACLE_LAYERS,
    "oracle_rank3": ORACLE_LAYERS,
}
# predicted zeros: a warm run never misses the oracle cache
HOME_ZEROS = {"verify_all_warm": ("koornwinder.oracle.misses",)}


def self_test(bench: Bench, runs: list, metrics: dict) -> list:
    """Checks on the traced calls; returns the problems found."""
    problems = []
    first = runs[0]
    for other in runs[1:]:
        for key, value in first.items():
            if key.endswith(EXACT_SUFFIXES) and other.get(key) != value:
                problems.append(f"{key} differs between traced calls: {value} vs {other.get(key)}")
    oracle = {k: first.get(f"koornwinder.oracle.{k}", 0) for k in ("calls", "hits", "misses")}
    if oracle["hits"] + oracle["misses"] != oracle["calls"]:
        problems.append(f"oracle hits + misses != calls: {oracle}")
    if oracle["misses"] != first.get("koornwinder.solves", 0):
        problems.append("oracle misses differ from solves at the koornwinder binding")
    if bench.spec["cache"] == "empty" and first["koornwinder.cache.files"] != oracle["misses"]:
        problems.append("cache files written differ from oracle misses")
    if bench.spec["cache"] == "filled" and (
        first["algebra.triangular_solve.calls"] != first.get("b2.solves", 0)
    ):
        problems.append("warm run solved outside the b2 binding")
    zeros = HOME_ZEROS.get(bench.name, ())
    for name, metric in metrics.items():
        if name in zeros and metric["value"] != 0:
            problems.append(f"{name} should be 0 on {bench.name}, got {metric['value']}")
        elif name not in zeros and not metric["value"] and any(
            name.startswith(p) for p in HOME_LAYERS[bench.name]
        ):
            problems.append(f"{name} is 0 on its home workload {bench.name}")
    return problems


def per_layer(bench: Bench, metric_units: dict) -> dict:
    untraced = bench.verify_once(bench.cache_for_call(), "untraced call")
    runs = []
    for i in range(TRACED_RUNS):
        out = bench.verify_once(bench.cache_for_call(), f"traced call {i + 1}", trace=True)
        if "error" in out:
            return {}
        runs.append(dict(
            out["layers"],
            **{
                "koornwinder.cache.files": out["cache_files"],
                "koornwinder.cache.bytes": out["cache_bytes"],
                "traced.wall_s": out["wall_s"],
            },
        ))
    if "error" in untraced:
        return {}
    traced_wall = statistics.median(r["traced.wall_s"] for r in runs)
    overhead = 100 * (traced_wall / untraced["wall_s"] - 1)
    print(
        f"# {bench.name} seed {bench.seed}: traced wall {traced_wall:.3f} s against "
        f"{untraced['wall_s']:.3f} s untraced, overhead {overhead:.1f}%"
    )
    metrics = {}
    for name, unit in metric_units.items():
        if name == "trace.overhead":
            value = overhead
        elif name.endswith(EXACT_SUFFIXES):
            value = runs[0].get(name, 0)
        else:
            value = statistics.median(r.get(name, 0.0) for r in runs)
        metrics[name] = {"value": value, "unit": unit}
    problems = self_test(bench, runs, metrics)
    if problems:
        bench.problems.extend(problems)
        for call in bench.calls[-TRACED_RUNS:]:
            call[1] = True
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()
    if not (ROOT / "src" / "qbc" / "suites.py").is_file():
        print(f"no qbc source under {ROOT / 'src'}; run from a qbc checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in spec[group]}

    tmp = SCRATCH / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, tmp, started + DEADLINE_S)
        bench.prepare()
        if args.trace:
            metrics = per_layer(bench, metric_units) if not bench.problems else {}
        else:
            metrics = end_to_end(bench, args.seconds, metric_units) if not bench.problems else {}
        if bench.digests:
            print(f"# report sha256 {' '.join(sorted(bench.digests))}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    for problem in bench.problems:
        print(f"# gate: {problem}")
    attempted, failed = bench.tally()
    correct = not bench.problems and set(metric_units) <= set(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
