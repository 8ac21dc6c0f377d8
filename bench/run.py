"""Benchmark of the prenovikov workbench.

Usage (from the repository root):

    python3 bench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Workloads: fixtures, probes, search, enumerate (see bench/README.md for why
each was chosen and which layer metric should move it).

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (median
import time of ``prenovikov`` plus ``prenovikov.cli`` over several fresh
interpreters), then the workload runs in a fresh worker process for
``--seconds`` and the run reports the median batch time ``wall_s``, the op
latency median and 90th percentile, and the worker's peak RSS.  The
enumerate workload makes one call per process, so its worker is restarted
until the time is used.

With ``--trace 1`` the run makes a fixed number of batches twice, each in a
fresh process: once untraced and once with spans around every public
function of the package, and reports the per-layer metrics, including the
tracing overhead and the output counts, which must agree between the two.

Every op's output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("fixtures", "probes", "search", "enumerate")
SETUP_SAMPLES = 5
TRACE_BATCHES = {"fixtures": 3, "probes": 3, "search": 2, "enumerate": 1}
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB"}

# per-layer metric -> unit, in the order they are printed
PER_LAYER_UNITS = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
for _name in ("core.apply_op", "core.placed_product", "core.mult_matrix", "core.t3_apply",
              "report.residual"):
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
for _name in ("matched_double.check_matched_pair", "algebras.pre_novikov_from_qf",
              "algebras.check_quasi_frobenius", "bialgebra.check_coalgebra",
              "bialgebra.check_compatibility", "yang_baxter.lemma_condition_residuals",
              "yang_baxter.lemma_equation_residuals", "yang_baxter.ybe_residual",
              "io.parse_bundle", "io.render_report", "io.serialize_bundle"):
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
for _name in ("yang_baxter.co2_equivalence", "yang_baxter.search_symmetric_ybe",
              "algebras.enumerate_dim2_pre_novikov"):
    PER_LAYER_UNITS[f"{_name}.total_s"] = "s"
PER_LAYER_UNITS.update({
    "report.violations": "count", "report.violation_ratio": "ratio",
    "search.candidates": "count", "search.solutions": "count", "search.yield": "ratio",
    "enumerate.pairs": "count", "enumerate.survivors": "count", "enumerate.yield": "ratio",
    "input.nonzero_frac": "ratio", "input.max_denominator": "count", "input.fail_frac": "ratio",
    "failed_frac": "ratio", "trace_overhead": "ratio", "trace.op_coverage": "ratio",
    "trace.spans": "count",
})


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PRENOVIKOV_WORKERS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s
        self.env = _child_env()

    def call(self, argv: list) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("run time limit reached")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=left,
                              env=self.env, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout.strip().splitlines()[-1]

    def worker(self, spec: dict) -> dict:
        return json.loads(self.call([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]))

    def setup_seconds(self) -> list[tuple[float, float]]:
        """(normalized, raw) import times of prenovikov plus prenovikov.cli."""
        code = ("import sys, time; sys.path[:0] = sys.argv[1:]; from speed import SpeedProbe; "
                "p = SpeedProbe('int'); p.start(); t0 = time.perf_counter(); "
                "import prenovikov, prenovikov.cli; t1 = time.perf_counter(); p.stop(); "
                "print(p.normalize(t0, t1), t1 - t0)")
        argv = [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")]
        return [tuple(map(float, self.call(argv).split())) for _ in range(SETUP_SAMPLES)]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def run_timed(runner: Runner, workload: str, seed: int, seconds: int, workdir: Path):
    setup = runner.setup_seconds()
    spec = {"workload": workload, "seed": seed, "workdir": str(workdir)}
    if workload == "enumerate":
        # one call per process; restart the worker until the time is used
        phases, t0 = [], time.monotonic()
        while not phases or time.monotonic() - t0 < seconds:
            phases.append(runner.worker({**spec, "batches": 1}))
        rss = statistics.median(p["rss_mb"] for p in phases)
    else:
        phases = [runner.worker({**spec, "seconds": seconds})]
        rss = phases[0]["rss_mb"]
    batch_s = [s for p in phases for s in p["batch_s"]]
    op_ms = [m for p in phases for m in p["op_ms"]]
    metrics = {
        "setup_s": statistics.median(n for n, _ in setup),
        "wall_s": statistics.median(batch_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": _p90(op_ms),
        "peak_rss_mb": rss,
    }
    raw_batch_s = [s for p in phases for s in p["raw_batch_s"]]
    notes = [f"setup samples: {len(setup)}; batches: {len(batch_s)}; ops: {len(op_ms)}"
             f" (op_p90_ms has {sum(m > metrics['op_p90_ms'] for m in op_ms)} samples above it)",
             f"unnormalized medians: setup {statistics.median(r for _, r in setup):.4g} s,"
             f" batch {statistics.median(raw_batch_s):.4g} s"]
    return phases, metrics, END_TO_END_UNITS, notes


def run_traced(runner: Runner, workload: str, seed: int, workdir: Path):
    spec = {"workload": workload, "seed": seed, "batches": TRACE_BATCHES[workload]}
    plain = runner.worker({**spec, "workdir": str(workdir / "plain")})
    traced = runner.worker({**spec, "workdir": str(workdir / "traced"), "trace": True,
                            "trace_out": str(WORK / f"trace-{workload}-seed{seed}.npz")})
    tr = traced["trace"]
    calls, self_s, total_s = tr["calls"], tr["self_s"], tr["total_s"]
    m: dict = {}
    for layer in LAYERS:
        names = [n for n in calls if n.startswith(layer + ".")]
        m[f"{layer}.calls"] = sum(calls[n] for n in names)
        m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
    for metric in PER_LAYER_UNITS:
        name, _, what = metric.rpartition(".")
        if what == "calls" and name not in LAYERS:
            m[metric] = calls.get(name, 0)
        elif what == "self_s" and name not in LAYERS:
            m[metric] = self_s.get(name, 0.0)
        elif what == "total_s":
            m[metric] = total_s.get(name, 0.0)
    counts = traced["counts"]
    m["report.violations"] = tr["violations"]
    m["report.violation_ratio"] = tr["violations"] / max(1, m["report.residual.calls"])
    m["search.candidates"] = counts["candidates"]
    m["search.solutions"] = counts["solutions"]
    m["search.yield"] = counts["solutions"] / max(1, counts["candidates"])
    m["enumerate.pairs"] = counts["pairs"]
    m["enumerate.survivors"] = counts["survivors"]
    m["enumerate.yield"] = counts["survivors"] / max(1, counts["pairs"])
    for k, v in traced["inputs"].items():
        m[f"input.{k}"] = v
    phases = [plain, traced]
    m["failed_frac"] = sum(p["failed"] for p in phases) / max(1, sum(p["attempted"] for p in phases))
    m["trace_overhead"] = sum(traced["batch_s"]) / sum(plain["batch_s"])
    m["trace.op_coverage"] = tr["op_s"] / sum(traced["raw_batch_s"])
    m["trace.spans"] = tr["spans"]
    notes = [f"batches per phase: {TRACE_BATCHES[workload]}; traced spans: {tr['spans']}"]
    if plain["counts"] != counts:
        plain["failed"] += 1
        plain["failures"].append(f"output counts differ between the untraced and traced "
                                 f"phases: {plain['counts']} vs {counts}")
    return phases, m, PER_LAYER_UNITS, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prenovikov" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"no prenovikov source tree and fixtures under {ROOT}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(RUN_LIMIT_S)
    try:
        if args.trace:
            phases, metrics, units, notes = run_traced(runner, args.workload, args.seed, workdir)
        else:
            phases, metrics, units, notes = run_timed(runner, args.workload, args.seed,
                                                      args.seconds, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    for p in phases:
        for f in p["failures"]:
            print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
