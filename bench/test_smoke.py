"""Reduced-size smoke test of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py

Every workload runs once untimed-short (``--seconds 1``) and once traced with
one batch per phase; the test asserts that every metric named in
BENCHMARK.json is printed with its unit, that no op failed, and that the
traced counts repeat exactly for a seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# figures that depend only on the seed, never on timing
COUNT_METRICS = [m for m, unit in run.PER_LAYER_UNITS.items() if unit == "count"] + [
    "report.violation_ratio", "search.yield", "enumerate.yield", "input.nonzero_frac",
    "input.fail_frac",
]


def _run(capsys, workload: str, trace: int) -> dict:
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    lines = [line.split() for line in out.splitlines()]
    for name, metric in result["metrics"].items():
        assert [name, metric["unit"]] in ([w[0], w[-1]] for w in lines if w), name
    return result


def test_benchmark_json_matches_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted(capsys, workload):
    result = _run(capsys, workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(capsys, monkeypatch, workload):
    monkeypatch.setitem(run.TRACE_BATCHES, workload, 1)
    first = _run(capsys, workload, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER_UNITS
    assert first["metrics"]["failed_frac"]["value"] == 0
    assert first["metrics"]["trace.op_coverage"]["value"] >= 0.95
    if workload == "enumerate":  # one call per phase already takes ~20 s
        return
    second = _run(capsys, workload, 1)
    for m in COUNT_METRICS:
        assert first["metrics"][m]["value"] == second["metrics"][m]["value"], m
