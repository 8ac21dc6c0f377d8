"""The benchmark's pinned outputs (``bench/pins.json``) on the package as it
is: the seed-1 first batch of every workload in ``bench/workloads.py``,
each op with a pin run once and its normalized output's digest compared
with the pin, so a change of one byte in an output fails here and not
only as ``outputs_incorrect`` in a benchmark run."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["fixtures", "probes", "search", "enumerate"])
def test_first_batch_matches_its_pins(workloads, name, tmp_path):
    pins = workloads.load_pins()
    ops = [op for op in workloads.WORKLOADS[name](1, tmp_path).next_batch() if op.pin_key is not None]
    assert ops
    for op in ops:
        assert workloads.digest(op.normalize(op.run())) == pins[op.pin_key], op.pin_key
