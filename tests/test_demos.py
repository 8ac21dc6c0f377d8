"""The demos run to their end: each script in ``demos/`` exits 0 and writes
nothing to stderr, run as its docstring says, from the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_run():
    assert [path.name for path in DEMOS] == [
        "01_axioms_and_reports.py",
        "02_double_construction.py",
        "03_operator_lift_pipeline.py",
        "04_exhaustive_search.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_the_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
