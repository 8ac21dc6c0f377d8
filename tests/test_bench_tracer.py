"""The benchmark's span tracer (``bench/tracer.py``, behind ``bench/run.py
--trace 1``) on the package as it is: it installs on the public functions
and on ``ReportBuilder.residual``, records spans, and uninstalls without a
trace left, so a refactor cannot break the traced run unnoticed."""

import importlib
import random
import types
from pathlib import Path

import prenovikov
from prenovikov.algebras import PreNovikovAlgebra
from prenovikov.bialgebra import PreNovikovCoalgebra
from prenovikov.core import StructureConstants
from prenovikov.report import ReportBuilder

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings() -> dict:
    """Every function bound in a module of the package, and ``residual``."""
    modules = [prenovikov] + [importlib.import_module(f"prenovikov.{m}") for m in
                              ("core", "algebras", "representations", "bialgebra", "matched_double",
                               "yang_baxter", "report", "io", "cli", "labels")]
    out = {(mod.__name__, attr): obj for mod in modules for attr, obj in vars(mod).items()
           if isinstance(obj, types.FunctionType)}
    out["ReportBuilder.residual"] = ReportBuilder.residual
    return out


def test_tracer_installs_records_spans_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    before = _bindings()
    rng = random.Random(5)
    tables = [[[[rng.choice((-1, 0, 1)) for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(4)]
    lhd, rhd, alpha, beta = map(StructureConstants.from_rows, tables)
    tracer.install()
    try:
        assert ReportBuilder.residual is not before["ReportBuilder.residual"]
        assert prenovikov.check_bialgebra is not before["prenovikov", "check_bialgebra"]
        tracer.active = True
        report = prenovikov.check_bialgebra(PreNovikovAlgebra(lhd, rhd), PreNovikovCoalgebra(2, alpha.c, beta.c))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert _bindings() == before
    calls = tracer.summary()["calls"]
    assert calls["bialgebra.check_bialgebra"] == 1 and calls["report.residual"] > 0
    assert not report.passed
