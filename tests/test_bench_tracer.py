"""The benchmark's span tracer (``bench/tracer.py``, behind ``bench/run.py
--trace 1``) on the package as it is: it installs on the public functions
and on ``ReportBuilder.residual``, records spans, and uninstalls without a
trace left, so a refactor cannot break the traced run unnoticed."""

import ast
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


def _package_object(module: str, name: str):
    """``module``'s attribute or submodule ``name``, or None when it has neither."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name, None)


def test_every_package_name_the_benchmark_reads_resolves():
    """The benchmark lies outside the test paths, so this guards what it
    reads of the package: each name of a ``from prenovikov... import`` in
    ``bench/*.py``, and each name read through a package module it binds
    (``pn.<name>``, ``pn.core.<name>``, ``pio.<name>``, ``cli.<name>``),
    exists in the package."""
    checked = set()
    for path in sorted(BENCH.glob("*.py")):
        tree, modules = ast.parse(path.read_text()), {}  # local name -> package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "prenovikov":
                        modules[alias.asname or "prenovikov"] = alias.name if alias.asname else "prenovikov"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prenovikov":
                for alias in node.names:
                    obj = _package_object(node.module, alias.name)
                    assert obj is not None, f"{path.name}: from {node.module} import {alias.name}"
                    checked.add(f"{node.module}.{alias.name}")
                    if isinstance(obj, types.ModuleType):
                        modules[alias.asname or alias.name] = obj.__name__
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain, node = [node.attr, *chain], node.value
            if not (chain and isinstance(node, ast.Name) and node.id in modules):
                continue
            module = modules[node.id]
            for name in chain:  # through modules, to the first name that is not one
                obj = _package_object(module, name)
                assert obj is not None, f"{path.name}: {node.id}.{'.'.join(chain)}: {module} has no {name!r}"
                checked.add(f"{module}.{name}")
                if not isinstance(obj, types.ModuleType):
                    break
                module = obj.__name__
    assert {"prenovikov.core.mat_inverse", "prenovikov.core.t3_is_zero", "prenovikov.report.ReportBuilder",
            "prenovikov.cli.run_command", "prenovikov.io.parse_bundle"} <= checked
