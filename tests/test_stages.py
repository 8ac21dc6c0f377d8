"""Each CLI command makes one kernel call per stage of its construction:
``check``, ``derive``, ``ybe``, ``coboundary`` and ``oper`` one, ``double``
three (the bialgebra and its induced matched pair; the double's Novikov and
quasi-Frobenius checks with the split products; the split's checks), and
``oper --lift`` four (the operator check it prints, which the lift's
biconditional reads; the rep's check with its dual; the semidirect
product's check; the lifted 4.13 residual).  The
library constructions run on the same stages.  A refusal still prints the
failing report alone, on the bundle's basis, and merged stages keep the exit
contract on malformed bundles."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from fractions import Fraction as F

from prenovikov import (FormMatrix, StructureConstants, check_quasi_frobenius, core, double_matched_bialgebra_verdicts,
                        has_double_construction)
from prenovikov.cli import run_command
from prenovikov.io import bundle_to_objects, parse_bundle

from conftest import FIXTURES
from test_cli_golden import ROOT, golden_runs, run


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """One entry per ``core._Program.run`` from here on."""
    calls = []
    program_run = core._Program.run
    monkeypatch.setattr(core._Program, "run", lambda self, *a, **k: calls.append(1) or program_run(self, *a, **k))
    return calls


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


CHECKED = ["dim2_bialgebra.json", "dim2_coalgebra.json", "dim2_double_qf.json", "dim2_novikov.json",
           "dim2_o_operator.json", "dim2_pre_novikov.json", "dim2_pre_novikov_broken.json", "dim2_pre_rep.json",
           "dim2_rep.json", "dim4_bialgebra.json", "dim4_coalgebra.json", "dim4_semidirect.json"]
PAIR = ["dim4_semidirect.json", "dim4_ybe_solution.json"]
OPERATOR = ["dim2_pre_novikov.json", "dim2_pre_rep.json", "dim2_shift_t.json"]
CALLS = [(["check", name], 1) for name in CHECKED] + [
    (["derive", name], 1) for name in ("dim2_pre_novikov.json", "dim4_semidirect.json", "dim2_pre_rep.json",
                                       "dim2_rep.json")] + [
    (["ybe", *PAIR], 1), (["coboundary", *PAIR], 1),
    (["double", "dim2_bialgebra.json"], 3), (["double", "dim4_bialgebra.json"], 3),
    (["oper", *OPERATOR], 1), (["oper", *OPERATOR, "--lift"], 4)]


@pytest.mark.parametrize("argv, calls", CALLS, ids=[" ".join(argv) for argv, _ in CALLS])
def test_each_command_makes_one_kernel_call_per_stage(kernel_calls, argv, calls):
    command, *names = argv
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_command([command, *[name if name[0] == "-" else _fixture(name) for name in names]],
                           io.StringIO()) in (0, 1)
    assert len(kernel_calls) == calls


@pytest.mark.parametrize("name", ["dim2_bialgebra.json", "dim4_bialgebra.json"])
def test_the_double_verdicts_run_on_the_double_stages(kernel_calls, name):
    bialg = bundle_to_objects(parse_bundle((FIXTURES / name).read_text()))
    assert has_double_construction(bialg)
    assert len(kernel_calls) == 3
    kernel_calls.clear()
    assert double_matched_bialgebra_verdicts(bialg) == (True, True, True)
    assert len(kernel_calls) == 3


def _relabelled_broken_bialgebra(tmp_path) -> str:
    """``dim2_bialgebra.json`` on the basis x, y with alpha[0][0][0] = 5."""
    doc = json.loads((FIXTURES / "dim2_bialgebra.json").read_text())
    doc["basis"] = ["x", "y"]
    doc["alpha"][0][0][0] = 5
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_a_refused_stage_prints_only_the_failing_report(kernel_calls, tmp_path, fmt):
    """``derive`` of a broken pre-Novikov algebra and ``double`` of a broken
    bialgebra evaluate the later sections of their stage too, yet print the
    report ``check`` prints, on the bundle's basis, from one kernel call."""
    broken = _relabelled_broken_bialgebra(tmp_path)
    refusals = {"derive": "", "double": "double construction refused: not a pre-Novikov bialgebra\n"}
    for command, path in (("derive", _fixture("dim2_pre_novikov_broken.json")), ("double", broken)):
        code, report, _ = run(["--format", fmt, "check", path])
        kernel_calls.clear()
        assert run(["--format", fmt, command, path]) == (1, report, refusals[command]) and code == 1
        assert len(kernel_calls) == 1
    assert ("Eq (3.11) violated at (x)" if fmt == "text" else '"x"') in report and "e1" not in report


def test_the_skew_rows_come_off_the_checks_own_call(kernel_calls):
    """``check_quasi_frobenius`` of a degenerate, non-skew form lists its
    2.14 violations, then the nondegenerate row, then one skew row per
    witness i <= j where w_ij + w_ji is not zero, reduced, all from one
    kernel call."""
    w = [[F(1, 2), F(2), F(0)], [F(0), F(0), F(1)], [F(1, 2), F(2), F(1)]]  # row 3 = row 1 + row 2
    op = StructureConstants.from_rows([[[(i + 2 * j + k) % 3 - 1 for k in range(3)] for j in range(3)] for i in range(3)])
    report = check_quasi_frobenius(op, FormMatrix(3, w))
    rows = [("nondegenerate", (), (), ("determinant is zero",))] + [
        ("skew", (i, j), (f"e{i + 1}", f"e{j + 1}"), (str(w[i][j] + w[j][i]),))
        for i in range(3) for j in range(i, 3) if w[i][j] + w[j][i]]
    assert report.violations[-len(rows):] == tuple(rows)
    assert {v.identity for v in report.violations[:-len(rows)]} == {"2.14"}
    assert len(kernel_calls) == 1


# the values a field or entry of a bundle is replaced by; "drop" removes it
REPLACEMENTS = ["", "1/0", None, "9" * 5000, [[1, 2], [3]], "drop"]
FUZZ_RUNS = 400


def _leaves(doc, path=()):
    """The paths of every leaf of a JSON document, and of every field."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _leaves(value, path + (key,))


def test_the_exit_contract_holds_on_mutated_bundles(tmp_path):
    """Every command and fixture combination that exits 0 or 1, with one
    field or entry of one of its bundles replaced or dropped: each run
    exits 0, 1 or 2, and no exception escapes ``run_command`` (a seeded,
    bounded sample)."""
    with contextlib.chdir(ROOT):
        combos = [argv[2:] for argv in golden_runs() if argv[1] == "text" and run(argv)[0] in (0, 1)]
    assert len(combos) == 28
    rng = random.Random(34)
    codes = set()
    for k in range(FUZZ_RUNS):
        command, *args = combos[k % len(combos)]
        at = rng.choice([i for i, arg in enumerate(args) if arg.endswith(".json")])
        doc = json.loads((ROOT / args[at]).read_text())
        *parent, key = rng.choice(list(_leaves(doc)))
        holder = doc
        for step in parent:
            holder = holder[step]
        new = rng.choice(REPLACEMENTS)
        if new == "drop":
            del holder[key]
        else:
            holder[key] = new
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        argv = [command, *(str(path) if i == at else str(ROOT / arg) for i, arg in enumerate(args))]
        with contextlib.redirect_stderr(io.StringIO()):
            codes.add(run_command(argv, io.StringIO()))
    assert codes <= {0, 1, 2} and 2 in codes
