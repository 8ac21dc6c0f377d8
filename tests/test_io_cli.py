import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from prenovikov.cli import run_command
from prenovikov.core import InputError
from prenovikov.io import (
    Bundle,
    bundle_to_objects,
    parse_bundle,
    parse_report,
    render_report,
    serialize_bundle,
)
from prenovikov.report import Report, Violation

from conftest import FIXTURES

F = Fraction

ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def test_fixture_directory_is_complete():
    names = {p.name for p in ALL_FIXTURES}
    assert {
        "dim2_pre_novikov.json",
        "dim2_coalgebra.json",
        "dim2_bialgebra.json",
        "dim2_double_qf.json",
        "dim2_shift_t.json",
        "dim4_semidirect.json",
        "dim4_ybe_solution.json",
        "dim4_coalgebra.json",
        "dim4_bialgebra.json",
        "dim2_pre_novikov_broken.json",
        "dim2_o_operator.json",
        "dim2_novikov.json",
        "dim2_rep.json",
        "dim2_pre_rep.json",
    } <= names


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_round_trip_byte_identity(path):
    text = path.read_text()
    bundle = parse_bundle(text)
    out = serialize_bundle(bundle)
    assert out == text  # fixtures are stored canonically
    assert serialize_bundle(parse_bundle(out)) == out  # idempotent
    bundle_to_objects(bundle)  # interpretable


def test_canonicalization_reduces_fractions():
    doc = {"kind": "tensor2", "dim": 1, "entries": [["2/4"]]}
    bundle = parse_bundle(json.dumps(doc))
    assert bundle.data["entries"][0][0] == F(1, 2)
    assert '"1/2"' in serialize_bundle(bundle)


def test_parse_accepts_ints_rejects_floats():
    ok = parse_bundle('{"kind":"tensor2","dim":1,"entries":[[3]]}')
    assert ok.data["entries"][0][0] == F(3)
    with pytest.raises(InputError, match="entries"):
        parse_bundle('{"kind":"tensor2","dim":1,"entries":[[0.5]]}')


def test_parse_errors():
    with pytest.raises(InputError, match="1/0"):
        parse_bundle('{"kind":"tensor2","dim":1,"entries":[["1/0"]]}')
    with pytest.raises(InputError, match="unknown bundle kind"):
        parse_bundle('{"kind":"mystery"}')
    with pytest.raises(InputError, match="unknown fields"):
        parse_bundle('{"kind":"tensor2","dim":1,"entries":[["1"]],"extra":1}')
    with pytest.raises(InputError, match="missing fields"):
        parse_bundle('{"kind":"tensor2","dim":1}')
    with pytest.raises(InputError, match="length 2"):
        parse_bundle('{"kind":"tensor2","dim":2,"entries":[["1","0"]]}')
    with pytest.raises(InputError, match="line 1, column"):
        parse_bundle('{"kind":')
    with pytest.raises(InputError, match="JSON object"):
        parse_bundle("[1,2]")
    with pytest.raises(InputError, match="basis"):
        parse_bundle('{"kind":"tensor2","dim":1,"entries":[["1"]],"basis":["a","b"]}')


def test_render_report_text_and_machine():
    report = Report(
        name="novikov",
        identities=("2.1", "2.2"),
        violations=(
            Violation("2.2", (0, 0, 0), ("e1", "e1", "e1"), ("1", "0")),
        ),
    )
    text = render_report(report, "text")
    assert "FAIL" in text
    assert "Eq (2.2) violated at (e1,e1,e1)" in text
    passing = Report(name="novikov", identities=("2.1",))
    out = render_report(passing, "text")
    assert "PASS" in out and "violated" not in out
    machine = render_report(report, "machine")
    back = parse_report(machine)
    assert back == report
    assert render_report(back, "machine") == machine
    with pytest.raises(InputError):
        render_report(report, "markdown")


def test_parse_report_verdict_validation():
    doc = {
        "kind": "report",
        "name": "x",
        "verdict": "pass",
        "identities": [],
        "violations": [
            {"identity": "2.1", "witness_index": [0], "witness": ["e1"], "residual": ["1"]}
        ],
        "sections": [],
        "seconds": 0.0,
    }
    with pytest.raises(InputError, match="verdict"):
        parse_report(json.dumps(doc))


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_check_reports_are_byte_reproducible(fmt):
    argv = ["--format", fmt, "check", fixture("dim4_bialgebra.json")]
    code, first = run(argv)
    assert code == 0
    assert run(argv) == (code, first)
    assert "seconds" not in first and not re.search(r"\(\d+\.\d+s\)", first)


def test_cli_check_exit_codes(tmp_path):
    code, text = run(["check", fixture("dim2_bialgebra.json")])
    assert code == 0 and "PASS" in text
    code, text = run(["check", fixture("dim2_pre_novikov_broken.json")])
    assert code == 1 and "FAIL" in text
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"tensor2","dim":1,"entries":[["1/0"]]}')
    code, _ = run(["check", str(bad)])
    assert code == 2
    code, _ = run(["check", fixture("dim4_ybe_solution.json")])
    assert code == 2  # no verifier for raw tensors
    code, _ = run(["check", str(tmp_path / "missing.json")])
    assert code == 2


def test_cli_check_all_checkable_fixtures():
    for name in (
        "dim2_pre_novikov.json",
        "dim2_novikov.json",
        "dim2_coalgebra.json",
        "dim2_bialgebra.json",
        "dim2_double_qf.json",
        "dim2_rep.json",
        "dim2_pre_rep.json",
        "dim2_o_operator.json",
        "dim4_semidirect.json",
        "dim4_coalgebra.json",
        "dim4_bialgebra.json",
    ):
        code, text = run(["check", fixture(name)])
        assert code == 0, (name, text)


def test_cli_machine_format_round_trips():
    code, text = run(["--format", "machine", "check", fixture("dim2_pre_novikov.json")])
    assert code == 0
    report = parse_report(text)
    assert report.passed


def test_cli_double():
    code, text = run(["double", fixture("dim2_bialgebra.json")])
    assert code == 0
    bundle_text = text[: text.index("PASS")]
    bundle = parse_bundle(bundle_text)
    assert bundle.kind == "form"
    expected = parse_bundle(Path(fixture("dim2_double_qf.json")).read_text())
    assert bundle == expected
    code, _ = run(["double", fixture("dim2_pre_novikov.json")])
    assert code == 2


def test_cli_coboundary():
    code, text = run(
        ["coboundary", fixture("dim4_semidirect.json"), fixture("dim4_ybe_solution.json")]
    )
    assert code == 0
    assert "symmetric: yes" in text and "residual zero: yes" in text
    bundle = parse_bundle(text[: text.index("PASS")])
    expected = parse_bundle(Path(fixture("dim4_coalgebra.json")).read_text())
    assert bundle == expected


def test_cli_ybe(tmp_path):
    code, text = run(["ybe", fixture("dim4_semidirect.json"), fixture("dim4_ybe_solution.json")])
    assert code == 0
    assert "residual zero: yes" in text
    assert "residual=True novikov_operator=True pre_novikov_operator=True" in text
    bad_r = tmp_path / "r.json"
    bad_r.write_text(
        serialize_bundle(
            Bundle("tensor2", {"dim": 2, "entries": ((F(1), F(0)), (F(0), F(0)))})
        )
    )
    code, text = run(["ybe", fixture("dim2_pre_novikov.json"), str(bad_r)])
    assert code == 1 and "residual zero: no" in text
    asym = tmp_path / "asym.json"
    asym.write_text(
        serialize_bundle(
            Bundle("tensor2", {"dim": 2, "entries": ((F(0), F(1)), (F(0), F(0)))})
        )
    )
    code, text = run(["ybe", fixture("dim2_pre_novikov.json"), str(asym)])
    assert "not symmetric" in text


def test_cli_oper_and_lift():
    code, text = run(
        [
            "oper",
            fixture("dim2_pre_novikov.json"),
            fixture("dim2_pre_rep.json"),
            fixture("dim2_shift_t.json"),
            "--lift",
        ]
    )
    assert code == 0
    assert "lifted residual zero: yes" in text
    code, _ = run(
        ["oper", fixture("dim2_novikov.json"), fixture("dim2_rep.json"), fixture("dim2_shift_t.json")]
    )
    assert code == 0
    # flavor/algebra mismatch is an input error
    code, _ = run(
        ["oper", fixture("dim2_novikov.json"), fixture("dim2_pre_rep.json"), fixture("dim2_shift_t.json")]
    )
    assert code == 2


def test_cli_search():
    code, text = run(["search", fixture("dim2_pre_novikov.json"), "--values=-1,0,1"])
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "search_results" and doc["count"] == 3
    for sol in doc["solutions"]:
        parse_bundle(json.dumps(sol))
    code, _ = run(
        ["search", fixture("dim2_pre_novikov.json"), "--values=-1,0,1", "--max-candidates", "5"]
    )
    assert code == 2


def test_cli_diag():
    code, text = run(["diag", fixture("dim4_semidirect.json"), fixture("dim4_ybe_solution.json")])
    assert code == 0
    assert "operator conditions all zero: yes" in text
    assert "equation residuals all zero: yes" in text
    code, text = run(
        ["--format", "machine", "diag", fixture("dim4_semidirect.json"), fixture("dim4_ybe_solution.json")]
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc["r_tensors"]) == {"R11", "R12", "R13", "R21", "R22", "R31", "R41"}


def test_cli_derive():
    code, text = run(["derive", fixture("dim2_pre_novikov.json")])
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "derived"
    assert doc["parts"]["associated"]["kind"] == "novikov"
    code, text = run(["derive", fixture("dim2_pre_novikov_broken.json")])
    assert code == 1
    code, text = run(["derive", fixture("dim2_rep.json")])
    assert code == 0
    assert "dual_rep" in json.loads(text)["parts"]


def test_cli_unknown_command():
    assert run(["frobnicate"])[0] == 2


def test_parse_report_ignores_the_old_timing_field():
    doc = json.loads(render_report(Report(name="novikov", identities=("2.1",)), "machine"))
    assert parse_report(json.dumps({**doc, "seconds": 0.004})) == Report(name="novikov", identities=("2.1",))
