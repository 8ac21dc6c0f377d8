import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from prenovikov.cli import run_command
from prenovikov import cli, core, labels
from prenovikov.core import InputError
from prenovikov import PreNovikovCoalgebra, check_bialgebra, co2_equivalence, ybe_residual
from prenovikov.io import (
    KINDS,
    Bundle,
    bundle_doc,
    bundle_to_objects,
    dumps,
    parse_bundle,
    parse_report,
    render_report,
    serialize_bundle,
)
from prenovikov.report import Report, Violation

from bundle_reference import encode
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
    assert bundle.data["entries"].nested[0][0] == F(1, 2)
    assert '"1/2"' in serialize_bundle(bundle)


def test_parse_accepts_ints_rejects_floats():
    ok = parse_bundle('{"kind":"tensor2","dim":1,"entries":[[3]]}')
    assert ok.data["entries"].nested[0][0] == F(3)
    with pytest.raises(InputError, match="entries"):
        parse_bundle('{"kind":"tensor2","dim":1,"entries":[[0.5]]}')
    with pytest.raises(InputError, match=r"entries\[0\]\[1\]: scalar entries must be exact rationals, got True"):
        parse_bundle('{"kind":"tensor2","dim":2,"entries":[[1,true],["0","0"]]}')


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


def _failing_bialgebra_reports() -> list:
    """Machine reports of the fixture bialgebras with one co-operation entry
    changed, so that every section has violations."""
    docs = []
    for name in ("dim2_bialgebra.json", "dim4_bialgebra.json"):
        bialg = bundle_to_objects(parse_bundle((FIXTURES / name).read_text()))
        co = bialg.coalgebra
        alpha = [[list(row) for row in plane] for plane in co.alpha]
        alpha[0][0][0] += F(1, 3)
        report = check_bialgebra(bialg.algebra, PreNovikovCoalgebra(co.dim, alpha, co.beta))
        assert not report.passed
        docs.append(json.loads(render_report(report, "machine")))
    return docs


def test_dumps_is_json_dumps_canonical():
    """The canonical emitter gives byte for byte what ``json.dumps`` with
    sorted keys and a two-space indent gives."""
    docs = [json.loads(path.read_text()) for path in ALL_FIXTURES]
    docs += [encode(bundle_doc(parse_bundle(path.read_text()))) for path in ALL_FIXTURES]
    docs += _failing_bialgebra_reports()
    docs += [
        {}, [], (), "", 0, -7, 2**70, True, False, None,
        {"empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]]}},
        {"basis": ["é1", "∂2", "e\u00003", "tab\tnew\nline"], "z": 1, "a": -2},
        {"label \"quoted\"": ['say "hi"', "back\\slash", "/"], "ints": [0, 1, -1, 2**64]},
        {"b": {"d": {"f": [True, False, None]}, "c": ["x", ("y", "z")]}, "a": [{"k": []}]},
    ]
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


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
    assert back == report and hash(back) == hash(report) and back != tuple(report.violations)
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


@pytest.mark.parametrize("change", [
    {"violations": [{"witness_index": [0], "witness": ["e1"], "residual": ["1"]}]},  # no "identity"
    {"violations": [{"identity": "2.1", "witness_index": 3, "witness": ["e1"], "residual": ["1"]}]},
    {"violations": [["2.1", [0], ["e1"], ["1"]]]},
    {"violations": 5},
    {"sections": 5},
    {"sections": [{"kind": "report", "verdict": "pass", "violations": [{}]}]},
])
def test_parse_report_refuses_malformed_documents(change):
    """A report document with a missing field or a field of the wrong type
    is refused as bad input, not a KeyError or a TypeError."""
    doc = {"kind": "report", "name": "x", "verdict": "fail", "identities": [], "violations": [], "sections": []}
    with pytest.raises(InputError):
        parse_report(json.dumps({**doc, **change}))


_VIOLATION = {"identity": "2.1", "witness_index": [0], "witness": ["e1"], "residual": ["1"]}


@pytest.mark.parametrize("field, value", [
    ("name", 5),
    ("identities", ["2.1", 2]),
    ("identity", 5),
    ("witness_index", ["a"]),
    ("witness_index", [True]),
    ("witness", "e1"),
    ("residual", [1]),
    ("sections", {}),
])
def test_parse_report_checks_field_types(field, value):
    """Every field of a report document is type-checked: a wrong type is
    refused as bad input, naming the field, rather than parsed (``"e1"`` as
    the witness ``('e', '1')``) or failing later in the text render."""
    doc = {"kind": "report", "name": "x", "verdict": "fail", "identities": [], "violations": [dict(_VIOLATION)],
           "sections": []}
    assert parse_report(json.dumps(doc)).violations[0].witness == ("e1",)
    if field in _VIOLATION:
        doc["violations"][0][field] = value
    else:
        doc[field] = value
    with pytest.raises(InputError, match=f"^{field}: expected"):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("field, code", [("identities", ""), ("identity", ""), ("identity", "9.99"),
                                         ("identities", "2.1 ")])
def test_parse_report_refuses_unknown_identity_codes(field, code):
    """An identity code that is no key of ``labels.IDENTITIES`` is refused,
    naming its field; the empty one made the text render raise IndexError."""
    doc = {"kind": "report", "name": "x", "verdict": "fail", "identities": ["2.1"],
           "violations": [dict(_VIOLATION)], "sections": []}
    if field == "identity":
        doc["violations"][0]["identity"] = code
    else:
        doc["identities"] = [code]
    with pytest.raises(InputError, match=f"^{field}: expected an identity code"):
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
    assert code == 2  # check reads no tensor2 bundle
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


def test_cli_writes_documents_without_nested_views(monkeypatch):
    """``derive``, ``double``, ``coboundary``, ``oper``, the ``check`` of an
    operator bundle and the machine ``diag`` and ``ybe`` documents are
    written from the ``Exact`` arrays: no nested Fraction view is built, by
    comparing algebras either."""
    views = []
    nested_fractions = core.nested_fractions

    def counted(*args):
        views.append(args[0].shape)
        return nested_fractions(*args)

    monkeypatch.setattr(core, "nested_fractions", counted)
    alg, r = fixture("dim4_semidirect.json"), fixture("dim4_ybe_solution.json")
    for argv in (["derive", fixture("dim4_semidirect.json")], ["derive", fixture("dim2_pre_rep.json")],
                 ["derive", fixture("dim2_rep.json")], ["--format", "machine", "diag", alg, r],
                 ["--format", "machine", "ybe", alg, r], ["coboundary", alg, r],
                 ["--format", "machine", "coboundary", alg, r], ["double", fixture("dim4_bialgebra.json")],
                 ["oper", fixture("dim2_novikov.json"), fixture("dim2_rep.json"), fixture("dim2_shift_t.json")],
                 ["oper", fixture("dim2_pre_novikov.json"), fixture("dim2_pre_rep.json"),
                  fixture("dim2_shift_t.json")],
                 ["check", fixture("dim2_o_operator.json")]):
        assert run(argv)[0] == 0, argv
        assert views == [], argv


@pytest.mark.parametrize("symmetric", [False, True])
def test_cli_ybe_lists_the_first_32_nonzero_entries(tmp_path, symmetric):
    """The text listing of a nonzero residual, against one built from
    ``ybe_residual``'s nested view."""
    rng = random.Random(4)
    entries = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(4)] for _ in range(4)]
    entries = tuple(tuple(entries[min(i, j)][max(i, j)] if symmetric else entries[i][j] for j in range(4))
                    for i in range(4))
    path = tmp_path / "r.json"
    path.write_text(serialize_bundle(Bundle("tensor2", {"dim": 4, "entries": entries})))
    alg = bundle_to_objects(parse_bundle(Path(fixture("dim4_semidirect.json")).read_text()))
    residual = ybe_residual(alg, entries)
    nonzero = [(f"  [{i},{j},{k}] = {v}", v) for i, plane in enumerate(residual)
               for j, row in enumerate(plane) for k, v in enumerate(row) if v]
    assert len(nonzero) > 32 and any(v.denominator > 1 for _, v in nonzero[:32])
    if symmetric:
        a, b, c = co2_equivalence(alg, entries)
        last = f"equivalent verdicts: residual={a} novikov_operator={b} pre_novikov_operator={c}"
    else:
        last = "r is not symmetric; operator-form verdicts skipped"
    expected = ["residual zero: no", *(line for line, _ in nonzero[:32]), last]
    assert run(["ybe", fixture("dim4_semidirect.json"), str(path)]) == (1, "\n".join(expected) + "\n")


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


def test_cli_oper_lift_evaluates_4_13_once(kernel_sums):
    """``oper --lift`` prints the lifted residual's verdict from the one 4.13
    evaluation ``lift_o_operator`` makes on the four-dimensional lift."""
    code, text = run(["oper", fixture("dim2_pre_novikov.json"), fixture("dim2_pre_rep.json"),
                      fixture("dim2_shift_t.json"), "--lift"])
    assert code == 0 and "lifted residual zero: yes" in text
    assert [shapes["r"] for terms, shapes, _ in kernel_sums
            if terms == tuple(labels.SPECS[labels.YBE][1])] == [(4, 4)]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_cli_ybe_evaluates_4_13_once(kernel_sums, fmt):
    """``ybe`` on a symmetric r prints verdict (a) of ``co2_equivalence``
    from the one 4.13 evaluation the command makes for its residual."""
    code, text = run(["--format", fmt, "ybe", fixture("dim4_semidirect.json"), fixture("dim4_ybe_solution.json")])
    assert code == 0
    if fmt == "text":
        assert "residual=True novikov_operator=True pre_novikov_operator=True" in text
    else:
        assert json.loads(text)["equivalent_verdicts"] == [True, True, True]
    assert [shapes["r"] for terms, shapes, _ in kernel_sums
            if terms == tuple(labels.SPECS[labels.YBE][1])] == [(4, 4)]


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


# command -> the bundle kinds each of its positional arguments reads, in order
READS = {
    "check": [("novikov", "pre_novikov", "coalgebra", "bialgebra", "form", "rep", "o_operator")],
    "derive": [("pre_novikov", "rep")],
    "double": [("bialgebra",)],
    "coboundary": [("pre_novikov",), ("tensor2",)],
    "ybe": [("pre_novikov",), ("tensor2",)],
    "oper": [("novikov", "pre_novikov"), ("rep",), ("linmap",)],
    "search": [("pre_novikov",)],
    "diag": [("pre_novikov",), ("tensor2",)],
}


def test_every_command_refuses_a_bundle_of_a_kind_it_does_not_read(capsys):
    """Each positional bundle is loaded and its kind checked, in argument
    order, before the command runs: a bundle of any other kind than its
    argument reads is an input error that names its path."""
    assert {name: list(args.values()) for name, (_, args, _) in cli._COMMANDS.items()} == READS
    by_kind = {}
    for path in ALL_FIXTURES:
        by_kind.setdefault(parse_bundle(path.read_text()).kind, str(path))
    assert by_kind.keys() == KINDS.keys()
    for command, reads in READS.items():
        for k, kinds in enumerate(reads):
            for kind in by_kind.keys() - set(kinds):
                argv = [command, *(by_kind[ks[0]] for ks in reads[:k]), *[by_kind[kind]] * (len(reads) - k)]
                assert run(argv) == (2, ""), argv
                assert capsys.readouterr().err == (
                    f"input error: {by_kind[kind]}: {command} expects a {' or '.join(kinds)} bundle, got {kind!r}\n")
    # the algebra of oper is of the rep's flavor
    novikov = fixture("dim2_novikov.json")
    assert run(["oper", novikov, fixture("dim2_pre_rep.json"), fixture("dim2_shift_t.json")]) == (2, "")
    assert capsys.readouterr().err == f"input error: {novikov}: oper expects a pre_novikov bundle, got 'novikov'\n"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    """A document nested past the parser's recursion is refused, not a crash,
    and so is a report whose sections nest past its parser's."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["check", str(deep)]) == (2, "")
    assert capsys.readouterr().err == f"input error: {deep}: nested deeper than the JSON parser allows\n"
    with pytest.raises(InputError, match="^nested deeper than the JSON parser allows$"):
        parse_report(deep.read_text())
    section = '{"identities": [], "kind": "report", "name": "r", "verdict": "pass", "violations": [], "sections": ['
    with pytest.raises(InputError, match="^sections nested deeper than the report parser allows$"):
        parse_report(section * 400 + "]}" * 400)


def test_a_bundle_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    """Bytes that do not decode as UTF-8 are refused with the path, exit 2,
    not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(bytes.fromhex("fffe00626164"))
    assert run(["check", str(bad)]) == (2, "")
    assert re.fullmatch(rf"input error: {re.escape(str(bad))}: 'utf-8' codec can't decode byte 0xff .*\n",
                        capsys.readouterr().err)


def test_oper_lift_refuses_a_novikov_flavor_before_any_report(capsys):
    """``--lift`` of a novikov-flavor rep is refused before the operator
    check runs, so nothing is written to stdout."""
    argv = ["oper", fixture("dim2_novikov.json"), fixture("dim2_rep.json"), fixture("dim2_shift_t.json")]
    assert run([*argv, "--lift"]) == (2, "")
    assert capsys.readouterr().err == "input error: --lift applies to pre_novikov flavor only\n"
    assert run(argv)[0] == 0  # the same operator, not lifted, passes


def _edited(tmp_path, name: str, *path) -> str:
    """A copy of the fixture ``name`` with the entry at ``path`` made the
    last item of ``path``."""
    doc = json.loads(Path(fixture(name)).read_text())
    *keys, last, value = path
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    out = tmp_path / name
    out.write_text(json.dumps(doc))
    return str(out)


def test_a_refused_lift_prints_both_reports(tmp_path, capsys):
    """``oper --lift`` with a rep that fails 4.19, 4.21 and 4.27 prints the
    operator report, which passes, then the rep report of the refusal,
    says why on stderr and exits 1."""
    rep = _edited(tmp_path, "dim2_pre_rep.json", "maps", "l_lhd", 0, 0, 0, "7")
    code, text = run(["oper", fixture("dim2_pre_novikov.json"), rep, fixture("dim2_shift_t.json"), "--lift"])
    assert (code, capsys.readouterr().err) == (1, "refused: not a pre-Novikov representation\n")
    assert text == (
        "PASS o_operator_pre_novikov\n"
        "  checked: Eq (4.29), Eq (4.30)\n"
        "FAIL pre_novikov_rep\n"
        "  checked: Eq (4.18), Eq (4.19), Eq (4.20), Eq (4.21), Eq (4.22), Eq (4.23), Eq (4.24), Eq (4.25), "
        "Eq (4.26), Eq (4.27)\n"
        "  Eq (4.19) violated at (e1,e1,v1): residual (-42, 0)\n"
        "  Eq (4.19) violated at (e1,e2,v1): residual (0, -6)\n"
        "  Eq (4.21) violated at (e1,e2,v1): residual (0, 6)\n"
        "  Eq (4.27) violated at (e1,e2,v1): residual (0, -6)\n"
    )


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_a_refused_double_prints_the_bialgebra_report(tmp_path, capsys, fmt):
    """``double`` of a bundle whose alpha breaks the coalgebra and the
    compatibility prints the failing bialgebra report, says why on stderr
    and exits 1."""
    bundle = _edited(tmp_path, "dim2_bialgebra.json", "alpha", 0, 0, 0, "5")
    code, text = run(["--format", fmt, "double", bundle])
    assert (code, capsys.readouterr().err) == (1, "double construction refused: not a pre-Novikov bialgebra\n")
    if fmt == "text":
        assert text.startswith("FAIL bialgebra\n  PASS pre_novikov\n") and text.count(" violated at ") == 27
    else:
        report = parse_report(text)
        assert (report.name, report.passed) == ("bialgebra", False)
        assert [(s.name, s.passed) for s in report.sections] == [
            ("pre_novikov", True), ("coalgebra", False), ("compatibility", False)]


def test_ybe_refuses_a_tensor_of_another_dimension(capsys):
    code, text = run(["ybe", fixture("dim2_pre_novikov.json"), fixture("dim4_ybe_solution.json")])
    assert (code, text, capsys.readouterr().err) == (2, "", "input error: tensor dimension does not match the algebra\n")


def test_parse_report_ignores_the_old_timing_field():
    doc = json.loads(render_report(Report(name="novikov", identities=("2.1",)), "machine"))
    assert parse_report(json.dumps({**doc, "seconds": 0.004})) == Report(name="novikov", identities=("2.1",))


DROP = object()  # delete the field instead of setting it

# Single-fault variants of each fixture kind and the message each must give.
PARSE_ERRORS = [
    ("dim2_novikov.json", ("dim",), DROP, "missing fields for kind 'novikov': ['dim']"),
    ("dim2_novikov.json", ("extra",), 1, "unknown fields for kind 'novikov': ['extra']"),
    ("dim2_novikov.json", ("dim",), 0, "dim: expected a positive integer"),
    ("dim2_novikov.json", ("product", 1), DROP, "product: expected a list of length 2"),
    ("dim2_novikov.json", ("product", 0, 0, 0), 0.5,
     "product[0][0][0]: scalar entries must be exact rationals, got 0.5"),
    ("dim2_novikov.json", ("product", 0, 0, 0), "1/0",
     "product[0][0][0]: bad rational '1/0' (zero denominator)"),
    ("dim2_novikov.json", ("basis",), ["e1"], "basis: expected 2 basis label strings"),
    ("dim2_novikov.json", ("product",), {}, "product: expected a list of length 2"),
    ("dim2_pre_novikov.json", ("rhd",), DROP, "missing fields for kind 'pre_novikov': ['rhd']"),
    ("dim2_pre_novikov.json", ("dim",), -1, "dim: expected a positive integer"),
    ("dim2_pre_novikov.json", ("lhd", 0, 1), ["1"], "lhd[0][1]: expected a list of length 2"),
    ("dim2_pre_novikov.json", ("rhd", 1, 1, 1), "x",
     "rhd[1][1][1]: bad rational 'x' (Invalid literal for Fraction: 'x')"),
    ("dim2_pre_novikov.json", ("dim",), True, "dim: expected a positive integer"),
    ("dim2_coalgebra.json", ("beta",), DROP, "missing fields for kind 'coalgebra': ['beta']"),
    ("dim2_coalgebra.json", ("dim",), 3, "alpha: expected a list of length 3"),
    ("dim2_coalgebra.json", ("alpha", 1, 1, 1), 1.5,
     "alpha[1][1][1]: scalar entries must be exact rationals, got 1.5"),
    ("dim2_coalgebra.json", ("basis",), ["e1", 2], "basis: expected 2 basis label strings"),
    ("dim2_bialgebra.json", ("alpha",), DROP, "missing fields for kind 'bialgebra': ['alpha']"),
    ("dim2_bialgebra.json", ("zz",), 1, "unknown fields for kind 'bialgebra': ['zz']"),
    ("dim2_bialgebra.json", ("beta", 0), DROP, "beta: expected a list of length 2"),
    ("dim2_bialgebra.json", ("lhd", 0, 0, 0), None,
     "lhd[0][0][0]: scalar entries must be strings or integers, got None"),
    ("dim2_double_qf.json", ("matrix",), DROP, "missing fields for kind 'form': ['matrix']"),
    ("dim2_double_qf.json", ("matrix", 3), DROP, "matrix: expected a list of length 4"),
    ("dim2_double_qf.json", ("matrix", 0, 0), 0.25,
     "matrix[0][0]: scalar entries must be exact rationals, got 0.25"),
    ("dim2_double_qf.json", ("dim",), "4", "dim: expected a positive integer"),
    ("dim4_ybe_solution.json", ("entries",), DROP, "missing fields for kind 'tensor2': ['entries']"),
    ("dim4_ybe_solution.json", ("entries", 0), ["1"], "entries[0]: expected a list of length 4"),
    ("dim4_ybe_solution.json", ("entries", 3, 3), "1/x",
     "entries[3][3]: bad rational '1/x' (Invalid literal for Fraction: '1/x')"),
    ("dim4_ybe_solution.json", ("basis",), ["a", "b", "c"], "basis: expected 4 basis label strings"),
    ("dim2_shift_t.json", ("rows",), 0, "rows: expected a positive integer"),
    ("dim2_shift_t.json", ("cols",), DROP, "missing fields for kind 'linmap': ['cols']"),
    ("dim2_shift_t.json", ("basis",), ["a", "b"], "unknown fields for kind 'linmap': ['basis']"),
    ("dim2_shift_t.json", ("entries", 1), ["1", "0", "0"], "entries[1]: expected a list of length 2"),
    ("dim2_shift_t.json", ("entries", 0, 0), 2.0,
     "entries[0][0]: scalar entries must be exact rationals, got 2.0"),
    ("dim2_rep.json", ("flavor",), DROP, "missing fields for kind 'rep': ['flavor']"),
    ("dim2_rep.json", ("flavor",), "lie", "flavor: expected 'novikov' or 'pre_novikov', got 'lie'"),
    ("dim2_rep.json", ("flavor",), 1, "flavor: expected 'novikov' or 'pre_novikov', got 1"),
    ("dim2_rep.json", ("flavor",), ["novikov"],
     "flavor: expected 'novikov' or 'pre_novikov', got ['novikov']"),
    ("dim2_rep.json", ("algebra_dim",), 0, "algebra_dim: expected a positive integer"),
    ("dim2_rep.json", ("module_dim",), DROP, "missing fields for kind 'rep': ['module_dim']"),
    ("dim2_rep.json", ("algebra",), [], "algebra: expected an object"),
    ("dim2_rep.json", ("algebra", "product"), DROP, "algebra: missing fields ['product']"),
    ("dim2_rep.json", ("algebra", "lhd"), [], "algebra: unknown fields ['lhd']"),
    ("dim2_rep.json", ("maps",), "l", "maps: expected an object"),
    ("dim2_rep.json", ("maps", "r"), DROP, "maps: missing fields ['r']"),
    ("dim2_rep.json", ("maps", "l_rhd"), [], "maps: unknown fields ['l_rhd']"),
    ("dim2_rep.json", ("maps", "l", 0), DROP, "maps.l: expected a list of length 2"),
    ("dim2_rep.json", ("algebra", "product", 0, 0, 0), 0.5,
     "algebra.product[0][0][0]: scalar entries must be exact rationals, got 0.5"),
    ("dim2_rep.json", ("module_basis",), ["v1"], "module_basis: expected 2 basis label strings"),
    ("dim2_rep.json", ("basis",), ["e1", "e2", "e3"], "basis: expected 2 basis label strings"),
    ("dim2_rep.json", ("t",), [], "unknown fields for kind 'rep': ['t']"),
    ("dim2_pre_rep.json", ("algebra",), None, "algebra: expected an object"),
    ("dim2_pre_rep.json", ("algebra", "rhd"), DROP, "algebra: missing fields ['rhd']"),
    ("dim2_pre_rep.json", ("algebra", "product"), [], "algebra: unknown fields ['product']"),
    ("dim2_pre_rep.json", ("maps",), [], "maps: expected an object"),
    ("dim2_pre_rep.json", ("maps", "r_lhd"), DROP, "maps: missing fields ['r_lhd']"),
    ("dim2_pre_rep.json", ("maps", "l"), [], "maps: unknown fields ['l']"),
    ("dim2_pre_rep.json", ("maps", "l_lhd", 1, 1), ["0"],
     "maps.l_lhd[1][1]: expected a list of length 2"),
    ("dim2_pre_rep.json", ("maps", "r_rhd", 0, 0, 0), "1/0",
     "maps.r_rhd[0][0][0]: bad rational '1/0' (zero denominator)"),
    ("dim2_pre_rep.json", ("flavor",), "novikov", "algebra: unknown fields ['lhd', 'rhd']"),
    ("dim2_pre_rep.json", ("module_basis",), ["v1", "v2", "v3"],
     "module_basis: expected 2 basis label strings"),
    ("dim2_o_operator.json", ("t",), DROP, "missing fields for kind 'o_operator': ['t']"),
    ("dim2_o_operator.json", ("t",), [["1", "0"]], "t: expected a list of length 2"),
    ("dim2_o_operator.json", ("t", 0), ["1"], "t[0]: expected a list of length 2"),
    ("dim2_o_operator.json", ("t", 1, 1), 0.5, "t[1][1]: scalar entries must be exact rationals, got 0.5"),
    ("dim2_o_operator.json", ("module_dim",), 1, "maps.l_lhd[0]: expected a list of length 1"),
    ("dim2_o_operator.json", ("flavor",), None, "flavor: expected 'novikov' or 'pre_novikov', got None"),
    ("dim2_o_operator.json", ("maps", "zz"), [], "maps: unknown fields ['zz']"),
    ("dim2_o_operator.json", ("extra",), 0, "unknown fields for kind 'o_operator': ['extra']"),
]


@pytest.mark.parametrize(
    "name,path,value,message",
    PARSE_ERRORS,
    ids=[f"{n[:-5]}:{'.'.join(map(str, p))}={'DROP' if v is DROP else v!r}" for n, p, v, _ in PARSE_ERRORS],
)
def test_parse_error_messages(name, path, value, message):
    doc = json.loads((FIXTURES / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(InputError) as info:
        parse_bundle(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("kind,shown", [([1], "[1]"), ({"a": 1}, "{'a': 1}")])
def test_cli_rejects_a_non_string_kind(tmp_path, capsys, kind, shown):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": kind}))
    assert run(["check", str(bad)])[0] == 2
    assert capsys.readouterr().err == f"input error: {bad}: kind: unknown bundle kind {shown}\n"


def test_scalar_rule_is_exact_decimal_or_p_q_strings():
    argv = ["search", fixture("dim2_pre_novikov.json")]
    code, halves = run(argv + ["--values=-1/2,0,1/2"])
    assert code == 0 and json.loads(halves)["count"] == 3
    assert run(argv + ["--values=-0.5,0,0.5,1/2"]) == (0, halves)
    doc = {"kind": "tensor2", "dim": 1, "entries": [["0.5"]]}
    assert parse_bundle(json.dumps(doc)) == parse_bundle(json.dumps({**doc, "entries": [["1/2"]]}))
    with pytest.raises(InputError, match="must be exact rationals, got 0.5"):
        parse_bundle(json.dumps({**doc, "entries": [[0.5]]}))


def test_a_zero_denominator_is_refused_by_name(capsys):
    """A value set or scalar with a zero denominator is refused as such,
    not with the repr of the Fraction that could not be made."""
    assert run(["search", fixture("dim2_pre_novikov.json"), "--values=0,1/0"]) == (2, "")
    assert capsys.readouterr().err == "input error: bad value set '0,1/0': zero denominator\n"
    with pytest.raises(ValueError, match="^zero denominator$"):
        core.rational("0/0")
    with pytest.raises(InputError, match="^not an exact scalar: '1/0'$"):
        core.frac("1/0")


def _relabeled(tmp_path, name, doc=None, **labels):
    """A fixture (or ``doc``) with its labels replaced, written under tmp_path."""
    doc = {**(doc or json.loads(Path(fixture(name)).read_text())), **labels}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_derive_reports_the_bundle_labels(tmp_path):
    """A failing rep reports the same witnesses, with the bundle's labels,
    under `derive` as under `check`."""
    doc = json.loads(Path(fixture("dim2_rep.json")).read_text())
    doc["maps"]["l"][0][0][0] = "5"
    path = _relabeled(tmp_path, "broken_rep.json", doc, basis=["x", "y"], module_basis=["u", "w"])
    for fmt in ("text", "machine"):
        checked = run(["--format", fmt, "check", path])
        assert checked[0] == 1
        assert run(["--format", fmt, "derive", path]) == checked
    assert "(x,y,u)" in run(["check", path])[1]


def test_cli_oper_lift_labels_the_algebra_basis(tmp_path):
    alg = _relabeled(tmp_path, "dim2_pre_novikov.json", basis=["x", "y"])
    rep = _relabeled(tmp_path, "dim2_pre_rep.json", basis=["x", "y"], module_basis=["u", "w"])
    code, text = run(["oper", alg, rep, fixture("dim2_shift_t.json"), "--lift"])
    assert code == 0
    decoder = json.JSONDecoder()
    starts = [m.start() for m in re.finditer(r"^\{", text, re.MULTILINE)]
    bundles = [parse_bundle(json.dumps(decoder.raw_decode(text, s)[0])) for s in starts]
    assert [b.kind for b in bundles] == ["pre_novikov", "tensor2"]
    for b in bundles:
        assert b.data["basis"] == ("x", "y", "u*", "w*")


def test_oversized_scalars_are_refused_before_they_are_expanded(tmp_path, capsys):
    """A scalar whose numerator or denominator passes Python's int-string
    digit limit (``core.MAX_DIGITS``, 4300) is an input error, whether it is
    written out, as a JSON integer, or through an exponent, which is refused
    before it is expanded: ``Fraction("1e4000000")`` alone takes seconds.
    (A digit string was refused by ``int`` already.)"""
    assert core.MAX_DIGITS == 4300
    text = Path(fixture("dim2_pre_novikov.json")).read_text()
    digits = "1" + "0" * 4999
    cases = {
        f'"{digits}"': f"lhd[0][0][0]: bad rational '{digits}' (Exceeds the limit (4300 digits) for integer "
                       "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit)",
        digits: "a JSON integer of more than 4300 digits",
        '"1e999999999"': "lhd[0][0][0]: bad rational '1e999999999' (more than 4300 digits once its exponent is expanded)",
    }
    for k, (entry, message) in enumerate(cases.items()):
        path = tmp_path / f"big{k}.json"
        path.write_text(text.replace('"1"', entry, 1))
        assert run(["check", str(path)]) == (2, "")
        assert capsys.readouterr().err == f"input error: {path}: {message}\n"
    report = json.loads(render_report(Report("r", ("2.8",)), "machine"))
    report["violations"] = [{"identity": "2.8", "witness_index": [10**4000], "witness": ["e1"], "residual": ["1"]}]
    with pytest.raises(InputError, match="^a JSON integer of more than 4300 digits$"):
        parse_report(json.dumps(report).replace("1" + "0" * 4000, "1" + "0" * 5000))
    argv = ["search", fixture("dim2_pre_novikov.json")]
    for values in ("0,1e5000", "0,1e-4300", "1e4000000"):
        assert run(argv + [f"--values={values}"]) == (2, "")
        assert capsys.readouterr().err == (
            f"input error: bad value set {values!r}: more than 4300 digits once its exponent is expanded\n")
    for bad in ("1e4000000", "1e" + "9" * 5000):
        with pytest.raises(InputError, match="not an exact scalar"):
            core.frac(bad)
    assert core.frac("1e4299") == 10**4299 and core.frac("-25e-2") == Fraction(-1, 4)


def test_residuals_past_the_digit_limit_are_written_exactly(tmp_path):
    """Entries within the limit can give residuals past it, which every
    writer prints in full: ``fraction_texts`` does not go through ``str``."""
    doc = json.loads(Path(fixture("dim2_pre_novikov.json")).read_text())
    doc["lhd"][0][1][1], doc["rhd"][1][0][0], doc["lhd"][1][1][0] = "1e3000", "1e3000", "2e3000"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    # 2.8 at (e1,e2,e1), first coordinate: 10**3000 - 10**6000
    residual = "-" + "9" * 3000 + "0" * 3000
    code, text = run(["check", str(path)])
    assert code == 1 and f"Eq (2.8) violated at (e1,e2,e1): residual ({residual}, 0)\n" in text
    code, machine = run(["--format", "machine", "check", str(path)])
    assert code == 1 and parse_report(machine).violations[0].residual == (residual, "0")
    assert run(["derive", str(path)]) == (1, text)
    assert core.fraction_texts([10**5000 + 1, -(10**5000)], 10**4500) == {
        10**5000 + 1: "1" + "0" * 4999 + "1/1" + "0" * 4500, -(10**5000): "-1" + "0" * 500}
