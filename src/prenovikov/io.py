"""Bundle files and report rendering.

A bundle is a JSON document with a ``kind`` field and rational entries written
as strings ("1/2", "-3"); plain JSON integers are accepted on input, floats
never are.  Parsing is strict: unknown fields and shape mismatches are
rejected with the offending path, syntax errors with line and column.
Serialization is canonical (sorted keys, reduced fractions, two-space indent,
trailing newline), so parse-serialize round trips are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .algebras import FormMatrix, NovikovAlgebra, PreNovikovAlgebra
from .bialgebra import PreNovikovBialgebra, PreNovikovCoalgebra
from .core import InputError, StructureConstants, Tensor2, scalar_str
from .labels import render_identity
from .report import Report, Violation
from .representations import NovikovRep, PreNovikovRep

# kind -> (required fields, optional fields)
SCHEMAS = {
    "novikov": ({"dim", "product"}, {"basis"}),
    "pre_novikov": ({"dim", "lhd", "rhd"}, {"basis"}),
    "coalgebra": ({"dim", "alpha", "beta"}, {"basis"}),
    "bialgebra": ({"dim", "lhd", "rhd", "alpha", "beta"}, {"basis"}),
    "rep": ({"flavor", "algebra_dim", "module_dim", "algebra", "maps"}, {"basis", "module_basis"}),
    "form": ({"dim", "product", "matrix"}, {"basis"}),
    "tensor2": ({"dim", "entries"}, {"basis"}),
    "linmap": ({"rows", "cols", "entries"}, set()),
    "o_operator": (
        {"flavor", "algebra_dim", "module_dim", "algebra", "maps", "t"},
        {"basis", "module_basis"},
    ),
}


@dataclass(frozen=True)
class Bundle:
    kind: str
    data: dict


def _scalar(value: Any, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{path}: scalar entries must be exact rationals, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}: bad rational {value!r} ({exc})") from None
    raise InputError(f"{path}: scalar entries must be strings or integers, got {value!r}")


def _array(value: Any, shape: tuple[int, ...], path: str):
    if not shape:
        return _scalar(value, path)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise InputError(f"{path}: expected a list of length {shape[0]}")
    return tuple(_array(v, shape[1:], f"{path}[{i}]") for i, v in enumerate(value))


def _positive_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise InputError(f"{path}: expected a positive integer")
    return value


def _basis(value: Any, n: int, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or len(value) != n or not all(isinstance(x, str) for x in value):
        raise InputError(f"{path}: expected {n} basis label strings")
    return tuple(value)


def _parse_algebra_tables(obj: Any, flavor: str, n: int, path: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    want = {"product"} if flavor == "novikov" else {"lhd", "rhd"}
    extra = set(obj) - want
    if extra:
        raise InputError(f"{path}: unknown fields {sorted(extra)}")
    missing = want - set(obj)
    if missing:
        raise InputError(f"{path}: missing fields {sorted(missing)}")
    return {k: _array(obj[k], (n, n, n), f"{path}.{k}") for k in sorted(want)}


_REP_MAP_NAMES = {"novikov": ("l", "r"), "pre_novikov": ("l_rhd", "r_rhd", "l_lhd", "r_lhd")}


def _parse_maps(obj: Any, flavor: str, n: int, m: int, path: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    want = set(_REP_MAP_NAMES[flavor])
    extra = set(obj) - want
    if extra:
        raise InputError(f"{path}: unknown fields {sorted(extra)}")
    missing = want - set(obj)
    if missing:
        raise InputError(f"{path}: missing fields {sorted(missing)}")
    return {k: _array(obj[k], (n, m, m), f"{path}.{k}") for k in sorted(want)}


def parse_bundle(text: str) -> Bundle:
    """Strict parse of a bundle document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise InputError("bundle must be a JSON object")
    kind = raw.get("kind")
    if kind not in SCHEMAS:
        raise InputError(f"kind: unknown bundle kind {kind!r}")
    required, optional = SCHEMAS[kind]
    fields = set(raw) - {"kind"}
    extra = fields - required - optional
    if extra:
        raise InputError(f"unknown fields for kind {kind!r}: {sorted(extra)}")
    missing = required - fields
    if missing:
        raise InputError(f"missing fields for kind {kind!r}: {sorted(missing)}")

    data: dict[str, Any] = {}
    if kind in ("novikov", "pre_novikov", "coalgebra", "bialgebra", "form", "tensor2"):
        n = _positive_int(raw["dim"], "dim")
        data["dim"] = n
        table_fields = {
            "novikov": ["product"],
            "pre_novikov": ["lhd", "rhd"],
            "coalgebra": ["alpha", "beta"],
            "bialgebra": ["lhd", "rhd", "alpha", "beta"],
            "form": ["product"],
            "tensor2": [],
        }[kind]
        for f in table_fields:
            data[f] = _array(raw[f], (n, n, n), f)
        if kind == "form":
            data["matrix"] = _array(raw["matrix"], (n, n), "matrix")
        if kind == "tensor2":
            data["entries"] = _array(raw["entries"], (n, n), "entries")
        if "basis" in raw:
            data["basis"] = _basis(raw["basis"], n, "basis")
    elif kind == "linmap":
        rows = _positive_int(raw["rows"], "rows")
        cols = _positive_int(raw["cols"], "cols")
        data.update(rows=rows, cols=cols, entries=_array(raw["entries"], (rows, cols), "entries"))
    else:  # rep / o_operator
        flavor = raw.get("flavor")
        if flavor not in ("novikov", "pre_novikov"):
            raise InputError(f"flavor: expected 'novikov' or 'pre_novikov', got {flavor!r}")
        n = _positive_int(raw["algebra_dim"], "algebra_dim")
        m = _positive_int(raw["module_dim"], "module_dim")
        data.update(flavor=flavor, algebra_dim=n, module_dim=m)
        data["algebra"] = _parse_algebra_tables(raw["algebra"], flavor, n, "algebra")
        data["maps"] = _parse_maps(raw["maps"], flavor, n, m, "maps")
        if kind == "o_operator":
            data["t"] = _array(raw["t"], (n, m), "t")
        if "basis" in raw:
            data["basis"] = _basis(raw["basis"], n, "basis")
        if "module_basis" in raw:
            data["module_basis"] = _basis(raw["module_basis"], m, "module_basis")
    return Bundle(kind, data)


def _encode(value: Any) -> Any:
    if isinstance(value, Fraction):
        return scalar_str(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in sorted(value.items())}
    return value


def serialize_bundle(bundle: Bundle) -> str:
    """Canonical serialization: sorted keys, reduced fractions, stable layout."""
    doc = {"kind": bundle.kind}
    doc.update({k: _encode(v) for k, v in bundle.data.items()})
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# bundle <-> library objects
# ---------------------------------------------------------------------------

def _sc(table, n) -> StructureConstants:
    return StructureConstants(n, table)


def bundle_to_objects(bundle: Bundle):
    """Interpret a bundle as library objects.

    Returns, per kind: novikov -> NovikovAlgebra; pre_novikov ->
    PreNovikovAlgebra; coalgebra -> PreNovikovCoalgebra; bialgebra ->
    PreNovikovBialgebra; form -> (NovikovAlgebra, FormMatrix); tensor2 ->
    rank-2 tuple; linmap -> matrix; rep -> (algebra, rep); o_operator ->
    (algebra, rep, matrix).
    """
    d = bundle.data
    kind = bundle.kind
    if kind == "novikov":
        return NovikovAlgebra(_sc(d["product"], d["dim"]))
    if kind == "pre_novikov":
        return PreNovikovAlgebra(_sc(d["lhd"], d["dim"]), _sc(d["rhd"], d["dim"]))
    if kind == "coalgebra":
        return PreNovikovCoalgebra(d["dim"], d["alpha"], d["beta"])
    if kind == "bialgebra":
        alg = PreNovikovAlgebra(_sc(d["lhd"], d["dim"]), _sc(d["rhd"], d["dim"]))
        co = PreNovikovCoalgebra(d["dim"], d["alpha"], d["beta"])
        return PreNovikovBialgebra(alg, co)
    if kind == "form":
        return NovikovAlgebra(_sc(d["product"], d["dim"])), FormMatrix(d["dim"], d["matrix"])
    if kind == "tensor2":
        return d["entries"]
    if kind == "linmap":
        return d["entries"]
    if kind in ("rep", "o_operator"):
        n = d["algebra_dim"]
        if d["flavor"] == "novikov":
            alg = NovikovAlgebra(_sc(d["algebra"]["product"], n))
            rep = NovikovRep(alg, d["maps"]["l"], d["maps"]["r"])
        else:
            alg = PreNovikovAlgebra(_sc(d["algebra"]["lhd"], n), _sc(d["algebra"]["rhd"], n))
            rep = PreNovikovRep(
                alg, d["maps"]["l_rhd"], d["maps"]["r_rhd"], d["maps"]["l_lhd"], d["maps"]["r_lhd"]
            )
        if kind == "rep":
            return alg, rep
        return alg, rep, d["t"]
    raise InputError(f"unsupported kind {kind!r}")


def novikov_bundle(alg: NovikovAlgebra, basis=None) -> Bundle:
    data = {"dim": alg.dim, "product": alg.op.c}
    if basis:
        data["basis"] = tuple(basis)
    return Bundle("novikov", data)


def pre_novikov_bundle(alg: PreNovikovAlgebra, basis=None) -> Bundle:
    data = {"dim": alg.dim, "lhd": alg.lhd.c, "rhd": alg.rhd.c}
    if basis:
        data["basis"] = tuple(basis)
    return Bundle("pre_novikov", data)


def coalgebra_bundle(co: PreNovikovCoalgebra, basis=None) -> Bundle:
    data = {"dim": co.dim, "alpha": co.alpha, "beta": co.beta}
    if basis:
        data["basis"] = tuple(basis)
    return Bundle("coalgebra", data)


def form_bundle(op: StructureConstants, w: FormMatrix, basis=None) -> Bundle:
    data = {"dim": op.dim, "product": op.c, "matrix": w.w}
    if basis:
        data["basis"] = tuple(basis)
    return Bundle("form", data)


def tensor2_bundle(entries: Tensor2, basis=None) -> Bundle:
    data = {"dim": len(entries), "entries": tuple(tuple(row) for row in entries)}
    if basis:
        data["basis"] = tuple(basis)
    return Bundle("tensor2", data)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def render_report(report: Report, fmt: str = "text") -> str:
    if fmt == "machine":
        return json.dumps(_report_doc(report), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise InputError(f"format must be 'text' or 'machine', got {fmt!r}")
    return "\n".join(_report_lines(report, 0)) + "\n"


def _report_lines(report: Report, depth: int) -> list[str]:
    pad = "  " * depth
    verdict = "PASS" if report.passed else "FAIL"
    lines = [f"{pad}{verdict} {report.name}"]
    if report.identities:
        lines.append(pad + "  checked: " + ", ".join(render_identity(i) for i in report.identities))
    for v in report.violations:
        witness = ",".join(v.witness)
        residual = ", ".join(v.residual)
        lines.append(f"{pad}  {render_identity(v.identity)} violated at ({witness}): residual ({residual})")
    for section in report.sections:
        lines.extend(_report_lines(section, depth + 1))
    return lines


def _report_doc(report: Report) -> dict:
    return {
        "kind": "report",
        "name": report.name,
        "verdict": "pass" if report.passed else "fail",
        "identities": list(report.identities),
        "violations": [
            {
                "identity": v.identity,
                "witness_index": list(v.witness_index),
                "witness": list(v.witness),
                "residual": list(v.residual),
            }
            for v in report.violations
        ],
        "sections": [_report_doc(s) for s in report.sections],
    }


def parse_report(text: str) -> Report:
    """Inverse of the machine rendering.  The ``seconds`` field that older
    renderings carried is ignored."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return _report_from_doc(raw)


def _report_from_doc(raw: Any) -> Report:
    if not isinstance(raw, dict) or raw.get("kind") != "report":
        raise InputError("not a machine report document")
    violations = tuple(
        Violation(
            identity=v["identity"],
            witness_index=tuple(v["witness_index"]),
            witness=tuple(v["witness"]),
            residual=tuple(v["residual"]),
        )
        for v in raw.get("violations", [])
    )
    report = Report(
        name=raw.get("name", ""),
        identities=tuple(raw.get("identities", [])),
        violations=violations,
        sections=tuple(_report_from_doc(s) for s in raw.get("sections", [])),
    )
    verdict = raw.get("verdict")
    if verdict not in ("pass", "fail") or (verdict == "pass") != report.passed:
        raise InputError("report verdict does not match its violation list")
    return report
