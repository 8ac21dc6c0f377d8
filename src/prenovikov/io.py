"""Bundle files and report rendering.

A bundle is a JSON document with a ``kind`` field and rational entries written
as exact decimal or p/q strings ("1/2", "-3", "0.5"); plain JSON integers are
accepted on input, floats never are.  ``KINDS`` and ``FLAVORS`` are the one
place the format is declared: each kind's fields, sizes and array shapes, and
each flavor's algebra tables and map families.  Parsing is strict: unknown
fields and shape mismatches are rejected with the offending path, syntax
errors with line and column.  Serialization is canonical (sorted keys, reduced
fractions, two-space indent, trailing newline), so parse-serialize round trips
are byte-identical.  ``dumps`` writes every document but reports, from the
``Exact`` arrays as the package holds them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import prod
from typing import Any

from .algebras import FormMatrix, NovikovAlgebra, PreNovikovAlgebra
from .bialgebra import PreNovikovBialgebra, PreNovikovCoalgebra
from .core import MAX_DIGITS, Exact, InputError, StructureConstants, fraction_texts, rational, rationals
from .labels import IDENTITIES, render_identity
from .report import Report, Violation
from .representations import NovikovRep, PreNovikovRep

# The bundle format.  Each kind lists its fields in parse order.  A one-letter
# spec is a size: a positive integer that later shapes use.  A longer spec is
# the shape of a rational array over those sizes ("nmm" is n x m x m).  A None
# spec is set by the flavor: "flavor" names a row of FLAVORS, which gives the
# arrays of the "algebra" and "maps" objects.  Every kind with size n may carry
# "basis" (n labels), and every kind with size m "module_basis" (m labels).
_REP = {"flavor": None, "algebra_dim": "n", "module_dim": "m", "algebra": None, "maps": None}
KINDS = {
    "novikov": {"dim": "n", "product": "nnn"},
    "pre_novikov": {"dim": "n", "lhd": "nnn", "rhd": "nnn"},
    "coalgebra": {"dim": "n", "alpha": "nnn", "beta": "nnn"},
    "bialgebra": {"dim": "n", "lhd": "nnn", "rhd": "nnn", "alpha": "nnn", "beta": "nnn"},
    "form": {"dim": "n", "product": "nnn", "matrix": "nn"},
    "tensor2": {"dim": "n", "entries": "nn"},
    "linmap": {"rows": "r", "cols": "c", "entries": "rc"},
    "rep": _REP,
    "o_operator": {**_REP, "t": "nm"},
}
_LABELS = {"basis": "n", "module_basis": "m"}

# flavor -> its "algebra" tables (those of the algebra kind of the same name)
# and its "maps" families, which are also the attribute names of its "rep"
# class (each group lists its fields sorted, which is their parse order)
FLAVORS = {
    "novikov": {"algebra": {"product": "nnn"}, "maps": {"l": "nmm", "r": "nmm"}, "rep": NovikovRep},
    "pre_novikov": {"algebra": {"lhd": "nnn", "rhd": "nnn"},
                    "maps": {"l_lhd": "nmm", "l_rhd": "nmm", "r_lhd": "nmm", "r_rhd": "nmm"}, "rep": PreNovikovRep},
}


@dataclass(frozen=True)
class Bundle:
    kind: str
    data: dict


def _locate(value: Any, shape: tuple[int, ...], path: str) -> None:
    """Walk an array depth first and raise at its first bad list or entry,
    with its path."""
    if shape:
        if not isinstance(value, list) or len(value) != shape[0]:
            raise InputError(f"{path}: expected a list of length {shape[0]}")
        for i, v in enumerate(value):
            _locate(v, shape[1:], f"{path}[{i}]")
    elif isinstance(value, (bool, float)):
        raise InputError(f"{path}: scalar entries must be exact rationals, got {value!r}")
    elif isinstance(value, str):
        try:
            rational(value)
        except ValueError as exc:
            raise InputError(f"{path}: bad rational {value!r} ({exc})") from None
    elif not isinstance(value, int):
        raise InputError(f"{path}: scalar entries must be strings or integers, got {value!r}")


def _array(value: Any, shape: tuple[int, ...], path: str, memo: dict) -> Exact:
    """An array of ``shape`` as an ``Exact`` array.  Its lists are checked
    level by level and its entries parsed once per distinct string or int of
    the document (``memo``); a malformed array is walked again by ``_locate``,
    which names the offending path."""
    level = [value]
    try:
        for size in shape:
            if not all(type(v) is list and len(v) == size for v in level):
                raise ValueError
            level = [x for row in level for x in row]
        if not all(type(x) is str or type(x) is int for x in level):
            raise ValueError
        memo.update((x, rational(x) if type(x) is str else Fraction(x)) for x in set(level).difference(memo))
    except ValueError:
        _locate(value, shape, path)
    return rationals([memo[x] for x in level], shape)


def _check_names(obj: dict, required, allowed, problem: str) -> None:
    """Reject fields outside ``allowed``, then missing ``required`` ones;
    ``problem`` formats the message prefix from "unknown" or "missing"."""
    for word, names in (("unknown", set(obj) - set(allowed)), ("missing", set(required) - set(obj))):
        if names:
            raise InputError(problem.format(word) + str(sorted(names)))


def _parse_fields(raw: dict, specs: dict, prefix: str, sizes: dict, memo: dict) -> dict:
    """Parse the fields ``specs`` declares, in order, recording sizes."""
    data: dict[str, Any] = {}
    for name, spec in specs.items():
        value, path = raw[name], prefix + name
        if name == "flavor":
            flavor = FLAVORS.get(value) if isinstance(value, str) else None
            if flavor is None:
                raise InputError(f"flavor: expected {' or '.join(map(repr, FLAVORS))}, got {value!r}")
            data[name] = value
        elif spec is None:
            if not isinstance(value, dict):
                raise InputError(f"{path}: expected an object")
            group = flavor[name]
            _check_names(value, group, group, path + ": {} fields ")
            data[name] = _parse_fields(value, group, path + ".", sizes, memo)
        elif len(spec) == 1:
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise InputError(f"{path}: expected a positive integer")
            sizes[spec] = data[name] = value
        else:
            data[name] = _array(value, tuple(sizes[s] for s in spec), path, memo)
    return data


def _loads(text: str) -> Any:
    """A JSON document, or an ``InputError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # from int, which json.loads lets through
        raise InputError(f"a JSON integer of more than {MAX_DIGITS} digits") from None
    except RecursionError:
        raise InputError("nested deeper than the JSON parser allows") from None


def parse_bundle(text: str) -> Bundle:
    """Strict parse of a bundle document."""
    raw = _loads(text)
    if not isinstance(raw, dict):
        raise InputError("bundle must be a JSON object")
    kind = raw.get("kind")
    specs = KINDS.get(kind) if isinstance(kind, str) else None
    if specs is None:
        raise InputError(f"kind: unknown bundle kind {kind!r}")
    labels = [name for name, size in _LABELS.items() if size in specs.values()]
    _check_names(raw, specs, [*specs, *labels, "kind"], f"{{}} fields for kind {kind!r}: ")
    sizes: dict[str, int] = {}
    data = _parse_fields(raw, specs, "", sizes, {})
    for name in labels:
        if name in raw:
            value, n = raw[name], sizes[_LABELS[name]]
            if not isinstance(value, list) or len(value) != n or not all(isinstance(x, str) for x in value):
                raise InputError(f"{name}: expected {n} basis label strings")
            data[name] = tuple(value)
    return Bundle(kind, data)


def _json_list(items, pad: str, ends: str = "[]") -> str:
    """JSON texts as a list (an object, with ``ends`` "{}", when they are its
    ``"key": value`` texts) laid out at indent ``pad``: the one layout rule."""
    body = ("," + pad + "  ").join(items)
    return f"{ends[0]}{pad}  {body}{pad}{ends[1]}" if body else ends


def dumps(doc: Any) -> str:
    """Canonical JSON text: byte for byte ``json.dumps(doc, sort_keys=True,
    indent=2)`` of ``doc`` with each ``Exact`` array written as nested lists
    of its reduced fraction strings and each ``Fraction`` as its string."""
    return _json(doc, "\n")


def _json(value: Any, pad: str) -> str:
    """``value`` as JSON text at indent ``pad``."""
    if isinstance(value, Exact):
        return _exact_json(value, pad)
    inner = pad + "  "
    if isinstance(value, dict):
        return _json_list((f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())),
                          pad, "{}")
    if isinstance(value, (list, tuple)):
        return _json_list((_json(v, inner) for v in value), pad)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, Fraction):
        return f'"{value}"'
    return json.dumps(value)  # null, booleans and numbers


def _exact_json(array: Exact, pad: str) -> str:
    """An ``Exact`` array as nested JSON lists of its fraction strings, one
    string per distinct value, its rows joined axis by axis."""
    ints = array.num.ravel().tolist()
    quoted = {x: f'"{text}"' for x, text in fraction_texts(ints, array.den).items()}
    level = [quoted[x] for x in ints]
    for axis in reversed(range(array.num.ndim)):
        size, inner = array.shape[axis], pad + "  " * axis
        level = [_json_list(level[k * size : (k + 1) * size], inner) for k in range(prod(array.shape[:axis]))]
    return level[0]


def bundle_doc(bundle: Bundle) -> dict:
    """A bundle as the document ``dumps`` writes, its arrays as they are held."""
    return {"kind": bundle.kind, **bundle.data}


def serialize_bundle(bundle: Bundle) -> str:
    """Canonical serialization: sorted keys, reduced fractions, stable layout."""
    return dumps(bundle_doc(bundle)) + "\n"


def make_bundle(kind: str, basis=None, **data) -> Bundle:
    """A bundle of ``kind`` from its fields, with basis labels when given."""
    if basis:
        data["basis"] = tuple(basis)
    return Bundle(kind, data)


def pre_novikov_bundle(alg: PreNovikovAlgebra, basis=None) -> Bundle:
    return make_bundle("pre_novikov", basis, dim=alg.dim, lhd=alg.lhd.table, rhd=alg.rhd.table)


# ---------------------------------------------------------------------------
# bundle <-> library objects
# ---------------------------------------------------------------------------

def bundle_to_objects(bundle: Bundle):
    """Interpret a bundle as library objects.

    Returns, per kind: novikov -> NovikovAlgebra; pre_novikov ->
    PreNovikovAlgebra; coalgebra -> PreNovikovCoalgebra; bialgebra ->
    PreNovikovBialgebra; form -> (NovikovAlgebra, FormMatrix); tensor2 ->
    rank-2 tuple; linmap -> matrix; rep -> (algebra, rep); o_operator ->
    (algebra, rep, matrix).  The bundle's ``Exact`` arrays become the
    objects' tables, without a copy.
    """
    d = bundle.data
    kind = bundle.kind
    if kind == "novikov":
        return NovikovAlgebra(StructureConstants(d["dim"], d["product"]))
    if kind == "pre_novikov":
        n = d["dim"]
        return PreNovikovAlgebra(StructureConstants(n, d["lhd"]), StructureConstants(n, d["rhd"]))
    if kind == "coalgebra":
        return PreNovikovCoalgebra(d["dim"], d["alpha"], d["beta"])
    if kind == "bialgebra":
        return PreNovikovBialgebra(bundle_to_objects(Bundle("pre_novikov", d)),
                                   bundle_to_objects(Bundle("coalgebra", d)))
    if kind == "form":
        return bundle_to_objects(Bundle("novikov", d)), FormMatrix(d["dim"], d["matrix"])
    if kind in ("tensor2", "linmap"):
        return d["entries"].nested
    if kind not in ("rep", "o_operator"):
        raise InputError(f"unsupported kind {kind!r}")
    alg = bundle_to_objects(Bundle(d["flavor"], {"dim": d["algebra_dim"], **d["algebra"]}))
    rep = FLAVORS[d["flavor"]]["rep"](alg, **d["maps"])
    return (alg, rep) if kind == "rep" else (alg, rep, d["t"].nested)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def render_report(report: Report, fmt: str = "text") -> str:
    """A report as text or as its machine document, written from its entries."""
    if fmt == "machine":
        return _report_json(report, "\n") + "\n"
    if fmt != "text":
        raise InputError(f"format must be 'text' or 'machine', got {fmt!r}")
    return "\n".join(_report_lines(report, "", [])) + "\n"


def _report_lines(report: Report, pad: str, lines: list) -> list[str]:
    lines.append(f"{pad}{'PASS' if report.passed else 'FAIL'} {report.name}")
    if report.identities:
        lines.append(pad + "  checked: " + ", ".join(map(render_identity, report.identities)))
    for code, _, witness, residual in report.entries:
        lines.append(f"{pad}  {render_identity(code)} violated at ({','.join(witness)}): "
                     f"residual ({', '.join(residual)})")
    for section in report.sections:
        _report_lines(section, pad + "  ", lines)
    return lines


def _report_json(report: Report, pad: str) -> str:
    """The report's document as ``dumps`` writes it at indent ``pad``, keys sorted."""
    p1, p2, p3, esc = pad + "  ", pad + "    ", pad + "      ", encode_basestring_ascii
    violations = (f'{{{p3}"identity": {esc(code)},{p3}"residual": {_json_list(map(esc, residual), p3)},'
                  f'{p3}"witness": {_json_list(map(esc, witness), p3)},'
                  f'{p3}"witness_index": {_json_list(map(str, index), p3)}{p2}}}'
                  for code, index, witness, residual in report.entries)
    sections = (_report_json(s, p2) for s in report.sections)
    return (f'{{{p1}"identities": {_json_list(map(esc, report.identities), p1)},{p1}"kind": "report",'
            f'{p1}"name": {esc(report.name)},{p1}"sections": {_json_list(sections, p1)},'
            f'{p1}"verdict": "{"pass" if report.passed else "fail"}",'
            f'{p1}"violations": {_json_list(violations, p1)}{pad}}}')


def parse_report(text: str) -> Report:
    """Inverse of the machine rendering.  The ``seconds`` field that older
    renderings carried is ignored."""
    raw = _loads(text)
    try:
        return _report_from_doc(raw)
    except RecursionError:
        raise InputError("sections nested deeper than the report parser allows") from None


# the fields of a report document and of one of its violations -> their JSON
# type and, for a list, its items' type
_REPORT = {"name": (str, None), "identities": (list, str), "violations": (list, dict), "sections": (list, dict)}
_VIOLATION = {"identity": (str, None), "witness_index": (list, int), "witness": (list, str), "residual": (list, str)}


def _fields(raw: dict, fields: dict, what: str) -> list:
    """The values of ``fields`` in ``raw``: a missing one is refused, as is
    one without its type (an int is not a bool); other fields are ignored."""
    _check_names(raw, fields, raw, what + ": {} fields ")
    for name, (kind, item) in fields.items():
        value = raw[name]
        if type(value) is not kind or (item and not all(type(x) is item for x in value)):
            expected = f"a list of {item.__name__}" if item else kind.__name__
            raise InputError(f"{name}: expected {expected}, got {value!r}")
    return [raw[name] for name in fields]


def _report_from_doc(raw: Any) -> Report:
    if not isinstance(raw, dict) or raw.get("kind") != "report":
        raise InputError("not a machine report document")
    name, identities, violations, sections = _fields(raw, _REPORT, "report")
    violations = tuple(Violation(code, *map(tuple, lists))
                       for code, *lists in (_fields(v, _VIOLATION, "report violation") for v in violations))
    for field, code in [*(("identities", c) for c in identities), *(("identity", v.identity) for v in violations)]:
        if code not in IDENTITIES:
            raise InputError(f"{field}: expected an identity code of labels.IDENTITIES, got {code!r}")
    report = Report(name, tuple(identities), violations, tuple(map(_report_from_doc, sections)))
    verdict = raw.get("verdict")
    if verdict not in ("pass", "fail") or (verdict == "pass") != report.passed:
        raise InputError("report verdict does not match its violation list")
    return report
