"""Command-line surface.

Exit codes: 0 = pass/success, 1 = verdict failure, 2 = input error.
All diagnostics go to stderr; results and reports go to stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import labels
from .algebras import check_novikov, check_pre_novikov, check_quasi_frobenius
from .bialgebra import check_bialgebra, check_coalgebra
from .core import Exact, InputError, RefusalError, fit_letters, fraction_texts, rational
from .io import (
    FLAVORS,
    Bundle,
    bundle_doc,
    bundle_to_objects,
    dumps,
    make_bundle,
    parse_bundle,
    pre_novikov_bundle,
    render_report,
    serialize_bundle,
)
from .matched_double import double_from_bialgebra
from .report import default_labels
from .representations import NovikovRep, _derive, _dual_of, _dual_stage, check_novikov_rep, check_pre_novikov_rep
from .yang_baxter import (
    _coboundary,
    _operator_lift,
    _search_hits,
    _ybe_stage,
    check_o_operator_novikov,
    check_o_operator_pre_novikov,
    coboundary_diagnostics,
)

# per flavor (``io.FLAVORS`` holds its format): the rep check and the operator check
_REP_CHECK = {"novikov": check_novikov_rep, "pre_novikov": check_pre_novikov_rep}
_OPERATOR_CHECK = {"novikov": check_o_operator_novikov, "pre_novikov": check_o_operator_pre_novikov}


def _kind_error(path: str, command: str, kinds: tuple, kind: str) -> InputError:
    return InputError(f"{path}: {command} expects a {' or '.join(kinds)} bundle, got {kind!r}")


def _load(path: str, command: str, kinds: tuple) -> Bundle:
    """The bundle at ``path``, refused unless ``command`` reads its kind there."""
    try:
        bundle = parse_bundle(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from None
    if bundle.kind not in kinds:
        raise _kind_error(path, command, kinds, bundle.kind)
    return bundle


def _algebra_and_tensor(alg_bundle: Bundle, r_bundle: Bundle) -> tuple:
    """The algebra and the tensor r, as its ``Exact`` array, of their bundles."""
    alg, r = bundle_to_objects(alg_bundle), r_bundle.data["entries"]
    if r.shape[0] != alg.dim:
        raise InputError("tensor dimension does not match the algebra")
    return alg, r


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


# kind -> its verifier, on the bundle's library objects and its data; these are the kinds ``check`` reads
_VERIFIERS = {
    "novikov": lambda obj, d: check_novikov(obj.op, basis=d.get("basis")),
    "pre_novikov": lambda obj, d: check_pre_novikov(obj.lhd, obj.rhd, basis=d.get("basis")),
    "coalgebra": lambda obj, d: check_coalgebra(obj, basis=d.get("basis")),
    "bialgebra": lambda obj, d: check_bialgebra(obj.algebra, obj.coalgebra, basis=d.get("basis")),
    "form": lambda obj, d: check_quasi_frobenius(obj[0].op, obj[1], basis=d.get("basis")),
    "rep": lambda obj, d: _REP_CHECK[d["flavor"]](*obj, basis=d.get("basis"), module_basis=d.get("module_basis")),
    "o_operator": lambda obj, d: _OPERATOR_CHECK[d["flavor"]](*obj, d["t"], module_basis=d.get("module_basis")),
}


def _cmd_check(args, out, bundle: Bundle) -> int:
    obj = bundle_to_objects(Bundle("rep", bundle.data) if bundle.kind == "o_operator" else bundle)  # t stays unboxed
    report = _VERIFIERS[bundle.kind](obj, bundle.data)
    _emit(out, render_report(report, args.format))
    return 0 if report.passed else 1


def _cmd_derive(args, out, bundle: Bundle) -> int:
    obj, basis = bundle_to_objects(bundle), bundle.data.get("basis")
    if bundle.kind == "rep":
        report, dual = _dual_stage(*obj, basis, bundle.data.get("module_basis"))
        parts = report.passed and {"dual_rep": _maps_doc(_dual_of(obj[1].certified(), dual))}
    else:
        report, parts = _derive(obj, basis)
        nov = parts["associated"]
        parts = {"associated": bundle_doc(make_bundle("novikov", basis, dim=nov.dim, product=nov.op.table)),
                 **{name: value if isinstance(value, Exact) else _maps_doc(value)
                    for name, value in parts.items() if name != "associated"}}
    if not report.passed:
        _emit(out, render_report(report, args.format))
        return 1
    _emit(out, dumps({"kind": "derived", "parts": parts}))
    return 0


def _maps_doc(rep) -> dict:
    """The rep's map families by field name, as the ``Exact`` arrays it holds."""
    flavor = "novikov" if isinstance(rep, NovikovRep) else "pre_novikov"
    return {name: rep.tables[vars(type(rep))[name].key] for name in FLAVORS[flavor]["maps"]}


def _cmd_double(args, out, bundle: Bundle) -> int:
    try:
        double = double_from_bialgebra(bundle_to_objects(bundle), basis=bundle.data.get("basis"))
    except RefusalError as exc:
        if exc.report is not None:
            _emit(out, render_report(exc.report, args.format))
        print(f"double construction refused: {exc}", file=sys.stderr)
        return 1
    op = double.algebra.op
    _emit(out, serialize_bundle(make_bundle("form", double.labels, dim=op.dim, product=op.table,
                                            matrix=double.form.tables["w"])))
    _emit(out, render_report(double.report.sections[-1], args.format))  # the quasi-Frobenius check
    return 0


def _cmd_coboundary(args, out, alg_bundle: Bundle, r_bundle: Bundle) -> int:
    alg, r = _algebra_and_tensor(alg_bundle, r_bundle)
    bi = _coboundary(alg, r, basis=alg_bundle.data.get("basis"))
    _emit(out, serialize_bundle(make_bundle("coalgebra", alg_bundle.data.get("basis"), dim=alg.dim,
                                            alpha=bi.values["al"], beta=bi.values["be"])))
    symmetric = r.T == r
    residual_zero = not bi.values[labels.YBE].num.any()
    _emit(out, render_report(bi, args.format))
    _emit(out, f"symmetric: {'yes' if symmetric else 'no'}")
    _emit(out, f"residual zero: {'yes' if residual_zero else 'no'}")
    return 0 if (symmetric and residual_zero and bi.passed) else 1


def _cmd_ybe(args, out, *bundles: Bundle) -> int:
    alg, r = _algebra_and_tensor(*bundles)
    stage = _ybe_stage(alg, r)
    residual = stage.values[labels.YBE]
    zero = not residual.num.any()
    # for a symmetric r, the verdicts of ``co2_equivalence``, from the same call
    verdicts = (zero, *(section.passed for section in stage.sections)) if r.T == r else None
    if args.format == "machine":
        doc = {"kind": "ybe", "residual_zero": zero, "residual": residual}
        if verdicts:
            doc["equivalent_verdicts"] = list(verdicts)
        _emit(out, dumps(doc))
    else:
        _emit(out, f"residual zero: {'yes' if zero else 'no'}")
        if not zero:  # the first 32 nonzero entries, in row-major order
            at = tuple(axis[:32] for axis in residual.num.nonzero())
            values = residual.num[at].tolist()
            text = fraction_texts(values, residual.den)
            _emit(out, "\n".join(f"  [{i},{j},{k}] = {text[v]}"
                                 for i, j, k, v in zip(*(a.tolist() for a in at), values)))
        _emit(out, "equivalent verdicts: residual={} novikov_operator={} pre_novikov_operator={}".format(*verdicts)
              if verdicts else "r is not symmetric; operator-form verdicts skipped")
    return 0 if zero else 1


def _cmd_oper(args, out, alg_bundle: Bundle, rep_bundle: Bundle, t_bundle: Bundle) -> int:
    rep_alg, rep = bundle_to_objects(rep_bundle)
    T = t_bundle.data["entries"]
    flavor = rep_bundle.data["flavor"]
    if alg_bundle.kind != flavor:  # the one kind that depends on another argument
        raise _kind_error(args.algebra, "oper", (flavor,), alg_bundle.kind)
    alg = bundle_to_objects(alg_bundle)
    if alg != rep_alg:
        raise InputError("rep bundle algebra differs from the algebra bundle")
    fit_letters("linmap", "nm", T.shape, {"n": alg.dim, "m": rep.module_dim})
    if args.lift and flavor == "novikov":
        raise InputError("--lift applies to pre_novikov flavor only")
    report = _OPERATOR_CHECK[flavor](alg, rep, T, module_basis=rep_bundle.data.get("module_basis"))
    _emit(out, render_report(report, args.format))
    if args.lift:
        semi, r = _operator_lift(alg, rep, T, report)
        lab = tuple(alg_bundle.data.get("basis") or default_labels(alg.dim)) + tuple(
            f"{x}*" for x in (rep_bundle.data.get("module_basis") or default_labels(rep.module_dim, "v"))
        )
        _emit(out, serialize_bundle(pre_novikov_bundle(semi, basis=lab)))
        _emit(out, serialize_bundle(make_bundle("tensor2", lab, dim=len(r), entries=r)))
        _emit(out, f"lifted residual zero: {'yes' if report.passed else 'no'}")
    return 0 if report.passed else 1


def _cmd_search(args, out, alg_bundle: Bundle) -> int:
    alg = bundle_to_objects(alg_bundle)
    try:
        values = [rational(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad value set {args.values!r}: {exc}") from None
    hits = _search_hits(alg, values, args.max_candidates)
    solutions = [bundle_doc(make_bundle("tensor2", dim=alg.dim, entries=Exact(r, hits.den))) for r in hits.num]
    _emit(out, dumps({"kind": "search_results", "dim": alg.dim, "count": len(solutions), "solutions": solutions}))
    return 0


def _cmd_diag(args, out, *bundles: Bundle) -> int:
    alg, r = _algebra_and_tensor(*bundles)
    diag = coboundary_diagnostics(alg, r)
    if args.format == "machine":
        groups = {"condition_residuals": labels.COBOUNDARY_CONDITIONS, "r_tensors": labels.R_TENSORS,
                  "equation_residuals": labels.COBOUNDARY_EQUATIONS}
        doc = {name: {key: diag.arrays[key] for key in keys} for name, keys in groups.items()}
        _emit(out, dumps({"kind": "diagnostics", **doc}))
    else:
        _emit(out, f"operator conditions all zero: {'yes' if diag.conditions_zero() else 'no'}")
        for code in sorted(labels.COBOUNDARY_CONDITIONS):
            bad = diag.nonzero(code)
            if bad:
                _emit(out, f"  Eq ({code}) nonzero at pairs: {bad}")
        for name in sorted(labels.R_TENSORS):
            _emit(out, f"{name}: {'nonzero' if diag.nonzero(name) else 'zero'}")
        _emit(out, f"equation residuals all zero: {'yes' if diag.equations_zero() else 'no'}")
        for code in sorted(labels.COBOUNDARY_EQUATIONS):
            bad = [i for (i,) in diag.nonzero(code)]
            if bad:
                _emit(out, f"  Eq ({code}) nonzero at basis indices: {bad}")
    return 0


_ALGEBRA_AND_TENSOR = {"algebra": ("pre_novikov",), "tensor": ("tensor2",)}

# command -> (help, its positional arguments, each with the bundle kinds it
# accepts, and its handler, which gets their bundles); options are added below
_COMMANDS = {
    "check": ("run the verifier matching a bundle's kind", {"bundle": tuple(_VERIFIERS)}, _cmd_check),
    "derive": ("associated/derived products, adjoint and dual actions", {"bundle": ("pre_novikov", "rep")},
               _cmd_derive),
    "double": ("double construction from a bialgebra bundle", {"bundle": ("bialgebra",)}, _cmd_double),
    "coboundary": ("co-operations from a tensor, with the full pipeline report", _ALGEBRA_AND_TENSOR, _cmd_coboundary),
    "ybe": ("residual of the quadratic tensor equation, plus operator verdicts", _ALGEBRA_AND_TENSOR, _cmd_ybe),
    "oper": ("operator identity report, optionally lifted",
             {"algebra": ("novikov", "pre_novikov"), "rep": ("rep",), "linmap": ("linmap",)}, _cmd_oper),
    "search": ("exhaustive symmetric-solution search", {"algebra": ("pre_novikov",)}, _cmd_search),
    "diag": ("coboundary diagnostics dump", _ALGEBRA_AND_TENSOR, _cmd_diag),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prenovikov",
        description="Exact verification workbench for Novikov-type algebra structures",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (text, positional, _) in _COMMANDS.items():
        commands[name] = p = sub.add_parser(name, help=text)
        for arg in positional:
            p.add_argument(arg)
    commands["oper"].add_argument("--lift", action="store_true")
    commands["search"].add_argument("--values", default="-1,0,1")
    commands["search"].add_argument("--max-candidates", type=int, default=2_000_000)
    return parser


# built on first use, not at import: every CLI process pays for its import
_parser = functools.cache(build_parser)


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    _, positional, handler = _COMMANDS[args.command]
    try:
        bundles = [_load(getattr(args, name), args.command, kinds) for name, kinds in positional.items()]
        return handler(args, out, *bundles)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RefusalError as exc:
        if exc.report is not None:
            _emit(out, render_report(exc.report, args.format))
        print(f"refused: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
