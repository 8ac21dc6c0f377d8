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
from .algebras import (
    associated_novikov,
    check_novikov,
    check_pre_novikov,
    check_quasi_frobenius,
    derived_ops,
)
from .bialgebra import check_bialgebra, check_coalgebra
from .core import InputError, RefusalError, fit_letters, fraction_texts, rational
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
from .representations import adjoint_reps, dual_novikov_rep, dual_pre_novikov_rep
from .yang_baxter import (
    co2_equivalence,
    coboundary_diagnostics,
    coboundary_maps,
    lift_o_operator,
    search_symmetric_ybe,
    _ybe,
)

def _load(path: str) -> Bundle:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None
    try:
        return parse_bundle(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_algebra_and_tensor(args, command: str):
    """The algebra bundle, the algebra and the tensor r that ``command`` reads,
    r as its ``Exact`` array."""
    alg_bundle = _load(args.algebra)
    r_bundle = _load(args.tensor)
    if alg_bundle.kind != "pre_novikov" or r_bundle.kind != "tensor2":
        raise InputError(f"{command} expects a pre_novikov bundle and a tensor2 bundle")
    alg = bundle_to_objects(alg_bundle)
    r = r_bundle.data["entries"]
    if r.shape[0] != alg.dim:
        raise InputError("tensor dimension does not match the algebra")
    return alg_bundle, alg, r


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def _verify(bundle: Bundle) -> tuple:
    """The bundle's library objects and the report of its kind's verifier."""
    kind, basis = bundle.kind, bundle.data.get("basis")
    obj = bundle_to_objects(Bundle("rep", bundle.data) if kind == "o_operator" else bundle)  # t stays unboxed
    if kind == "novikov":
        report = check_novikov(obj.op, basis=basis)
    elif kind == "pre_novikov":
        report = check_pre_novikov(obj.lhd, obj.rhd, basis=basis)
    elif kind == "coalgebra":
        report = check_coalgebra(obj, basis=basis)
    elif kind == "bialgebra":
        report = check_bialgebra(obj.algebra, obj.coalgebra, basis=basis)
    elif kind == "form":
        report = check_quasi_frobenius(obj[0].op, obj[1], basis=basis)
    elif kind in ("rep", "o_operator"):
        flavor, module_basis = FLAVORS[bundle.data["flavor"]], bundle.data.get("module_basis")
        if kind == "rep":
            report = flavor["check"](*obj, basis=basis, module_basis=module_basis)
        else:
            report = flavor["operator"](*obj, bundle.data["t"], module_basis=module_basis)
    else:
        raise InputError(f"no verifier for bundle kind {kind!r}")
    return obj, report


def _cmd_check(args, out) -> int:
    _, report = _verify(_load(args.bundle))
    _emit(out, render_report(report, args.format))
    return 0 if report.passed else 1


def _cmd_derive(args, out) -> int:
    bundle = _load(args.bundle)
    if bundle.kind not in ("pre_novikov", "rep"):
        raise InputError(f"derive expects a pre_novikov or rep bundle, got {bundle.kind!r}")
    obj, report = _verify(bundle)
    if not report.passed:
        _emit(out, render_report(report, args.format))
        return 1
    if bundle.kind == "rep":
        flavor, rep = bundle.data["flavor"], obj[1]
        parts = {"dual_rep": _maps_doc(flavor, FLAVORS[flavor]["dual"](rep.certified()))}
    else:
        alg, basis = obj, bundle.data.get("basis")
        nov = associated_novikov(alg)
        odot, star = derived_ops(alg)
        nov_rep, pre_rep = adjoint_reps(alg)
        parts = {
            "associated": bundle_doc(make_bundle("novikov", basis, dim=nov.dim, product=nov.op.table)),
            "odot": odot.table,
            "star": star.table,
            "adjoint_novikov_rep": _maps_doc("novikov", nov_rep),
            "adjoint_pre_novikov_rep": _maps_doc("pre_novikov", pre_rep),
            "dual_novikov_rep": _maps_doc("novikov", dual_novikov_rep(nov_rep)),
            "dual_pre_novikov_rep": _maps_doc("pre_novikov", dual_pre_novikov_rep(pre_rep)),
        }
    _emit(out, dumps({"kind": "derived", "parts": parts}))
    return 0


def _maps_doc(flavor: str, rep) -> dict:
    """The rep's map families by field name, as the ``Exact`` arrays it holds."""
    return {name: rep.tables[vars(type(rep))[name].key] for name in FLAVORS[flavor]["maps"]}


def _cmd_double(args, out) -> int:
    bundle = _load(args.bundle)
    if bundle.kind != "bialgebra":
        raise InputError(f"double expects a bialgebra bundle, got {bundle.kind!r}")
    bialg = bundle_to_objects(bundle)
    try:
        double = double_from_bialgebra(bialg)
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


def _cmd_coboundary(args, out) -> int:
    alg_bundle, alg, r = _load_algebra_and_tensor(args, "coboundary")
    co = coboundary_maps(alg, r)
    _emit(out, serialize_bundle(make_bundle("coalgebra", alg_bundle.data.get("basis"), dim=co.dim,
                                            alpha=co.tables["al"], beta=co.tables["be"])))
    symmetric = r.T == r
    residual_zero = not _ybe(alg, r).num.any()
    bi = check_bialgebra(alg, co, basis=alg_bundle.data.get("basis"))
    _emit(out, render_report(bi, args.format))
    _emit(out, f"symmetric: {'yes' if symmetric else 'no'}")
    _emit(out, f"residual zero: {'yes' if residual_zero else 'no'}")
    return 0 if (symmetric and residual_zero and bi.passed) else 1


def _cmd_ybe(args, out) -> int:
    _, alg, r = _load_algebra_and_tensor(args, "ybe")
    residual = _ybe(alg, r)
    zero = not residual.num.any()
    if args.format == "machine":
        doc = {"kind": "ybe", "residual_zero": zero, "residual": residual}
        if r.T == r:
            doc["equivalent_verdicts"] = list(co2_equivalence(alg, r))
        _emit(out, dumps(doc))
    else:
        _emit(out, f"residual zero: {'yes' if zero else 'no'}")
        if not zero:  # the first 32 nonzero entries, in row-major order
            at = tuple(axis[:32] for axis in residual.num.nonzero())
            values = residual.num[at].tolist()
            text = fraction_texts(values, residual.den)
            _emit(out, "\n".join(f"  [{i},{j},{k}] = {text[v]}"
                                 for i, j, k, v in zip(*(a.tolist() for a in at), values)))
        if r.T == r:
            a, b, c = co2_equivalence(alg, r)
            _emit(out, f"equivalent verdicts: residual={a} novikov_operator={b} pre_novikov_operator={c}")
        else:
            _emit(out, "r is not symmetric; operator-form verdicts skipped")
    return 0 if zero else 1


def _cmd_oper(args, out) -> int:
    alg_bundle = _load(args.algebra)
    rep_bundle = _load(args.rep)
    t_bundle = _load(args.linmap)
    if rep_bundle.kind != "rep":
        raise InputError(f"oper expects a rep bundle, got {rep_bundle.kind!r}")
    if t_bundle.kind != "linmap":
        raise InputError(f"oper expects a linmap bundle, got {t_bundle.kind!r}")
    rep_alg, rep = bundle_to_objects(rep_bundle)
    T = t_bundle.data["entries"]
    flavor = rep_bundle.data["flavor"]
    if alg_bundle.kind != flavor:
        raise InputError(f"algebra bundle must be kind {flavor} for a {flavor} rep")
    alg = bundle_to_objects(alg_bundle)
    if alg != rep_alg:
        raise InputError("rep bundle algebra differs from the algebra bundle")
    fit_letters("linmap", "nm", T.shape, {"n": alg.dim, "m": rep.module_dim})
    report = FLAVORS[flavor]["operator"](alg, rep, T, module_basis=rep_bundle.data.get("module_basis"))
    _emit(out, render_report(report, args.format))
    if args.lift:
        if flavor == "novikov":
            raise InputError("--lift applies to pre_novikov flavor only")
        semi, r = lift_o_operator(alg, rep, T)
        lab = tuple(alg_bundle.data.get("basis") or default_labels(alg.dim)) + tuple(
            f"{x}*" for x in (rep_bundle.data.get("module_basis") or default_labels(rep.module_dim, "v"))
        )
        _emit(out, serialize_bundle(pre_novikov_bundle(semi, basis=lab)))
        _emit(out, serialize_bundle(make_bundle("tensor2", lab, dim=len(r), entries=r)))
        _emit(out, f"lifted residual zero: {'yes' if report.passed else 'no'}")
    return 0 if report.passed else 1


def _cmd_search(args, out) -> int:
    alg_bundle = _load(args.algebra)
    if alg_bundle.kind != "pre_novikov":
        raise InputError(f"search expects a pre_novikov bundle, got {alg_bundle.kind!r}")
    alg = bundle_to_objects(alg_bundle)
    try:
        values = [rational(v) for v in args.values.split(",") if v.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad value set {args.values!r}: {exc}") from None
    solutions = search_symmetric_ybe(alg, values, max_candidates=args.max_candidates)
    doc = {
        "kind": "search_results",
        "dim": alg.dim,
        "count": len(solutions),
        "solutions": [bundle_doc(make_bundle("tensor2", dim=len(r), entries=r)) for r in solutions],
    }
    _emit(out, dumps(doc))
    return 0


def _cmd_diag(args, out) -> int:
    _, alg, r = _load_algebra_and_tensor(args, "diag")
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


# command -> (help, positional arguments, handler); options are added below
_COMMANDS = {
    "check": ("run the verifier matching a bundle's kind", ("bundle",), _cmd_check),
    "derive": ("associated/derived products, adjoint and dual actions", ("bundle",), _cmd_derive),
    "double": ("double construction from a bialgebra bundle", ("bundle",), _cmd_double),
    "coboundary": ("co-operations from a tensor, with the full pipeline report", ("algebra", "tensor"),
                   _cmd_coboundary),
    "ybe": ("residual of the quadratic tensor equation, plus operator verdicts", ("algebra", "tensor"),
            _cmd_ybe),
    "oper": ("operator identity report, optionally lifted", ("algebra", "rep", "linmap"), _cmd_oper),
    "search": ("exhaustive symmetric-solution search", ("algebra",), _cmd_search),
    "diag": ("coboundary diagnostics dump", ("algebra", "tensor"), _cmd_diag),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prenovikov",
        description="Exact verification workbench for Novikov-type algebra structures",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (text, positional, func) in _COMMANDS.items():
        commands[name] = p = sub.add_parser(name, help=text)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(func=func)
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
    try:
        return args.func(args, out)
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
