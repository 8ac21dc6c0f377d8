"""The quadratic tensor equation r12 o r13 + r23 (.) r13 - r12 < r23 = 0,
its coboundary machinery, operator forms, and exhaustive solution search.

The residual diagnostics in this module transcribe the intermediate objects of
the coboundary analysis verbatim (the seven named R-tensors and the residual
equations they enter), so a transcription error anywhere upstream shows up as
a named nonzero tensor instead of a silent wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import labels
from .algebras import NovikovAlgebra, PreNovikovAlgebra
from .bialgebra import PreNovikovBialgebra, PreNovikovCoalgebra, _bialgebra_tree
from .core import (Exact, InputError, InternalCheckError, Matrix, RefusalError, StructureConstants, Tensor2, Tensor3,
                   contract, evaluate, exact, fit_letters, held, scalar_set, zero_mask, zero_members)
from .report import Report, Tree, default_labels, verify, whole
from .representations import (_DUAL_ADJOINT_MAPS, NovikovRep, PreNovikovRep, _dual_of, _dual_stage,
                              semidirect_pre_novikov)


def _matrix(t, rows: int, cols: int, what: str) -> Exact:
    """``t`` as an ``Exact`` array, refused unless it is rows x cols."""
    t = exact(t)
    fit_letters(what, "ab", t.shape, {"a": rows, "b": cols})
    return t


def _ybe(alg: PreNovikovAlgebra, r) -> Exact:
    """``ybe_residual`` as an ``Exact`` array."""
    return evaluate({labels.YBE: labels.SPECS[labels.YBE][1]}, {**alg.tables, "r": r})[labels.YBE]


def ybe_residual(alg: PreNovikovAlgebra, r: Tensor2) -> Tensor3:
    """Left-hand side of r12 o r13 + r23 (.) r13 - r12 < r23 as a rank-3 tensor."""
    return _ybe(alg, r).nested


def coboundary_maps(alg: PreNovikovAlgebra, r: Tensor2) -> PreNovikovCoalgebra:
    """The candidate co-operations built from r by their formulas (the
    operands ``alpha`` and ``beta``):

    alpha(a) = (Lo(a)(x)id + id(x)(L>+R<)(a))tau(r)
    beta(a)  = -(L>(a)(x)id + id(x)(Lo+Ro)(a))r

    No validity claim is attached; run check_coalgebra / check_bialgebra.
    """
    co = evaluate({name: labels.OPERANDS[name] for name in ("alpha", "beta")}, {**alg.tables, "r": r})
    return PreNovikovCoalgebra(alg.dim, co["alpha"], co["beta"])


def _coboundary(alg: PreNovikovAlgebra, r, basis=None) -> Report:
    """The one kernel call of ``coboundary``: ``check_bialgebra``'s report
    on ``alg`` and alpha, beta of r, read as the co-operations, with the
    values al and be (alpha and beta) and the 4.13 residual of r."""
    tree = _bialgebra_tree(basis or default_labels(alg.dim), rename={"al": "alpha", "be": "beta"},
                           values={labels.YBE: labels.SPECS[labels.YBE][1], **whole("al", "be")})
    return verify(tree, {**alg.tables, "r": r})


def bialgebra_from_r(alg: PreNovikovAlgebra, r: Tensor2) -> PreNovikovBialgebra:
    """Coboundary bialgebra of a symmetric solution; refuses anything else."""
    r = _matrix(r, alg.dim, alg.dim, "r")
    if r.T != r:
        raise RefusalError("r is not symmetric")
    report = _coboundary(alg, r)
    if report.values[labels.YBE].num.any():
        raise RefusalError("r has a nonzero Yang-Baxter residual")
    if not report.passed:
        raise InternalCheckError("theorem (coboundary_maps): a solution's coboundary is not a bialgebra")
    return PreNovikovBialgebra(alg, PreNovikovCoalgebra(alg.dim, report.values["al"], report.values["be"]), report)


# ---------------------------------------------------------------------------
# coboundary diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything the coboundary analysis names, fully labeled.

    ``condition_residuals`` maps each of the codes 4.3-4.6 to a grid indexed
    by basis pair (a, b) of rank-2 residual tensors; ``r_tensors`` holds the
    seven named rank-3 tensors; ``equation_residuals`` maps each of 4.7-4.10
    to the per-basis-element rank-3 residuals.  Each is held in ``arrays``,
    by code or name, as the kernel's ``Exact`` array, and read as nested
    tuples of Fractions built on first access.
    """

    dim: int
    arrays: dict

    condition_residuals = property(lambda self: self._nested(labels.COBOUNDARY_CONDITIONS))
    r_tensors = property(lambda self: self._nested(labels.R_TENSORS))
    equation_residuals = property(lambda self: self._nested(labels.COBOUNDARY_EQUATIONS))

    def _nested(self, keys) -> dict:
        return {key: self.arrays[key].nested for key in keys}

    def nonzero(self, key: str) -> list:
        """The witnesses (of the spec ``key``; none for an R-tensor) whose
        residual is not all zero, in row-major order."""
        num = self.arrays[key].num
        flat = num.reshape(num.shape[: len(labels.SPECS[key][0]) if key in labels.SPECS else 0] + (-1,))
        return [tuple(w) for w in np.argwhere(flat.any(axis=-1)).tolist()]

    def conditions_zero(self) -> bool:
        return not any(map(self.nonzero, labels.COBOUNDARY_CONDITIONS))

    def equations_zero(self) -> bool:
        return not any(map(self.nonzero, labels.COBOUNDARY_EQUATIONS))

    def r_tensors_zero(self) -> bool:
        return not any(map(self.nonzero, labels.R_TENSORS))


def coboundary_diagnostics(alg: PreNovikovAlgebra, r: Tensor2) -> DiagnosticsReport:
    """All labeled diagnostics: operator-condition residuals per basis pair,
    the seven named rank-3 tensors, and the four equation residuals, from one
    kernel call, so that the R-tensors 4.7-4.10 read are derived once."""
    specs = {code: labels.SPECS[code][1] for code in labels.COBOUNDARY_CONDITIONS + labels.COBOUNDARY_EQUATIONS}
    return DiagnosticsReport(alg.dim, evaluate({**specs, **whole(*labels.R_TENSORS)}, {**alg.tables, "r": r}))


# ---------------------------------------------------------------------------
# operator forms
# ---------------------------------------------------------------------------

def t_r_from_tensor(r: Tensor2) -> Matrix:
    """The linear map dual -> space identified with r by <f (x) g, r> = <f, T(g)>.

    In standard dual coordinates this is the matrix with entries r[i][j].
    """
    fit_letters("r", "aa", (r := exact(r)).shape, {})
    return r.nested


@dataclass(frozen=True)
class OOperator:
    """A verified operator, held as the ``Exact`` array ``tables["T"]``."""

    t: Matrix = held("T")
    flavor: str  # "novikov" | "pre_novikov"
    rep: Union[NovikovRep, PreNovikovRep]
    verified: bool = False


def check_o_operator_novikov(alg: NovikovAlgebra, rep: NovikovRep, T: Matrix,
                             module_basis=None) -> Report:
    """T(u) o T(v) = T(l(T(u))v) + T(r(T(v))u) on all module basis pairs."""
    lab = module_basis or default_labels(rep.module_dim, "v")
    return verify(Tree("o_operator_novikov", (labels.O_OPERATOR_NOVIKOV,), lab),
                  {"o": alg.op.table, **rep.tables, "T": T})


def check_o_operator_pre_novikov(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix,
                                 module_basis=None) -> Report:
    """Both intertwining identities for the two products, on all module pairs."""
    lab = module_basis or default_labels(rep.module_dim, "v")
    return verify(Tree("o_operator_pre_novikov", labels.O_OPERATOR_PRE_NOVIKOV, lab),
                  {**alg.tables, **rep.tables, "T": T})


def _o_operator(check, flavor: str, alg, rep, T) -> OOperator:
    """Verified O-operator certificate; refuses when ``check`` fails."""
    report = check(alg, rep, T)
    if not report.passed:
        raise RefusalError("not an O-operator for this representation", report)
    return OOperator(T, flavor, rep, verified=True)


def o_operator_novikov(alg: NovikovAlgebra, rep: NovikovRep, T: Matrix) -> OOperator:
    return _o_operator(check_o_operator_novikov, "novikov", alg, rep, T)


def o_operator_pre_novikov(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix) -> OOperator:
    return _o_operator(check_o_operator_pre_novikov, "pre_novikov", alg, rep, T)


def pre_novikov_from_o(alg: NovikovAlgebra, rep: NovikovRep, oper: OOperator) -> PreNovikovAlgebra:
    """The module-side pre-Novikov structure u>v = l(T(u))v, u<v = r(T(v))u
    (the operands ``>T`` and ``<T``), checked in the same kernel call."""
    if not isinstance(oper, OOperator) or oper.flavor != "novikov" or not oper.verified:
        raise RefusalError("need a verified Novikov-flavor O-operator")
    if oper.rep != rep:
        raise InputError("O-operator was verified against a different representation")
    tree = Tree("pre_novikov", labels.PRE_NOVIKOV, (), rename={"<": "<T", ">": ">T"}, values=whole("<", ">"))
    check = verify(tree, {"T": oper.tables["T"], **rep.tables})
    if not check.passed:
        raise InternalCheckError("theorem (pre_novikov_from_o): the transported pair is not pre-Novikov")
    return PreNovikovAlgebra(*(StructureConstants(rep.module_dim, check.values[name]) for name in "<>"))


def co2_equivalence(alg: PreNovikovAlgebra, r: Tensor2) -> tuple[bool, bool, bool]:
    """Three separately evaluated verdicts for a symmetric r, from one
    kernel call (``_ybe_stage``):

    (a) the Yang-Baxter residual vanishes;
    (b) T_r is an O-operator for the associated Novikov algebra on the dual
        module with actions (L>* + R<*, -R<*);
    (c) T_r is an O-operator for the two products with the dual adjoint
        quadruple.

    For symmetric r the residuals of (b) and (c) are fixed linear images of
    that of (a) (4.30 is -4.13 with axes (a, c, b)), so (b) and (c) check the
    specs' transcription rather than new arithmetic.
    """
    r = _matrix(r, alg.dim, alg.dim, "r")
    if r.T != r:
        raise InputError("r must be symmetric")
    stage = _ybe_stage(alg, r)
    return (not stage.values[labels.YBE].num.any(), *(section.passed for section in stage.sections))


def _ybe_stage(alg: PreNovikovAlgebra, r: Exact) -> Report:
    """The 4.13 residual of r as the value ``labels.YBE``, and verdicts (b)
    and (c) of ``co2_equivalence`` as the sections' verdicts, which mean
    something for a symmetric r only: T_r is r itself, and the specs read
    the dual actions as the derived operands they are renamed to."""
    lab, read = default_labels(alg.dim, "v"), {"T": "r"}
    sections = (Tree("o_operator_novikov", (labels.O_OPERATOR_NOVIKOV,), lab, rename=read | _DUAL_ADJOINT_MAPS),
                Tree("o_operator_pre_novikov", labels.O_OPERATOR_PRE_NOVIKOV, lab, rename=read | _DUAL_QUADRUPLE))
    return verify(Tree("co2", (), lab, sections=sections, values={labels.YBE: labels.SPECS[labels.YBE][1]}),
                  {**alg.tables, "r": r})


def lift_o_operator(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix) -> tuple[PreNovikovAlgebra, Tensor2]:
    """Lift an operator to a symmetric tensor over the semidirect product.

    Builds B = algebra (x| dual module via the dual representation, forms
    r_T = sum_i T(v_i) (x) v_i* (T placed as the (algebra, dual module) block
    of a zero matrix) and r = r_T + tau(r_T), and asserts the
    biconditional: r solves the Yang-Baxter equation in B exactly when T
    passes the O-operator check.  T itself need not be verified.
    """
    return _operator_lift(alg, rep, T, None)


def _operator_lift(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix, operator: Report | None):
    """``lift_o_operator``, whose check is ``operator`` when its caller made it (``oper --lift`` prints it)."""
    if rep.algebra != alg:
        raise InputError("representation was built over a different algebra")
    n, mdim = alg.dim, rep.module_dim
    T = _matrix(T, n, mdim, "operator matrix")
    *check, dual = _dual_stage(alg, rep)  # (the check of a rep with no certificate, in the dual's call)
    if check and not check[0].passed:
        raise RefusalError("not a pre-Novikov representation", check[0])
    rep_v = rep.certified()
    semi = semidirect_pre_novikov(alg, _dual_of(rep_v, dual))
    r_t = np.zeros((n + mdim, n + mdim), dtype=T.num.dtype)
    r_t[:n, n:] = T.num
    r = Exact(r_t + r_t.T, T.den)
    residual_zero = not _ybe(semi, r).num.any()
    operator_ok = (operator or check_o_operator_pre_novikov(alg, rep_v, T)).passed
    if residual_zero != operator_ok:
        raise InternalCheckError(
            f"theorem (lift_o_operator): lifted residual zero {residual_zero}, operator check {operator_ok}")
    return semi, r.nested


# ---------------------------------------------------------------------------
# exhaustive search for symmetric solutions
# ---------------------------------------------------------------------------

def _upper_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def search_symmetric_ybe(alg: PreNovikovAlgebra, value_set, max_candidates: int = 2_000_000) -> list[Tensor2]:
    """All symmetric tensors with entries in ``value_set`` and zero residual.

    The search space has ``k ** (n(n+1)/2)`` members, for the ``k`` distinct
    scalars of ``value_set``, and is refused beyond ``max_candidates``.  It
    is searched row by row (see ``_search_rows``) in integers, after clearing
    denominators, on one thread, chunk by chunk through ``core.zero_members``.
    The hits are re-verified through the operator form (4.29 and 4.30, see
    ``_o_operator_ok``), a guard on the row staging, not the spec.  They are
    returned sorted lexicographically by upper-triangle coordinates.
    """
    return list(_search_hits(alg, value_set, max_candidates).nested)


def _search_hits(alg: PreNovikovAlgebra, value_set, max_candidates: int) -> Exact:
    """The solutions of ``search_symmetric_ybe`` as one sorted ``Exact`` array."""
    values = scalar_set(value_set, "value_set")
    n = alg.dim
    positions = _upper_positions(n)
    space = len(values) ** len(positions)
    if space > max_candidates:
        raise InputError(
            f"search space has {space} candidates, beyond the budget of {max_candidates}"
        )
    ints = _integer_tables(alg)
    scaled = exact(values)
    hits = _search_rows({name: ints[name] for name in ("o", "(.)", "<")}, scaled.num)
    if not _o_operator_ok(ints, hits).all():
        raise InternalCheckError("staging (_search_rows): the fast search produced a non-solution")
    return Exact(hits[np.lexsort([hits[:, i, j] for i, j in reversed(positions)])], scaled.den)


_DUAL_QUADRUPLE = {"l>": "L>*+L<*+R>*+R<*", "r>": "R>*", "l<": "-R>*-L<*", "r<": "-R>*-R<*"}


def _integer_tables(alg: PreNovikovAlgebra) -> dict:
    """The products o, (.), <, > and the dual adjoint quadruple l>, r>, l<, r<
    of ``alg`` as integer arrays over one common denominator, from one
    kernel call."""
    quadruple = {key: labels.OPERANDS[name] for key, name in _DUAL_QUADRUPLE.items()}
    lifted = contract({**whole("o", "(.)", "<", ">"), **quadruple}, alg.tables)
    return {name: num for name, (num, _) in lifted.items()}


def _o_operator_ok(ints: dict, hits: np.ndarray) -> np.ndarray:
    """Which of a batch of integer symmetric r make T_r (the matrix r itself)
    an O-operator of the dual adjoint quadruple: identities 4.29 and 4.30,
    evaluated with the batch axis on T by ``core.zero_mask``, in chunks
    within ``core.BATCH_BYTES``.  By the operator-form theorem these are
    exactly the r with a zero 4.13 residual.

    ``ints`` is ``_integer_tables``; the identities are homogeneous in T and
    in the tables, so the scales of both leave the verdict unchanged.
    """
    specs = {code: labels.SPECS[code][1] for code in labels.O_OPERATOR_PRE_NOVIKOV}
    return zero_mask(specs, len(hits), lambda lo, hi: {"T": hits[lo:hi]}, ints)


# Bytes of candidates one row of the search may keep.  Past it the search is
# refused before the row's chunks are joined: on the zero algebra at dim 4,
# -1,0,1 keeps 59,049 candidates (7.6 MB), -1,0,1,2 would keep 1,048,576.
SURVIVOR_BYTES = 16 * 2**20


def _search_rows(ints: dict, scaled: np.ndarray) -> np.ndarray:
    """Symmetric integer tensors over ``scaled`` whose 4.13 residual vanishes.

    In the row form ``labels.YBE_ROWS``, residual entry (a, b, c) reads only
    rows a, b and c of a symmetric r.  The upper triangle is filled row by
    row: placing row k multiplies the batch by ``len(scaled)`` per entry of
    the row, after which the entries with max(a, b, c) = k are final too, so
    candidates with a nonzero one are dropped.  The batch holds each
    candidate's placed rows, whose row k mirrors column k of the rows above;
    after the last row they are the whole r.

    Row k tests its (k+1)**3 witness cube or, when ``<`` is commutative, the
    boxes {c = k; a, b <= k} and {b = k; a, c < k} (``_box``), (k+1)**2 + k**2
    entries: the shell's rest {a = k; b, c < k} mirrors the first box, since
    x o y - x (.) y = x<y - y<x gives, for symmetric r, R[a,b,c] - R[c,b,a] =
    sum_mn (r_bm r_cn D^a_mn - r_bm r_an D^c_mn - r_am r_cn D^b_mn), D^x_mn
    the e_x-coefficient of e_m<e_n - e_n<e_m.  The pre-Novikov axioms do not
    give the mirror (e1<e3 = -e2 alone at dim 3).  Each row's candidates are
    built and tested chunk by chunk by ``core.zero_members``, within
    ``core.BATCH_BYTES``; a row keeping more than ``SURVIVOR_BYTES`` of
    candidates is refused with ``InputError`` at the first survivor past it.
    """
    n, base = ints["<"].shape[0], len(scaled)
    mirror = np.array_equal(ints["<"], ints["<"].transpose(1, 0, 2))
    batch = np.zeros((1, 0, n), dtype=scaled.dtype)
    for k in range(n):
        fan = base ** (n - k)
        cuts = {"": slice(k + 1), "[k]": slice(k, k + 1), "[:k]": slice(k)}
        boxes = [("", "", "[k]"), ("[:k]", "[k]", "[:k]")][: 1 + (k > 0)] if mirror else [("", "", "")]
        specs = {(labels.YBE, box): _box(box) for box in boxes}
        read = {name for terms in specs.values() for _, _, names in terms for name in names}

        def candidates(lo: int, hi: int) -> dict:
            t = np.arange(lo, hi)
            R = np.empty((hi - lo, k + 1, n), dtype=batch.dtype)
            R[:, :k] = batch[t // fan]
            R[:, k, :k] = R[:, :k, k]
            for j in range(k, n):
                R[:, k, j] = scaled[t // base ** (n - 1 - j) % base]
            return {"r" + cut: R[:, at] for cut, at in cuts.items() if "r" + cut in read}

        kept, count, each = [], 0, (k + 1) * n * batch.itemsize
        tables = {name + cut: t[..., at] for name, t in ints.items() for cut, at in cuts.items() if name + cut in read}
        for chunk, ok in zero_members(specs, len(batch) * fan, candidates, tables):
            count += int(np.count_nonzero(ok))  # (counted before they are copied)
            if count * each > SURVIVOR_BYTES:
                raise InputError(
                    f"search row {k + 1} keeps {SURVIVOR_BYTES // each + 1} candidates so far, "
                    f"beyond the bound of {SURVIVOR_BYTES} bytes"
                )
            kept.append(chunk["r"][ok])
        batch = np.concatenate(kept)
        if not len(batch):
            return np.zeros((0, n, n), dtype=batch.dtype)
    return batch


def _box(box: tuple) -> list:
    """``labels.YBE_ROWS`` on the witnesses a, b, c in the cuts ``box``: each
    r renamed to the cut of its row's letter, each table to its last axis'."""
    return [(coef, subs, tuple(name + dict(zip(subs[-3:], box))[g[0] if name == "r" else g[-1]]
                               for g, name in zip(subs.split("->")[0].split(","), names)))
            for coef, subs, names in labels.YBE_ROWS]
