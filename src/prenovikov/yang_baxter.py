"""The quadratic tensor equation r12 o r13 + r23 (.) r13 - r12 < r23 = 0,
its coboundary machinery, operator forms, and exhaustive solution search.

The residual diagnostics in this module transcribe the intermediate objects of
the coboundary analysis verbatim (the seven named R-tensors and the residual
equations they enter), so a transcription error anywhere upstream shows up as
a named nonzero tensor instead of a silent wrong verdict.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import labels
from .algebras import (
    NovikovAlgebra,
    PreNovikovAlgebra,
    check_pre_novikov,
    sum_table,
)
from .bialgebra import PreNovikovBialgebra, PreNovikovCoalgebra, check_bialgebra
from .core import (
    ZERO,
    InputError,
    InternalCheckError,
    Matrix,
    RefusalError,
    StructureConstants,
    Tensor2,
    Tensor3,
    _lift,
    _terms_plan,
    contract,
    evaluate,
    flip,
    nested_fractions,
    sum_batched,
    t3_is_zero,
)
from .report import Report, ReportBuilder, default_labels
from .representations import (
    NovikovRep,
    PreNovikovRep,
    dual_adjoint_maps,
    dual_pre_novikov_rep,
    dual_pre_novikov_spec,
    semidirect_pre_novikov,
    verify_pre_novikov_rep,
)


def _check_square(r: Tensor2, n: int, what: str = "tensor") -> None:
    if len(r) != n or any(len(row) != n for row in r):
        raise InputError(f"{what} must be {n}x{n}")


def _operands(alg: PreNovikovAlgebra, r: Tensor2) -> dict:
    """The kernel tables of an algebra and a rank-2 tensor r."""
    _check_square(r, alg.dim, "r")
    return {"<": alg.lhd.c, ">": alg.rhd.c, "r": r}


def _residuals(codes, tables: dict) -> dict:
    """The residuals of the identities ``codes``, keyed by code, in one kernel call."""
    return evaluate({code: labels.SPECS[code][1] for code in codes}, tables)


def ybe_residual(alg: PreNovikovAlgebra, r: Tensor2) -> Tensor3:
    """Left-hand side of r12 o r13 + r23 (.) r13 - r12 < r23 as a rank-3 tensor."""
    return _residuals([labels.YBE], _operands(alg, r))[labels.YBE]


def coboundary_maps(alg: PreNovikovAlgebra, r: Tensor2) -> PreNovikovCoalgebra:
    """The candidate co-operations built from r:

    alpha(a) = (Lo(a) (x) id + id (x) (L> + R<)(a)) tau(r)
    beta(a)  = -(L>(a) (x) id + id (x) (Lo + Ro)(a)) r

    No validity claim is attached; run check_coalgebra / check_bialgebra.
    """
    co = evaluate({
        "alpha": [(1, "iap,bp->iab", ("Lo", "r")), (1, "qa,ibq->iab", ("r", "L>+R<"))],
        "beta": [(-1, "iap,pb->iab", ("L>", "r")), (-1, "aq,ibq->iab", ("r", "Lo+Ro"))],
    }, _operands(alg, r))
    return PreNovikovCoalgebra(alg.dim, co["alpha"], co["beta"])


def bialgebra_from_r(alg: PreNovikovAlgebra, r: Tensor2) -> PreNovikovBialgebra:
    """Coboundary bialgebra of a symmetric solution; refuses anything else."""
    n = alg.dim
    _check_square(r, n, "r")
    if flip(r) != r:
        raise RefusalError("r is not symmetric")
    if not t3_is_zero(ybe_residual(alg, r)):
        raise RefusalError("r has a nonzero Yang-Baxter residual")
    co = coboundary_maps(alg, r)
    report = check_bialgebra(alg, co)
    if not report.passed:
        raise InternalCheckError(
            "coboundary maps of a symmetric solution failed the bialgebra check"
        )
    return PreNovikovBialgebra(alg, co, report=report)


# ---------------------------------------------------------------------------
# coboundary diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything the coboundary analysis names, fully labeled.

    ``condition_residuals`` maps each of the codes 4.3-4.6 to a grid indexed
    by basis pair (a, b) of rank-2 residual tensors; ``r_tensors`` holds the
    seven named rank-3 tensors; ``equation_residuals`` maps each of 4.7-4.10
    to the per-basis-element rank-3 residuals.
    """

    dim: int
    condition_residuals: dict
    r_tensors: dict
    equation_residuals: dict

    def conditions_zero(self) -> bool:
        return all(
            t3_is_zero(line) for grid in self.condition_residuals.values() for line in grid
        )

    def equations_zero(self) -> bool:
        return all(
            t3_is_zero(t) for series in self.equation_residuals.values() for t in series
        )

    def r_tensors_zero(self) -> bool:
        return all(t3_is_zero(t) for t in self.r_tensors.values())


def r_tensors(alg: PreNovikovAlgebra, r: Tensor2) -> dict:
    """The seven named rank-3 tensors of the coboundary analysis."""
    return evaluate({name: labels.OPERANDS[name] for name in labels.R_TENSORS}, _operands(alg, r))


def lemma_condition_residuals(alg: PreNovikovAlgebra, r: Tensor2) -> dict:
    """Residuals of the four operator conditions applied to (tau(r) - r),
    one rank-2 tensor per basis pair (a, b), keyed by codes 4.3-4.6."""
    return _residuals(labels.COBOUNDARY_CONDITIONS, _operands(alg, r))


def lemma_equation_residuals(alg: PreNovikovAlgebra, r: Tensor2) -> dict:
    """Residuals of the four equations the R-tensors satisfy, one rank-3
    tensor per basis element, keyed by codes 4.7-4.10."""
    return _residuals(labels.COBOUNDARY_EQUATIONS, _operands(alg, r))


def coboundary_diagnostics(alg: PreNovikovAlgebra, r: Tensor2) -> DiagnosticsReport:
    """All labeled diagnostics: operator-condition residuals per basis pair,
    the seven named rank-3 tensors, and the four equation residuals, from one
    kernel call, so that the R-tensors 4.7-4.10 read are derived once."""
    specs = {code: labels.SPECS[code][1]
             for code in labels.COBOUNDARY_CONDITIONS + labels.COBOUNDARY_EQUATIONS}
    specs.update({name: [(1, "abc->abc", (name,))] for name in labels.R_TENSORS})
    got = evaluate(specs, _operands(alg, r))
    return DiagnosticsReport(
        dim=alg.dim,
        condition_residuals={code: got[code] for code in labels.COBOUNDARY_CONDITIONS},
        r_tensors={name: got[name] for name in labels.R_TENSORS},
        equation_residuals={code: got[code] for code in labels.COBOUNDARY_EQUATIONS},
    )


# ---------------------------------------------------------------------------
# operator forms
# ---------------------------------------------------------------------------

def t_r_from_tensor(r: Tensor2) -> Matrix:
    """The linear map dual -> space identified with r by <f (x) g, r> = <f, T(g)>.

    In standard dual coordinates this is the matrix with entries r[i][j].
    """
    n = len(r)
    _check_square(r, n, "r")
    return tuple(tuple(row) for row in r)


@dataclass(frozen=True)
class OOperator:
    t: Matrix
    flavor: str  # "novikov" | "pre_novikov"
    rep: Union[NovikovRep, PreNovikovRep]
    verified: bool = False


def _check_t_shape(T: Matrix, algebra_dim: int, module_dim: int) -> None:
    if len(T) != algebra_dim or any(len(row) != module_dim for row in T):
        raise InputError(f"operator matrix must be {algebra_dim}x{module_dim}")


def check_o_operator_novikov(alg: NovikovAlgebra, rep: NovikovRep, T: Matrix,
                             module_basis=None) -> Report:
    """T(u) o T(v) = T(l(T(u))v) + T(r(T(v))u) on all module basis pairs."""
    if rep.algebra.dim != alg.dim:
        raise InputError("representation/algebra dimension mismatch")
    n, mdim = alg.dim, rep.module_dim
    _check_t_shape(T, n, mdim)
    rb = ReportBuilder(
        "o_operator_novikov",
        (labels.O_OPERATOR_NOVIKOV,),
        module_basis or default_labels(mdim, "v"),
    )
    rb.check({"o": alg.op.c, "l": rep.l, "r": rep.r, "T": T})
    return rb.build()


def check_o_operator_pre_novikov(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix,
                                 module_basis=None) -> Report:
    """Both intertwining identities for the two products, on all module pairs."""
    if rep.algebra.dim != alg.dim:
        raise InputError("representation/algebra dimension mismatch")
    n, mdim = alg.dim, rep.module_dim
    _check_t_shape(T, n, mdim)
    rb = ReportBuilder(
        "o_operator_pre_novikov",
        labels.O_OPERATOR_PRE_NOVIKOV,
        module_basis or default_labels(mdim, "v"),
    )
    rb.check({"<": alg.lhd.c, ">": alg.rhd.c, "l>": rep.l_rhd, "r>": rep.r_rhd,
              "l<": rep.l_lhd, "r<": rep.r_lhd, "T": T})
    return rb.build()


def o_operator_novikov(alg: NovikovAlgebra, rep: NovikovRep, T: Matrix) -> OOperator:
    """Verified O-operator certificate; refuses when the identity fails."""
    report = check_o_operator_novikov(alg, rep, T)
    if not report.passed:
        raise RefusalError("not an O-operator for this representation", report)
    return OOperator(tuple(tuple(row) for row in T), "novikov", rep, verified=True)


def o_operator_pre_novikov(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix) -> OOperator:
    report = check_o_operator_pre_novikov(alg, rep, T)
    if not report.passed:
        raise RefusalError("not an O-operator for this representation", report)
    return OOperator(tuple(tuple(row) for row in T), "pre_novikov", rep, verified=True)


def pre_novikov_from_o(alg: NovikovAlgebra, rep: NovikovRep, oper: OOperator) -> PreNovikovAlgebra:
    """The module-side pre-Novikov structure u>v = l(T(u))v, u<v = r(T(v))u."""
    if not isinstance(oper, OOperator) or oper.flavor != "novikov" or not oper.verified:
        raise RefusalError("need a verified Novikov-flavor O-operator")
    if oper.rep != rep:
        raise InputError("O-operator was verified against a different representation")
    prods = evaluate({
        "<": [(1, "aq,atp->pqt", ("T", "r"))],
        ">": [(1, "ap,atq->pqt", ("T", "l"))],
    }, {"T": oper.t, "l": rep.l, "r": rep.r})
    lhd, rhd = (StructureConstants(rep.module_dim, prods[name]) for name in "<>")
    out = PreNovikovAlgebra(lhd, rhd)
    if not check_pre_novikov(out.lhd, out.rhd).passed:
        raise InternalCheckError("O-operator transport produced an invalid pre-Novikov pair")
    return out


def _dual_novikov_rep_matrices(alg: PreNovikovAlgebra) -> NovikovRep:
    """(L>* + R<*, -R<*) on the dual module, built directly from the tables."""
    l, r = dual_adjoint_maps(alg.lhd, alg.rhd)
    return NovikovRep(NovikovAlgebra(sum_table(alg.lhd, alg.rhd)), l, r)


def _dual_pre_novikov_rep_matrices(alg: PreNovikovAlgebra) -> PreNovikovRep:
    """The dual of the adjoint quadruple, built directly from the tables."""
    maps = evaluate(dual_pre_novikov_spec("L>", "R>", "L<", "R<"), {"<": alg.lhd.c, ">": alg.rhd.c})
    return PreNovikovRep(alg, maps["l_rhd"], maps["r_rhd"], maps["l_lhd"], maps["r_lhd"])


def co2_equivalence(alg: PreNovikovAlgebra, r: Tensor2) -> tuple[bool, bool, bool]:
    """Three independently computed verdicts for a symmetric r:

    (a) the Yang-Baxter residual vanishes;
    (b) T_r is an O-operator for the associated Novikov algebra on the dual
        module with actions (L>* + R<*, -R<*);
    (c) T_r is an O-operator for the two products with the dual adjoint
        quadruple.

    The three routes share only the core tensor layer.
    """
    n = alg.dim
    _check_square(r, n, "r")
    if flip(r) != r:
        raise InputError("r must be symmetric")
    verdict_a = t3_is_zero(ybe_residual(alg, r))
    T = t_r_from_tensor(r)
    nov_rep = _dual_novikov_rep_matrices(alg)
    verdict_b = check_o_operator_novikov(nov_rep.algebra, nov_rep, T).passed
    pre_rep = _dual_pre_novikov_rep_matrices(alg)
    verdict_c = check_o_operator_pre_novikov(alg, pre_rep, T).passed
    return (verdict_a, verdict_b, verdict_c)


def lift_o_operator(alg: PreNovikovAlgebra, rep: PreNovikovRep, T: Matrix) -> tuple[PreNovikovAlgebra, Tensor2]:
    """Lift an operator to a symmetric tensor over the semidirect product.

    Builds B = algebra (x| dual module via the dual representation, forms
    r_T = sum_i T(v_i) (x) v_i* (T placed as the (algebra, dual module) block
    of a zero matrix) and r = r_T + tau(r_T), and asserts the
    biconditional: r solves the Yang-Baxter equation in B exactly when T
    passes the O-operator check.  T itself need not be verified.
    """
    if rep.algebra != alg:
        raise InputError("representation was built over a different algebra")
    n, mdim = alg.dim, rep.module_dim
    _check_t_shape(T, n, mdim)
    rep_v = rep if rep.verified else verify_pre_novikov_rep(rep)
    dual = dual_pre_novikov_rep(rep_v)
    semi = semidirect_pre_novikov(alg, dual)
    r_t = np.full((n + mdim, n + mdim), ZERO, dtype=object)
    r_t[:n, n:] = T
    r = tuple(map(tuple, r_t + r_t.T))
    residual_zero = t3_is_zero(ybe_residual(semi, r))
    operator_ok = check_o_operator_pre_novikov(alg, rep_v, T).passed
    if residual_zero != operator_ok:
        raise InternalCheckError(
            "lift biconditional violated: residual-zero "
            f"{residual_zero} but operator check {operator_ok}"
        )
    return semi, r


# ---------------------------------------------------------------------------
# exhaustive search for symmetric solutions
# ---------------------------------------------------------------------------

def _upper_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _workers_from_env() -> int:
    raw = os.environ.get("PRENOVIKOV_WORKERS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise InputError(f"PRENOVIKOV_WORKERS must be an integer, got {raw!r}")
    if w < 1:
        raise InputError("PRENOVIKOV_WORKERS must be >= 1")
    return w


def _pool_size(workers: int, tasks: int) -> int:
    """Search threads: no more than requested, than cores, or than tasks."""
    return max(1, min(workers, os.cpu_count() or 1, tasks))


def search_symmetric_ybe(
    alg: PreNovikovAlgebra,
    value_set,
    max_candidates: int = 2_000_000,
    workers: Optional[int] = None,
) -> list[Tensor2]:
    """All symmetric tensors with entries in ``value_set`` and zero residual.

    The search space has ``len(value_set) ** (n(n+1)/2)`` members and is
    refused beyond ``max_candidates``.  It is searched row by row (see
    ``_search_rows``) in integers, after clearing denominators.  The hits are
    re-verified by a second theorem route, the operator form: T_r is an
    O-operator of the dual adjoint quadruple (4.29 and 4.30, see
    ``_o_operator_ok``).  They are returned sorted lexicographically by
    upper-triangle coordinates.
    """
    values = sorted({Fraction(v) for v in value_set})
    if not values:
        raise InputError("value_set must be nonempty")
    n = alg.dim
    positions = _upper_positions(n)
    space = len(values) ** len(positions)
    if space > max_candidates:
        raise InputError(
            f"search space has {space} candidates, beyond the budget of {max_candidates}"
        )
    workers = workers if workers is not None else _workers_from_env()

    ints = _integer_tables(alg)
    scaled, val_scale = _lift({"v": values})
    hits = _search_rows({name: ints[name] for name in ("o", "(.)", "<")}, scaled["v"], workers)
    if not _o_operator_ok(ints, hits).all():
        raise InternalCheckError("fast search produced a non-solution")
    hits = hits[np.lexsort([hits[:, i, j] for i, j in reversed(positions)])]
    return list(nested_fractions(hits, val_scale))


_DUAL_QUADRUPLE = {name: dual_pre_novikov_spec("L>", "R>", "L<", "R<")[key] for name, key in (
    ("l>", "l_rhd"), ("r>", "r_rhd"), ("l<", "l_lhd"), ("r<", "r_lhd"))}


def _integer_tables(alg: PreNovikovAlgebra) -> dict:
    """The products o, (.), <, > and the dual adjoint quadruple l>, r>, l<, r<
    of ``alg`` as integer arrays over one common denominator, from one
    kernel call."""
    lifted = contract({**{name: [(1, "ijk->ijk", (name,))] for name in ("o", "(.)", "<", ">")},
                       **_DUAL_QUADRUPLE}, {"<": alg.lhd.c, ">": alg.rhd.c})
    return {name: num for name, (num, _) in lifted.items()}


def _o_operator_ok(ints: dict, hits: np.ndarray) -> np.ndarray:
    """Which of a batch of integer symmetric r make T_r (the matrix r itself)
    an O-operator of the dual adjoint quadruple: identities 4.29 and 4.30,
    evaluated with the batch axis on T, in chunks whose largest einsum array
    stays within ``CHUNK_BYTES``.  By the operator-form theorem these are
    exactly the r with a zero 4.13 residual.

    ``ints`` is ``_integer_tables``; the identities are homogeneous in T and
    in the tables, so the scales of both leave the verdict unchanged.
    """
    specs = {code: labels.SPECS[code][1] for code in labels.O_OPERATOR_PRE_NOVIKOV}
    chunk = _chunk(specs.values(), {"T": hits.shape, **{k: a.shape for k, a in ints.items()}}, "T")
    ok = np.ones(len(hits), dtype=bool)
    for k in range(0, len(hits), chunk):
        res = sum_batched(specs, {"T": hits[k : k + chunk], **ints}, batch={"T"})
        ok[k : k + chunk] = ~np.any([(r.reshape(len(r), -1) != 0).any(axis=1) for r in res.values()], axis=0)
    return ok


# Bytes of the largest einsum array one search or re-verification chunk may
# form: the chunk length follows from the plans' largest array per candidate.
CHUNK_BYTES = 4 * 2**20

# Bytes of candidates one row of the search may keep.  Past it the search is
# refused before the row's chunks are joined: on the zero algebra at dim 4,
# -1,0,1 keeps 59,049 candidates (7.6 MB), -1,0,1,2 would keep 1,048,576.
SURVIVOR_BYTES = 16 * 2**20


def _search_rows(ints: dict, scaled: np.ndarray, workers: int) -> np.ndarray:
    """Symmetric integer tensors over ``scaled`` whose 4.13 residual vanishes.

    Entry (a, b, c) of the residual reads only rows a, b and c of a symmetric
    r.  The upper triangle is filled row by row: placing row k multiplies the
    batch by ``len(scaled)`` per entry of the row, after which every residual
    entry with max(a, b, c) <= k is final, so candidates with a nonzero one
    are dropped.  After the last row all n**3 entries have been checked.

    Each row runs in chunks whose largest einsum array stays within
    ``CHUNK_BYTES``, and a row keeping more than ``SURVIVOR_BYTES`` of
    candidates is refused with ``InputError``.
    """
    n = ints["<"].shape[0]
    base = len(scaled)
    terms = labels.SPECS[labels.YBE][1]
    batch = np.zeros((1, n, n), dtype=scaled.dtype)
    for k in range(n):
        fan = base ** (n - k)
        total = len(batch) * fan

        def eval_chunk(lo: int, hi: int) -> np.ndarray:
            t = np.arange(lo, hi)
            R = batch[t // fan]
            for j in range(k, n):
                v = scaled[t // base ** (n - 1 - j) % base]
                R[:, k, j] = v
                R[:, j, k] = v
            res = sum_batched({"": terms}, {"r": R, **ints}, batch={"r"})[""]
            final = res[:, : k + 1, : k + 1, : k + 1].reshape(hi - lo, -1)
            return R[~(final != 0).any(axis=1)]

        length = -(-total // _pool_size(workers, total))
        shapes = {"r": (length, n, n), **{name: a.shape for name, a in ints.items()}}
        chunk = min(length, _chunk([terms], shapes, "r"))
        ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        threads = _pool_size(workers, len(ranges))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                try:
                    parts = _kept(pool.map(lambda rg: eval_chunk(*rg), ranges), k)
                except InputError:
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            parts = _kept((eval_chunk(*rg) for rg in ranges), k)
        batch = np.concatenate(parts)
        if not len(batch):
            break
    return batch


def _chunk(term_lists, shapes: dict, name: str) -> int:
    """Candidates per kernel call, batched on ``name``, such that the largest
    einsum array of any of the term lists stays within ``CHUNK_BYTES``."""
    member = max(_terms_plan(terms, shapes, frozenset((name,))).peak for terms in term_lists)
    return max(1, CHUNK_BYTES // (member * np.dtype(np.int64).itemsize))


def _kept(parts, row: int) -> list:
    """The survivor chunks of one search row, refused once they hold more
    than ``SURVIVOR_BYTES``."""
    kept, held = [], 0
    for part in parts:
        kept.append(part)
        held += part.nbytes
        if held > SURVIVOR_BYTES:
            raise InputError(
                f"search row {row + 1} keeps {sum(map(len, kept))} candidates so far, "
                f"beyond the bound of {SURVIVOR_BYTES} bytes"
            )
    return kept
