"""Novikov and pre-Novikov algebra data, axiom verifiers, and derived products.

Verifiers never assume the axioms hold; constructors that need a verified
premise run the matching checker themselves and refuse (with the failing
report) when it does not pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import labels
from .core import (
    INT64_MAX,
    InputError,
    InternalCheckError,
    Matrix,
    RefusalError,
    Scalar,
    StructureConstants,
    Vector,
    eliminate,
    evaluate,
    exact_det,
    mat_transpose,
    nested_fractions,
    overflow_bound,
    sum_terms,
)
from .report import Report, ReportBuilder, default_labels


@dataclass(frozen=True)
class NovikovAlgebra:
    op: StructureConstants

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class PreNovikovAlgebra:
    lhd: StructureConstants
    rhd: StructureConstants

    def __post_init__(self):
        if self.lhd.dim != self.rhd.dim:
            raise InputError("the two product tables must share a dimension")

    @property
    def dim(self) -> int:
        return self.lhd.dim


@dataclass(frozen=True)
class FormMatrix:
    dim: int
    w: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = self.dim
        if len(self.w) != n or any(len(row) != n for row in self.w):
            raise InputError(f"form matrix must be {n}x{n}")

    def pair(self, u: Vector, v: Vector) -> Scalar:
        return sum(
            (ui * self.w[i][j] * vj for i, ui in enumerate(u) if ui
             for j, vj in enumerate(v) if vj),
            Fraction(0),
        )


def sum_table(lhd: StructureConstants, rhd: StructureConstants) -> StructureConstants:
    """The table of a o b = a<b + a>b, with no validity requirement."""
    return lhd.add(rhd)


def check_novikov(op: StructureConstants, basis=None) -> Report:
    """Evaluate both Novikov identities on every basis triple."""
    rb = ReportBuilder("novikov", labels.NOVIKOV, basis or default_labels(op.dim))
    rb.check({"o": op.c})
    return rb.build()


def check_pre_novikov(lhd: StructureConstants, rhd: StructureConstants, basis=None) -> Report:
    """Evaluate the four pre-Novikov identities (with o = < + >) on every triple."""
    if lhd.dim != rhd.dim:
        raise InputError("dimension mismatch between < and > tables")
    rb = ReportBuilder("pre_novikov", labels.PRE_NOVIKOV, basis or default_labels(lhd.dim))
    rb.check({"<": lhd.c, ">": rhd.c})
    return rb.build()


def associated_novikov(alg: PreNovikovAlgebra) -> NovikovAlgebra:
    """The Novikov algebra with product a o b = a<b + a>b; refuses invalid input."""
    report = check_pre_novikov(alg.lhd, alg.rhd)
    if not report.passed:
        raise RefusalError("input is not a pre-Novikov algebra", report)
    out = NovikovAlgebra(sum_table(alg.lhd, alg.rhd))
    if not check_novikov(out.op).passed:
        raise InternalCheckError("sum of a valid pre-Novikov pair failed the Novikov check")
    return out


def derived_ops(alg: PreNovikovAlgebra) -> tuple[StructureConstants, StructureConstants]:
    """The derived products a(.)b = a>b + b<a and a(*)b = a o b + b o a, as
    ``labels.OPERANDS`` defines them."""
    ops = evaluate({name: labels.OPERANDS[name] for name in ("(.)", "(*)")},
                   {"<": alg.lhd.c, ">": alg.rhd.c})
    return StructureConstants(alg.dim, ops["(.)"]), StructureConstants(alg.dim, ops["(*)"])


def check_quasi_frobenius(op: StructureConstants, w: FormMatrix, basis=None) -> Report:
    """Skewsymmetry, exact nondegeneracy, and the 2-cocycle-type identity."""
    if op.dim != w.dim:
        raise InputError("form/algebra dimension mismatch")
    n = op.dim
    rb = ReportBuilder(
        "quasi_frobenius",
        (labels.QF_SKEW, labels.QF_NONDEGENERATE, labels.QF_COCYCLE),
        basis or default_labels(n),
    )
    for i in range(n):
        for j in range(i, n):
            if w.w[i][j] != -w.w[j][i]:
                rb.residual(labels.QF_SKEW, (i, j), (w.w[i][j] + w.w[j][i],))
    if exact_det(w.w) == 0:
        rb.flag(labels.QF_NONDEGENERATE, "determinant is zero")
    rb.check({"o": op.c, "w": w.w})
    return rb.build()


def form_iso(w: FormMatrix) -> Matrix:
    """The matrix of T: dual -> space with w(T(f), a) = <f, a>.

    In coordinates (T f)^T W a = f^T a for all a, so T = (W^T)^{-1}, found by
    one ``eliminate``.
    """
    inverse = eliminate(mat_transpose(w.w))[1]
    if inverse is None:
        raise InputError("form is degenerate")
    return nested_fractions(*inverse)


def pre_novikov_from_qf(op: StructureConstants, w: FormMatrix) -> PreNovikovAlgebra:
    """The compatible pre-Novikov structure of a quasi-Frobenius Novikov algebra.

    Solves w(a>b, c) = w(a o c + c o a, b) and w(a<b, c) = w(a, c o b) for the
    two products, then cross-checks against the dual-transport construction
    a>b = T((Lo* + Ro*)(a) T^{-1} b), a<b = T((-Ro*)(b) T^{-1} a); the two
    routes disagreeing is a bug, not an input condition.
    """
    report = check_quasi_frobenius(op, w)
    if not report.passed:
        raise RefusalError("form is not quasi-Frobenius for this product", report)
    return _split_qf(op, w)


def _split_qf(op: StructureConstants, w: FormMatrix) -> PreNovikovAlgebra:
    """``pre_novikov_from_qf`` on a pair whose quasi-Frobenius check passed."""
    # w(z, e_k) = d_k is solved by z = T d; the dual-transport route goes
    # through W^T = T^{-1} instead
    routes = evaluate({
        ">": [(1, "tk,ikm,mj->ijt", ("T", "(*)", "w"))],
        "<": [(1, "tk,im,kjm->ijt", ("T", "w", "o"))],
        "dual >": [(-1, "ty,ixy,jx->ijt", ("T", "Lo+Ro", "w"))],
        "dual <": [(1, "ty,jxy,ix->ijt", ("T", "Ro", "w"))],
    }, {"o": op.c, "w": w.w, "T": form_iso(w)})
    if routes["dual >"] != routes[">"] or routes["dual <"] != routes["<"]:
        raise InternalCheckError("direct and dual-transport constructions disagree")
    lhd, rhd = (StructureConstants(op.dim, routes[name]) for name in "<>")
    if sum_table(lhd, rhd).c != op.c:
        raise InternalCheckError("recovered products do not sum to the input product")
    out = PreNovikovAlgebra(lhd, rhd)
    sub = check_pre_novikov(lhd, rhd)
    if not sub.passed:
        raise InternalCheckError("quasi-Frobenius data produced an invalid pre-Novikov pair")
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration of small pre-Novikov algebras
# ---------------------------------------------------------------------------

ENUM_DIM = 2  # the dimension of the enumerated algebras
ENUM_TABLE_LIMIT = 4**8  # tables per product; stage 1 builds them all up front
ENUM_CHUNK = 50_000  # batch members per stage-2 or stage-3 kernel call


def _int_tables(values, dtype) -> np.ndarray:
    """Every ``ENUM_DIM``-dimensional table with entries in ``values``, in
    lexicographic order of the flattened entries."""
    n = ENUM_DIM
    grids = np.array(list(itertools.product(values, repeat=n**3)), dtype=dtype)
    return grids.reshape(-1, n, n, n)


def frac_int(v) -> int:
    f = Fraction(v)
    if f.denominator != 1:
        raise InputError("enumeration values must be integers")
    return int(f)


def _sweep_dtype(vals) -> type:
    """int64 when ``overflow_bound`` certifies 2.8-2.11 on tables with
    entries in ``vals`` (so ``o`` = < + > up to twice as large), else object."""
    top = max(map(abs, vals))
    shapes = dict.fromkeys(("<", ">", "o"), (ENUM_DIM,) * 3)
    maxabs = {"<": top, ">": top, "o": 2 * top}
    bound = max(overflow_bound(labels.SPECS[code][1], shapes, maxabs) for code in labels.PRE_NOVIKOV)
    return np.int64 if bound <= INT64_MAX else object


def _batch_zero(code: str, ops: dict, witness=slice(None)) -> np.ndarray:
    """Which members of a batch of integer tables have an all-zero residual of
    identity ``code`` at first witness index ``witness`` (at all by default)."""
    res = sum_terms(labels.SPECS[code][1], ops, batch=frozenset(ops))[:, witness]
    return np.all(res.reshape(len(res), -1) == 0, axis=1)


def enumerate_dim2_pre_novikov(values=(-1, 0, 1)) -> list[PreNovikovAlgebra]:
    """All dimension-2 pre-Novikov table pairs with entries in ``values``.

    The full pair space has ``len(values)**16`` members, so enumeration is
    staged, in integer arithmetic (int64 when ``overflow_bound`` certifies it,
    Python ints otherwise):

    1. the pure-< identity 2.11, (a<b)<c = (a<c)<b, filters the < tables;
    2. identity 2.9, a>(b<c) = (a>b)<c + b<(a o c) - (b<a)<c, runs row by row
       of >: its residual at witness (i, j, k) reads > only as a>b, a>(.) and
       a o c with a = e_i, that is only row i of > (and of o = < + >).  So for
       each surviving < table and each row index i, every candidate row is
       placed as row i of an otherwise-zero > table and kept when the witness-i
       slice of the residual is zero; the > tables satisfying 2.9 are the
       products of the kept rows, row 0 outermost (lexicographic order);
    3. identities 2.10 and then 2.8 run over those (<, >) pairs only.

    With values -1, 0, 1 that is 817 < tables after stage 1, 2 x 817 x 81 row
    evaluations in stage 2 and 8,041 pairs in stage 3 (against 817 x 6,561 =
    5.36M for the full pair space), leaving 257 algebras.  Every survivor is
    re-verified through the exact checker before being returned; a
    disagreement between the fast path and the checker raises.  Values are
    deduplicated and sorted, and more than ``ENUM_TABLE_LIMIT`` tables per
    product are refused.  Results come in lexicographic order of (<, >), are
    memoized per value set, and each call returns a fresh list.
    """
    vals = tuple(frac_int(v) for v in sorted({Fraction(v) for v in values}))
    count = len(vals) ** ENUM_DIM**3
    if count > ENUM_TABLE_LIMIT:
        raise InputError(
            f"{len(vals)} values give {count} tables per product, "
            f"beyond the limit of {ENUM_TABLE_LIMIT}"
        )
    return list(_enumerate(vals))


def _row_pairs(lhd_ok: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Stage 2: every (<, >) pair satisfying 2.9, as index rows
    ``(index into lhd_ok, index into rows for each row of >)``, in
    lexicographic order."""
    n = ENUM_DIM
    per_block = max(1, ENUM_CHUNK // len(rows))
    pairs = [np.empty((0, n + 1), dtype=np.intp)]
    for lstart in range(0, len(lhd_ok), per_block):
        lblock = lhd_ok[lstart : lstart + per_block]
        L = np.repeat(lblock, len(rows), axis=0)
        masks = []
        for i in range(n):
            R = np.zeros_like(L)
            R[:, i] = np.tile(rows, (len(lblock), 1, 1))
            ok = _batch_zero("2.9", {"<": L, ">": R, "o": L + R}, witness=i)
            masks.append(ok.reshape(len(lblock), len(rows)))
        for l, row_ok in enumerate(zip(*masks), start=lstart):
            grid = np.meshgrid(*map(np.flatnonzero, row_ok), indexing="ij")
            pairs.append(np.stack([np.full_like(grid[0], l), *grid], axis=-1).reshape(-1, n + 1))
    return np.concatenate(pairs)


@functools.lru_cache(maxsize=8)
def _enumerate(vals: tuple[int, ...]) -> tuple[PreNovikovAlgebra, ...]:
    n = ENUM_DIM
    tables = _int_tables(vals, _sweep_dtype(vals))  # (m, n, n, n)
    # the first len(vals)**(n*n) tables hold vals[0] in every row but the
    # last, which runs over every candidate row in lexicographic order
    rows = tables[: len(vals) ** (n * n), -1]

    # Stage 1: (a<b)<c = (a<c)<b, pure in <.
    lhd_ok = tables[_batch_zero("2.11", {"<": tables})]

    # Stage 2: 2.9, row by row of >.
    pairs = _row_pairs(lhd_ok, rows)

    # Stage 3: 2.10, then 2.8 on the pairs that pass it.
    survivors = []
    for start in range(0, len(pairs), ENUM_CHUNK):
        chunk = pairs[start : start + ENUM_CHUNK]
        L, R = lhd_ok[chunk[:, 0]], rows[chunk[:, 1:]]
        O = L + R
        keep = np.flatnonzero(_batch_zero("2.10", {"<": L, ">": R, "o": O}))
        if not len(keep):
            continue
        keep = keep[_batch_zero("2.8", {"<": L[keep], ">": R[keep], "o": O[keep]})]
        survivors.extend(zip(L[keep], R[keep]))

    out = []
    for lt, rt in survivors:
        alg = PreNovikovAlgebra(
            StructureConstants.from_rows([[list(map(int, row)) for row in plane] for plane in lt]),
            StructureConstants.from_rows([[list(map(int, row)) for row in plane] for plane in rt]),
        )
        if not check_pre_novikov(alg.lhd, alg.rhd).passed:
            raise InternalCheckError("fast enumeration accepted a pair the checker rejects")
        out.append(alg)
    return tuple(out)
