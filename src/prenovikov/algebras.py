"""Novikov and pre-Novikov algebra data, axiom verifiers, and derived products.

Verifiers never assume the axioms hold; constructors that need a verified
premise run the matching checker themselves and refuse (with the failing
report) when it does not pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core, labels
from .core import (
    Exact,
    InputError,
    InternalCheckError,
    Matrix,
    RefusalError,
    Scalar,
    StructureConstants,
    Vector,
    eliminate,
    evaluate,
    exact,
    exact_det,
    fit_letters,
    fraction_texts,
    held,
    sum_batched,
    zero_mask,
    zero_members,
)
from .report import Report, Tree, default_labels, verify, whole


@dataclass(frozen=True)
class NovikovAlgebra:
    op: StructureConstants

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def tables(self) -> dict:
        """The product as the kernel operand o."""
        return {"o": self.op.table}


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

    @property
    def tables(self) -> dict:
        """The two products as the kernel operands < and >."""
        return {"<": self.lhd.table, ">": self.rhd.table}


@dataclass(frozen=True)
class FormMatrix:
    """A bilinear form, held as the ``Exact`` array ``tables["w"]``."""

    dim: int
    w: tuple[tuple[Scalar, ...], ...] = held("w")

    def __post_init__(self):
        fit_letters("form matrix", "nn", self.tables["w"].shape, {"n": self.dim})

    def pair(self, u: Vector, v: Vector) -> Scalar:
        value = evaluate({"": [(1, "i,ij,j->", ("u", "w", "v"))]}, {"u": u, **self.tables, "v": v})[""]
        return Fraction(int(value.num), value.den)


def check_novikov(op: StructureConstants, basis=None) -> Report:
    """Evaluate both Novikov identities on every basis triple."""
    return verify(Tree("novikov", labels.NOVIKOV, basis or default_labels(op.dim)), {"o": op.table})


def check_pre_novikov(lhd: StructureConstants, rhd: StructureConstants, basis=None) -> Report:
    """Evaluate the four pre-Novikov identities (with o = < + >) on every triple."""
    return verify(Tree("pre_novikov", labels.PRE_NOVIKOV, basis or default_labels(lhd.dim)),
                  {"<": lhd.table, ">": rhd.table})


def check_quasi_frobenius(op: StructureConstants, w: FormMatrix, basis=None) -> Report:
    """Skewsymmetry, exact nondegeneracy, and the 2-cocycle-type identity."""
    return verify(_qf_tree(basis or default_labels(w.dim), exact_det(w.tables["w"])), {"o": op.table, **w.tables})


def _qf_tree(lab, det) -> Tree:
    """The quasi-Frobenius report of a form of determinant ``det``: 2.14, the
    nondegenerate row, and a skew row per i <= j off its value w + w^T."""
    def rows(values: dict) -> list:
        skew = values["skew"]  # (it indexes w; the kernel refuses any other op size)
        at = np.nonzero(np.triu(skew.num))
        entries = skew.num[at].tolist()
        text = fraction_texts(entries, skew.den)
        return [(labels.QF_NONDEGENERATE, (), (), ("determinant is zero",))] * (det == 0) + [
            (labels.QF_SKEW, (i, j), (lab[i], lab[j]), (text[v],))
            for i, j, v in zip(*(a.tolist() for a in at), entries)]

    return Tree("quasi_frobenius", (labels.QF_SKEW, labels.QF_NONDEGENERATE, labels.QF_COCYCLE), lab,
                values={"skew": [(1, "ij->ij", ("w",)), (1, "ji->ij", ("w",))]}, rows=rows)


def form_iso(w: FormMatrix) -> Matrix:
    """The matrix of T: dual -> space with w(T(f), a) = <f, a>.

    In coordinates (T f)^T W a = f^T a for all a, so T = (W^T)^{-1}, found by
    one ``eliminate``.
    """
    inverse = eliminate(w.tables["w"].T)[1]
    if inverse is None:
        raise InputError("form is degenerate")
    return inverse.nested


# The products solving w(a>b, c) = w(a (*) c, b) and w(a<b, c) = w(a, c o b): w(z, e_k) = d_k is solved by z = T d
_SPLIT = {">": [(1, "tk,ikm,mj->ijt", ("T", "(*)", "w"))], "<": [(1, "tk,im,kjm->ijt", ("T", "w", "o"))]}


def _qf_stage(op: StructureConstants, w: FormMatrix, lab) -> Report:
    """The Novikov and quasi-Frobenius checks of (op, w) with the split
    products as values, from one kernel call; T = (W^T)^{-1} is zero for a
    degenerate w, which fails the check."""
    det, inverse = eliminate(w.tables["w"].T)
    T = inverse if inverse is not None else Exact(np.zeros((w.dim, w.dim), dtype=np.int64))
    sections = (Tree("novikov", labels.NOVIKOV, lab), _qf_tree(lab, det))
    return verify(Tree("quasi_frobenius_novikov", (), lab, sections=sections, values=_SPLIT),
                  {"o": op.table, **w.tables, "T": T})


def pre_novikov_from_qf(op: StructureConstants, w: FormMatrix) -> PreNovikovAlgebra:
    """The compatible pre-Novikov structure of a quasi-Frobenius Novikov algebra.

    Solves w(a>b, c) = w(a o c + c o a, b) and w(a<b, c) = w(a, c o b) for the
    two products, and checks that they are a pre-Novikov pair summing to o.
    The dual-transport construction a>b = T((Lo* + Ro*)(a) T^{-1} b),
    a<b = T((-Ro*)(b) T^{-1} a) gives the same sums for skew w, as a test checks.
    """
    stage = _qf_stage(op, w, default_labels(w.dim))
    if not stage.sections[1].passed:
        raise RefusalError("form is not quasi-Frobenius for this product", stage.sections[1])
    return _split_qf(op, stage)


def _split_qf(op: StructureConstants, stage: Report) -> PreNovikovAlgebra:
    """The split products of a passing ``_qf_stage``, checked in one call."""
    lhd, rhd = (StructureConstants(op.dim, stage.values[name]) for name in "<>")
    check = verify(Tree("pre_novikov", labels.PRE_NOVIKOV, stage.labels, values=whole("o")),
                   {"<": lhd.table, ">": rhd.table})
    if check.values["o"] != op.table:
        raise InternalCheckError("theorem (_split_qf): the recovered products do not sum to o")
    if not check.passed:
        raise InternalCheckError("theorem (_split_qf): the recovered products are not pre-Novikov")
    return PreNovikovAlgebra(lhd, rhd)


# ---------------------------------------------------------------------------
# exhaustive enumeration of small pre-Novikov algebras
# ---------------------------------------------------------------------------

ENUM_DIM = 2  # the dimension of the enumerated algebras
ENUM_TABLE_LIMIT = 4**8  # tables per product; stage 1 builds them all up front


def _int_tables(values) -> np.ndarray:
    """Every ``ENUM_DIM``-dimensional table with entries in ``values``, in
    lexicographic order of the flattened entries: int64 when every value
    fits, Python ints otherwise (the rule of ``core.Exact``)."""
    n = ENUM_DIM
    v = exact(values).num
    return v[np.indices((len(v),) * n**3).reshape(n**3, -1).T].reshape(-1, n, n, n)


def _specs(*codes: str) -> dict:
    """The term lists of identities ``codes``, by code."""
    return {code: labels.SPECS[code][1] for code in codes}


def enumerate_dim2_pre_novikov(values=(-1, 0, 1)) -> list[PreNovikovAlgebra]:
    """All dimension-2 pre-Novikov table pairs with entries in ``values``.

    The full pair space has ``len(values)**16`` members, so enumeration is
    staged, in integer arithmetic (each kernel call in int64 when its bound
    certifies it, on Python ints otherwise):

    1. the pure-< identity 2.11, (a<b)<c = (a<c)<b, filters the < tables;
    2. identity 2.9, a>(b<c) = (a>b)<c + b<(a o c) - (b<a)<c, runs row by row
       of >: its residual at witness (i, j, k) reads > only as a>b, a>(.) and
       a o c with a = e_i, that is only row i of > (and of o = < + >), and
       it is affine in that row.  So for each surviving < table and each row
       index i the witness-i slice is evaluated on the zero row and the unit
       rows only, every candidate row's slice follows by one kernel matmul
       (see ``_row_pairs``), and the > tables satisfying 2.9 are the products
       of the rows whose slice is zero, row 0 outermost (lexicographic order);
    3. identities 2.10 and then 2.8 run over those (<, >) pairs only.

    With values -1, 0, 1 that is 817 < tables after stage 1, 2 x 817 x 5
    probe-row evaluations in stage 2 and 8,041 pairs in stage 3 (against
    817 x 6,561 = 5.36M for the full pair space), leaving 257 algebras.  All
    survivors are re-verified in one batched call through 4.18-4.27 on the
    regular quadruple (``_regular_quadruple_ok``), a guard on the staging, not
    the specs; a disagreement with the fast path raises.  Values are exact
    scalars, deduplicated and sorted; more than ``ENUM_TABLE_LIMIT`` tables per
    product are refused.  Results come in lexicographic order of (<, >), are
    memoized per value set, and each call returns a fresh list.
    """
    vals = core.scalar_set(values, "enumeration values")
    if any(v.denominator != 1 for v in vals):
        raise InputError("enumeration values must be integers")
    vals = tuple(map(int, vals))
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
    lexicographic order.

    The witness-i slice of the 2.9 residual is affine in row i of >: with the
    row flattened to v it is C + v D, where C is the slice at the zero row and
    row p of D the slice at the p-th unit row minus C.  So the spec runs on
    those 1 + n**2 probe rows per (< table, i), and the slices of all
    candidate rows are one kernel term, [1 | V] @ [C ; D].  The index rows
    are built from the masks one row of > at a time, for a block of < tables
    at once.  The blocks are as few as keep each block's candidate-row
    slices (n**4 * len(rows) entries per < table) within
    ``core.BATCH_BYTES`` at 8 bytes an entry, and of one length up to
    rounding.  A block's slices are tested by ``core.zero_members``, in
    shorter chunks when the kernel charges them past it (on Python ints),
    so 2.9 runs once per < table.
    """
    n = ENUM_DIM
    probes = np.eye(n * n + 1, n * n, k=-1, dtype=np.int64).reshape(-1, n, n)
    V = rows.reshape(len(rows), n * n)
    V = np.concatenate([np.ones_like(V[:, :1]), V], axis=1)  # [1 | V]
    fit = max(1, core.BATCH_BYTES // (8 * n**4 * len(rows)))  # < tables per block at most
    per_block = max(1, -(-len(lhd_ok) // max(1, -(-len(lhd_ok) // fit))))  # as few blocks, of one length
    pairs, lstart = [np.empty((0, n + 1), dtype=np.intp)], 0
    while lstart < len(lhd_ok):
        lblock = lhd_ok[lstart : lstart + per_block]
        b = len(lblock)
        # member (l, i, p) holds < table l and probe row p as row i of >
        L = np.repeat(lblock, n * len(probes), axis=0)
        R = np.zeros_like(L)
        for i in range(n):
            R.reshape(b, n, len(probes), n, n, n)[:, i, :, i] = probes
        res = sum_batched({"2.9": labels.SPECS["2.9"][1]}, {"<": L, ">": R}, batch={"<", ">"})["2.9"]
        res = res.reshape(b, n, len(probes), n, -1)
        S = np.stack([res[:, i, :, i] for i in range(n)], axis=1)  # (b, n, probe, slice)
        # D in place: an entry of D sums the parts of the 2.9 terms that read
        # row i, at a unit row, so it stays under the bound that certified res
        S[:, :, 1:] -= S[:, :, :1]
        spec = {"": [(1, "cp,ips->ics", ("V", "S"))]}  # [1 | V] @ [C ; D]: (b, n, candidate row, slice)
        ok = np.concatenate([ok for _, ok in zero_members(spec, b, lambda lo, hi: {"S": S[lo:hi]}, {"V": V}, 3)])

        # extend each partial index row (l, row_0..row_{i-1}) by the rows
        # kept for row i of table l, in order: np.nonzero runs row-major
        idx = np.arange(b)[:, None]
        for i in range(n):
            at, kept = np.nonzero(ok[idx[:, 0], i])
            idx = np.column_stack([idx[at], kept])
        idx[:, 0] += lstart
        pairs.append(idx)
        lstart += b
    return np.concatenate(pairs)


def _regular_quadruple_ok(lhd: np.ndarray, rhd: np.ndarray) -> np.ndarray:
    """Which members of a batch of integer (<, >) table pairs have a regular
    quadruple (L>, R>, L<, R<) satisfying the representation identities
    4.18-4.27.

    That is exactly the pre-Novikov pairs: the regular quadruple of a
    pre-Novikov algebra is a representation, and on it 4.18, 4.19, 4.25 and
    4.26 are 2.8, 2.9, 2.10 and 2.11 with the letters renamed.
    """
    def quadruple(lo: int, hi: int) -> dict:  # l> = L>, r> = R>, l< = L<, r< = R<
        tables = {"<": lhd[lo:hi], ">": rhd[lo:hi]}
        maps = sum_batched({name.lower(): labels.OPERANDS[name] for name in ("L>", "R>", "L<", "R<")},
                           tables, batch=tables)
        return {**tables, **maps}

    return zero_mask(_specs(*labels.PRE_NOVIKOV_REP), len(lhd), quadruple)


@functools.lru_cache(maxsize=8)
def _enumerate(vals: tuple[int, ...]) -> tuple[PreNovikovAlgebra, ...]:
    n = ENUM_DIM
    tables = _int_tables(vals)  # (m, n, n, n)
    # the first len(vals)**(n*n) tables hold vals[0] in every row but the
    # last, which runs over every candidate row in lexicographic order
    rows = tables[: len(vals) ** (n * n), -1]

    # Stage 1: (a<b)<c = (a<c)<b, pure in <.
    lhd_ok = tables[zero_mask(_specs("2.11"), len(tables), lambda lo, hi: {"<": tables[lo:hi]})]

    # Stage 2: 2.9, row by row of >.
    pairs = _row_pairs(lhd_ok, rows)

    # Stage 3: 2.10, then 2.8 on the pairs that pass it.  2.8 does not follow
    # from 2.9-2.11: at dim 3, < = 0 with e1>e2 = e3 and e2>e3 = e3 fails it
    # alone, though at dim 2 no pair tried has shown that.
    def pair(lo: int, hi: int) -> dict:
        return {"<": lhd_ok[pairs[lo:hi, 0]], ">": rows[pairs[lo:hi, 1:]]}

    lefts, rights = [tables[:0]], [tables[:0]]
    for ops, ok in zero_members(_specs("2.10"), len(pairs), pair):
        L, R = ops["<"][ok], ops[">"][ok]
        keep = zero_mask(_specs("2.8"), len(L), lambda lo, hi: {"<": L[lo:hi], ">": R[lo:hi]})
        lefts.append(L[keep])
        rights.append(R[keep])

    lhd, rhd = np.concatenate(lefts), np.concatenate(rights)
    if len(lhd) and not _regular_quadruple_ok(lhd, rhd).all():
        raise InternalCheckError("staging (_enumerate): the regular quadruple rejects a kept pair")
    return tuple(
        PreNovikovAlgebra(StructureConstants(n, Exact(lt)), StructureConstants(n, Exact(rt)))
        for lt, rt in zip(lhd, rhd)
    )
