"""Matched pairs of Novikov algebras and double constructions.

Basis order on the double space is always (e_1..e_n, e_1*..e_n*).  The
construction route from a bialgebra re-verifies everything it builds: the
equivalence theorems become executable checks here instead of assumptions,
and the three equivalent characterizations are exposed as independently
computed verdicts for property testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import labels
from .algebras import FormMatrix, NovikovAlgebra, PreNovikovAlgebra, _qf_stage, _split_qf, check_novikov
from .bialgebra import PreNovikovBialgebra, _bialgebra_tree
from .core import (
    Exact,
    InputError,
    InternalCheckError,
    RefusalError,
    StructureConstants,
    direct_sum_table,
    fit_blocks,
    held,
)
from .report import Report, Tree, default_labels, verify, whole
from .representations import RepMaps


@dataclass(frozen=True)
class MatchedPair:
    """Two products and the actions between them; the actions are held as
    ``Exact`` arrays in ``tables``, under their ``direct_sum_table`` names."""

    a_op: StructureConstants
    b_op: StructureConstants
    l_a: RepMaps = held("lA")  # A acting on B
    r_a: RepMaps = held("rA")
    l_b: RepMaps = held("lB")  # B acting on A
    r_b: RepMaps = held("rB")
    verified: bool = False

    def __post_init__(self):
        fit_blocks(self.tables, self.a_op.dim, self.b_op.dim)


@dataclass(frozen=True)
class DoubleConstruction:
    algebra: NovikovAlgebra
    form: FormMatrix
    split_dim: int
    labels: tuple[str, ...]
    report: Optional[Report] = None


def check_matched_pair(mp: MatchedPair, basis_a=None, basis_b=None) -> Report:
    """Both algebras Novikov, both actions representations, eight mixed
    identities, from one kernel call."""
    return verify(_matched_pair_tree(mp.a_op.dim, mp.b_op.dim, basis_a, basis_b), _tables(mp))


def _matched_pair_tree(n: int, m: int, lab_a=None, lab_b=None, **fields) -> Tree:
    """The report of ``check_matched_pair``, with more fields for a stage.  The
    B-side sections read the specs of A with ``o``, ``l`` and ``r`` renamed
    to ``.``, ``lB`` and ``rB``."""
    lab_a, lab_b = tuple(lab_a or default_labels(n)), tuple(lab_b or default_labels(m, "f"))
    sections = (
        Tree("novikov", labels.NOVIKOV, lab_a),
        Tree("novikov", labels.NOVIKOV, lab_b, rename={"o": "."}),
        Tree("novikov_rep", labels.NOVIKOV_REP, lab_a + lab_b, shift={"v": n}, rename={"l": "lA", "r": "rA"}),
        Tree("novikov_rep", labels.NOVIKOV_REP, lab_b + lab_a, shift={"v": m},
             rename={"o": ".", "l": "lB", "r": "rB"}),
    )
    return Tree("matched_pair", labels.MATCHED_PAIR, lab_a + lab_b, shift={"x": n, "y": n}, sections=sections, **fields)


def _tables(mp: MatchedPair) -> dict:
    """The kernel and block names of a matched pair's tables."""
    return {"o": mp.a_op.table, ".": mp.b_op.table, **mp.tables}


def direct_sum_product(mp: MatchedPair) -> StructureConstants:
    """The product table on A (+) B, with no validity requirement.

    (a+x)(b+y) = (a o b + lB(x)b + rB(y)a) + (x . y + lA(a)y + rA(b)x), the
    six tables placed as blocks by ``direct_sum_table``.
    """
    return direct_sum_table(mp.a_op.dim, mp.b_op.dim, _tables(mp))


def direct_sum_algebra(mp: MatchedPair) -> NovikovAlgebra:
    """The Novikov algebra on A (+) B of a verified matched pair."""
    if not mp.verified:
        report = check_matched_pair(mp)
        if not report.passed:
            raise RefusalError("not a matched pair", report)
        mp = MatchedPair(mp.a_op, mp.b_op, *mp.tables.values(), verified=True)
    out = NovikovAlgebra(direct_sum_product(mp))
    if not check_novikov(out.op).passed:
        raise InternalCheckError("theorem (direct_sum_table): a matched pair's direct sum is not Novikov")
    return out


def standard_form(n: int) -> FormMatrix:
    """The canonical skew pairing w(a+f, b+g) = <f, b> - <g, a> on A (+) A*."""
    if n <= 0:
        raise InputError("dimension must be positive")
    w = np.zeros((2 * n, 2 * n), dtype=np.int64)
    w[range(n), range(n, 2 * n)] = -1
    w[range(n, 2 * n), range(n)] = 1
    return FormMatrix(2 * n, Exact(w))


# The induced matched pair as operands of a bialgebra's tables: A with o and the action (L>* + R<*, -R<*)
# on A*, and A* with the sum of its products <* and >* (of alpha and beta) and their action of that form.
_DUAL = {"<": "<*", ">": ">*"}
_INDUCED = {"lA": "L>*+R<*", "rA": "-R<*", ".": ("o", _DUAL), "lB": ("L>*+R<*", _DUAL), "rB": ("-R<*", _DUAL)}
_PAIR = ("o", ".", "lA", "rA", "lB", "rB")


def _induced(bialg: PreNovikovBialgebra, basis=None) -> Report:
    """The double's first kernel call: the bialgebra check on ``basis`` and
    the induced pair's check on (e1..en, e1*..en*), with the pair's tables
    as values, and <* and >* as the root's."""
    n = bialg.algebra.dim
    lab = default_labels(n) + tuple(f"{x}*" for x in default_labels(n))
    sections = (_bialgebra_tree(basis or default_labels(n)),
                _matched_pair_tree(n, n, lab[:n], lab[n:], rename=_INDUCED, values=whole(*_PAIR)))
    return verify(Tree("induced", (), lab, sections=sections, values=whole("<*", ">*")),
                  {**bialg.algebra.tables, **bialg.coalgebra.tables})


def _pair(stage: Report) -> MatchedPair:
    """The induced matched pair of an ``_induced`` stage, unverified."""
    v = stage.sections[1].values
    return MatchedPair(*(StructureConstants(len(v[k].num), v[k]) for k in "o."), *map(v.get, _PAIR[2:]))


def induced_matched_pair(bialg: PreNovikovBialgebra) -> MatchedPair:
    """The candidate matched pair (A, A*, L>* + R<*, -R<*, L>_** + R<_**, -R<_**).

    Built unconditionally from the bialgebra data; run check_matched_pair to
    find out whether it actually is one.
    """
    return _pair(_induced(bialg))


def _blocks_match(bialg: PreNovikovBialgebra, stage: Report, induced: PreNovikovAlgebra) -> bool:
    """Do both blocks of the induced pre-Novikov structure close and match?

    The product of two elements of A must be the input table's, with no A*
    part, and the product of two elements of A* the dual table's, with no A
    part; the mixed products are not constrained.
    """
    n = bialg.algebra.dim
    a, star = slice(0, n), slice(n, 2 * n)

    def same_blocks(got, table, table_star):
        want = direct_sum_table(n, n, {"o": table.table, ".": table_star}).table
        return all(Exact(got.table.num[rows], got.table.den) == Exact(want.num[rows], want.den)
                   for rows in ((a, a), (star, star)))

    return (same_blocks(induced.lhd, bialg.algebra.lhd, stage.values["<*"])
            and same_blocks(induced.rhd, bialg.algebra.rhd, stage.values[">*"]))


def _double(bialg: PreNovikovBialgebra, stage: Report) -> tuple:
    """The double's other two kernel calls, on an ``_induced`` stage: the
    direct sum, the standard form, their Novikov and quasi-Frobenius reports,
    and whether the split's blocks match (None unless both reports pass)."""
    dsum, w = direct_sum_product(_pair(stage)), standard_form(bialg.algebra.dim)
    qf = _qf_stage(dsum, w, stage.labels)
    match = _blocks_match(bialg, stage, _split_qf(dsum, qf)) if all(s.passed for s in qf.sections) else None
    return dsum, w, qf.sections, match


def has_double_construction(bialg: PreNovikovBialgebra) -> bool:
    """Verdict of the first characterization: the double candidate works.

    Builds the direct-sum product with the standard form and checks: Novikov,
    quasi-Frobenius, and that both blocks of the induced pre-Novikov structure
    close onto the two input table pairs.
    """
    return bool(_double(bialg, _induced(bialg))[3])


def double_matched_bialgebra_verdicts(bialg: PreNovikovBialgebra) -> tuple[bool, bool, bool]:
    """The three equivalent verdicts (double, matched pair, bialgebra), computed
    by separate routes from one induced matched pair, so their agreement is a
    real test."""
    stage = _induced(bialg)
    bi_report, mp_report = stage.sections
    return (bool(_double(bialg, stage)[3]), mp_report.passed, bi_report.passed)


def double_from_bialgebra(bialg: PreNovikovBialgebra, basis=None) -> DoubleConstruction:
    """Build and fully re-verify the double construction of a bialgebra, in
    three kernel calls; a refusal's bialgebra report is on ``basis``."""
    stage = _induced(bialg, basis)
    bi_report, mp_report = stage.sections
    if not bi_report.passed:
        raise RefusalError("not a pre-Novikov bialgebra", bi_report)
    if not mp_report.passed:
        raise InternalCheckError("theorem (induced_matched_pair): a bialgebra's induced pair is not matched")
    dsum, w, reports, match = _double(bialg, stage)
    if match is None:
        raise InternalCheckError("theorem (direct_sum_table): the double is not quasi-Frobenius Novikov")
    if not match:
        raise InternalCheckError("theorem (_split_qf): the double's blocks miss the input tables")
    report = Report("double_construction", sections=(bi_report, mp_report, *reports))
    return DoubleConstruction(NovikovAlgebra(dsum), w, bialg.algebra.dim, stage.labels, report)
