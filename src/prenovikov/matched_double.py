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
from .algebras import (FormMatrix, NovikovAlgebra, PreNovikovAlgebra, _split_qf, check_novikov, check_quasi_frobenius,
                       pre_novikov_from_qf)
from .bialgebra import PreNovikovBialgebra, check_bialgebra
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
from .report import Report, Tree, default_labels, verify
from .representations import RepMaps, dual_adjoint_maps


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
    identities, from one kernel call.  The B-side sections read the specs of
    A with ``o``, ``l`` and ``r`` renamed to ``.``, ``lB`` and ``rB``."""
    n, m = mp.a_op.dim, mp.b_op.dim
    lab_a = tuple(basis_a or default_labels(n))
    lab_b = tuple(basis_b or default_labels(m, "f"))
    sections = (
        Tree("novikov", labels.NOVIKOV, lab_a),
        Tree("novikov", labels.NOVIKOV, lab_b, rename={"o": "."}),
        Tree("novikov_rep", labels.NOVIKOV_REP, lab_a + lab_b, shift={"v": n}, rename={"l": "lA", "r": "rA"}),
        Tree("novikov_rep", labels.NOVIKOV_REP, lab_b + lab_a, shift={"v": m},
             rename={"o": ".", "l": "lB", "r": "rB"}),
    )
    tree = Tree("matched_pair", labels.MATCHED_PAIR, lab_a + lab_b, shift={"x": n, "y": n}, sections=sections)
    return verify(tree, _tables(mp))


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


def induced_matched_pair(bialg: PreNovikovBialgebra) -> MatchedPair:
    """The candidate matched pair (A, A*, L>* + R<*, -R<*, L>_** + R<_**, -R<_**).

    Built unconditionally from the bialgebra data; run check_matched_pair to
    find out whether it actually is one.
    """
    alg, (lhd_star, rhd_star) = bialg.algebra, bialg.coalgebra.dual
    (a_op, l_a, r_a), (b_op, l_b, r_b) = dual_adjoint_maps(alg.lhd, alg.rhd), dual_adjoint_maps(lhd_star, rhd_star)
    return MatchedPair(a_op, b_op, l_a, r_a, l_b, r_b)


def _blocks_match(bialg: PreNovikovBialgebra, induced: PreNovikovAlgebra) -> bool:
    """Do both blocks of the induced pre-Novikov structure close and match?

    The product of two elements of A must be the input table's, with no A*
    part, and the product of two elements of A* the dual table's, with no A
    part; the mixed products are not constrained.
    """
    n = bialg.algebra.dim
    lhd_star, rhd_star = bialg.coalgebra.dual
    a, star = slice(0, n), slice(n, 2 * n)

    def same_blocks(got, table, table_star):
        want = direct_sum_table(n, n, {"o": table.table, ".": table_star.table}).table
        return all(Exact(got.table.num[rows], got.table.den) == Exact(want.num[rows], want.den)
                   for rows in ((a, a), (star, star)))

    return (same_blocks(induced.lhd, bialg.algebra.lhd, lhd_star)
            and same_blocks(induced.rhd, bialg.algebra.rhd, rhd_star))


def _has_double(bialg: PreNovikovBialgebra, mp: MatchedPair) -> bool:
    dsum = direct_sum_product(mp)
    if not check_novikov(dsum).passed:
        return False
    try:
        induced = pre_novikov_from_qf(dsum, standard_form(bialg.algebra.dim))
    except RefusalError:  # the form is not quasi-Frobenius for dsum
        return False
    return _blocks_match(bialg, induced)


def has_double_construction(bialg: PreNovikovBialgebra) -> bool:
    """Verdict of the first characterization: the double candidate works.

    Builds the direct-sum product with the standard form and checks: Novikov,
    quasi-Frobenius, and that both blocks of the induced pre-Novikov structure
    close onto the two input table pairs.
    """
    return _has_double(bialg, induced_matched_pair(bialg))


def double_matched_bialgebra_verdicts(bialg: PreNovikovBialgebra) -> tuple[bool, bool, bool]:
    """The three equivalent verdicts (double, matched pair, bialgebra), computed
    by separate routes from one induced matched pair, so their agreement is a
    real test."""
    mp = induced_matched_pair(bialg)
    v_double = _has_double(bialg, mp)
    v_matched = check_matched_pair(mp).passed
    v_bialg = check_bialgebra(bialg.algebra, bialg.coalgebra).passed
    return (v_double, v_matched, v_bialg)


def double_from_bialgebra(bialg: PreNovikovBialgebra) -> DoubleConstruction:
    """Build and fully re-verify the double construction of a bialgebra."""
    alg = bialg.algebra
    n = alg.dim
    bi_report = check_bialgebra(alg, bialg.coalgebra)
    if not bi_report.passed:
        raise RefusalError("not a pre-Novikov bialgebra", bi_report)
    mp = induced_matched_pair(bialg)
    lab = default_labels(n) + tuple(f"{x}*" for x in default_labels(n))  # e1..en, e1*..en*
    mp_report = check_matched_pair(mp, basis_a=lab[:n], basis_b=lab[n:])
    if not mp_report.passed:
        raise InternalCheckError("theorem (induced_matched_pair): a bialgebra's induced pair is not matched")
    dsum = direct_sum_product(mp)
    nov_report = check_novikov(dsum, basis=lab)
    w = standard_form(n)
    qf_report = check_quasi_frobenius(dsum, w, basis=lab)
    if not (nov_report.passed and qf_report.passed):
        raise InternalCheckError("theorem (direct_sum_table): the double is not quasi-Frobenius Novikov")
    if not _blocks_match(bialg, _split_qf(dsum, w)):
        raise InternalCheckError("theorem (_split_qf): the double's blocks miss the input tables")
    report = Report("double_construction", sections=(bi_report, mp_report, nov_report, qf_report))
    return DoubleConstruction(
        algebra=NovikovAlgebra(dsum),
        form=w,
        split_dim=n,
        labels=lab,
        report=report,
    )
