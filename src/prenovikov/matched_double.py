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
from .algebras import (
    FormMatrix,
    NovikovAlgebra,
    PreNovikovAlgebra,
    _split_qf,
    check_novikov,
    check_quasi_frobenius,
    pre_novikov_from_qf,
    sum_table,
)
from .bialgebra import PreNovikovBialgebra, check_bialgebra
from .core import (
    ONE,
    ZERO,
    InputError,
    InternalCheckError,
    RefusalError,
    StructureConstants,
    direct_sum_table,
)
from .report import Report, ReportBuilder, default_labels, split_labels
from .representations import NovikovRep, RepMaps, check_novikov_rep, dual_adjoint_maps


@dataclass(frozen=True)
class MatchedPair:
    a_op: StructureConstants
    b_op: StructureConstants
    l_a: RepMaps  # A acting on B
    r_a: RepMaps
    l_b: RepMaps  # B acting on A
    r_b: RepMaps
    verified: bool = False

    def __post_init__(self):
        n, m = self.a_op.dim, self.b_op.dim
        for name, maps, count, size in (
            ("l_a", self.l_a, n, m),
            ("r_a", self.r_a, n, m),
            ("l_b", self.l_b, m, n),
            ("r_b", self.r_b, m, n),
        ):
            if len(maps) != count or any(len(mx) != size or len(mx[0]) != size for mx in maps):
                raise InputError(f"{name} must hold {count} matrices of size {size}x{size}")


@dataclass(frozen=True)
class DoubleConstruction:
    algebra: NovikovAlgebra
    form: FormMatrix
    split_dim: int
    labels: tuple[str, ...]
    report: Optional[Report] = None


def check_matched_pair(mp: MatchedPair, basis_a=None, basis_b=None) -> Report:
    """Both algebras Novikov, both actions representations, eight mixed identities."""
    n, m = mp.a_op.dim, mp.b_op.dim
    lab_a = tuple(basis_a or default_labels(n))
    lab_b = tuple(basis_b or default_labels(m, "f"))
    rb = ReportBuilder("matched_pair", labels.MATCHED_PAIR, lab_a + lab_b)

    rb.section(check_novikov(mp.a_op, basis=lab_a))
    rb.section(check_novikov(mp.b_op, basis=lab_b))
    rb.section(
        check_novikov_rep(
            NovikovAlgebra(mp.a_op),
            NovikovRep(NovikovAlgebra(mp.a_op), mp.l_a, mp.r_a),
            basis=lab_a,
            module_basis=lab_b,
        )
    )
    rb.section(
        check_novikov_rep(
            NovikovAlgebra(mp.b_op),
            NovikovRep(NovikovAlgebra(mp.b_op), mp.l_b, mp.r_b),
            basis=lab_b,
            module_basis=lab_a,
        )
    )

    rb.check(_tables(mp), shift={"x": n, "y": n})
    return rb.build()


def _tables(mp: MatchedPair) -> dict:
    """The kernel and block names of a matched pair's tables."""
    return {"o": mp.a_op.c, ".": mp.b_op.c, "lA": mp.l_a, "rA": mp.r_a, "lB": mp.l_b, "rB": mp.r_b}


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
        mp = MatchedPair(mp.a_op, mp.b_op, mp.l_a, mp.r_a, mp.l_b, mp.r_b, verified=True)
    out = NovikovAlgebra(direct_sum_product(mp))
    if not check_novikov(out.op).passed:
        raise InternalCheckError("direct sum of a verified matched pair failed the Novikov check")
    return out


def standard_form(n: int) -> FormMatrix:
    """The canonical skew pairing w(a+f, b+g) = <f, b> - <g, a> on A (+) A*."""
    if n <= 0:
        raise InputError("dimension must be positive")
    w = np.full((2 * n, 2 * n), ZERO, dtype=object)
    w[range(n), range(n, 2 * n)] = -ONE
    w[range(n, 2 * n), range(n)] = ONE
    return FormMatrix(2 * n, tuple(map(tuple, w)))


def induced_matched_pair(bialg: PreNovikovBialgebra) -> MatchedPair:
    """The candidate matched pair (A, A*, L>* + R<*, -R<*, L>_** + R<_**, -R<_**).

    Built unconditionally from the bialgebra data; run check_matched_pair to
    find out whether it actually is one.
    """
    alg = bialg.algebra
    lhd_star, rhd_star = bialg.coalgebra.dual
    l_a, r_a = dual_adjoint_maps(alg.lhd, alg.rhd)
    l_b, r_b = dual_adjoint_maps(lhd_star, rhd_star)
    return MatchedPair(
        sum_table(alg.lhd, alg.rhd),
        sum_table(lhd_star, rhd_star),
        l_a,
        r_a,
        l_b,
        r_b,
    )


def _blocks_match(bialg: PreNovikovBialgebra, induced: PreNovikovAlgebra) -> bool:
    """Do both blocks of the induced pre-Novikov structure close and match?

    The product of two elements of A must be the input table's, with no A*
    part, and the product of two elements of A* the dual table's, with no A
    part; the mixed products are not constrained.
    """
    n = bialg.algebra.dim
    lhd_star, rhd_star = bialg.coalgebra.dual
    pad = (0,) * n

    def same_blocks(got, table, table_star):
        a_rows = tuple(plane[:n] for plane in got.c[:n])
        star_rows = tuple(plane[n:] for plane in got.c[n:])
        return (a_rows == tuple(tuple(row + pad for row in plane) for plane in table.c)
                and star_rows == tuple(tuple(pad + row for row in plane) for plane in table_star.c))

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
    lab = split_labels(n)
    mp_report = check_matched_pair(mp, basis_a=lab[:n], basis_b=lab[n:])
    if not mp_report.passed:
        raise InternalCheckError("valid bialgebra induced an invalid matched pair")
    dsum = direct_sum_product(mp)
    nov_report = check_novikov(dsum, basis=lab)
    w = standard_form(n)
    qf_report = check_quasi_frobenius(dsum, w, basis=lab)
    if not (nov_report.passed and qf_report.passed):
        raise InternalCheckError("double of a valid bialgebra failed Novikov/quasi-Frobenius checks")
    if not _blocks_match(bialg, _split_qf(dsum, w)):
        raise InternalCheckError("double blocks do not restrict to the input pre-Novikov tables")
    report = Report("double_construction", sections=(bi_report, mp_report, nov_report, qf_report))
    return DoubleConstruction(
        algebra=NovikovAlgebra(dsum),
        form=w,
        split_dim=n,
        labels=lab,
        report=report,
    )
