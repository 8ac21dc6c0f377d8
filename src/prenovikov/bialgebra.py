"""Pre-Novikov coalgebras, the dual-algebra bridge, and bialgebra verification.

The two co-operations ``alpha`` and ``beta`` are stored exactly like structure
constants: ``alpha[i][j][k]`` is the coefficient of ``e_j (x) e_k`` in
``alpha(e_i)``.  Dualizing is then pure reshaping: ``alpha`` induces the ``<``
product on the dual and ``beta`` the ``>`` product, via
``<f <* g, a> = <f (x) g, alpha(a)>`` and ``<f >* g, a> = <f (x) g, beta(a)>``.

The coalgebra checker always runs both routes: the four co-identities
directly, and the pre-Novikov axioms on the dualized products.  The two
verdicts agreeing is a theorem; a disagreement raises the bug sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import labels
from .algebras import PreNovikovAlgebra, check_pre_novikov
from .core import InputError, InternalCheckError, StructureConstants, Tensor2, evaluate, held
from .report import Report, ReportBuilder, default_labels

CoMaps = tuple[Tensor2, ...]


@dataclass(frozen=True)
class PreNovikovCoalgebra:
    """The co-operations, held as the ``Exact`` arrays ``tables["al"]`` and
    ``tables["be"]``."""

    dim: int
    alpha: CoMaps = held("al")
    beta: CoMaps = held("be")

    def __post_init__(self):
        n = self.dim
        for name, key in (("alpha", "al"), ("beta", "be")):
            if self.tables[key].shape != (n, n, n):
                raise InputError(f"{name} must be an {n}x{n}x{n} array")

    @cached_property
    def dual(self) -> tuple[StructureConstants, StructureConstants]:
        """The dual-space products, computed once per coalgebra by
        ``coalgebra_to_dual_algebra``."""
        return coalgebra_to_dual_algebra(self)


@dataclass(frozen=True)
class PreNovikovBialgebra:
    algebra: PreNovikovAlgebra
    coalgebra: PreNovikovCoalgebra
    report: Optional[Report] = None

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise InputError("algebra/coalgebra dimension mismatch")


def coalgebra_to_dual_algebra(co: PreNovikovCoalgebra) -> tuple[StructureConstants, StructureConstants]:
    """The dual-space products: < from alpha, > from beta, each one index
    permutation (``ipq->pqi``) through the kernel."""
    ops = evaluate({"<": [(1, "ipq->pqi", ("al",))], ">": [(1, "ipq->pqi", ("be",))]}, co.tables)
    return StructureConstants(co.dim, ops["<"]), StructureConstants(co.dim, ops[">"])


def check_coalgebra(co: PreNovikovCoalgebra, basis=None) -> Report:
    """Direct co-identity check cross-verified through the dual algebra."""
    n = co.dim
    lab = basis or default_labels(n)
    rb = ReportBuilder("coalgebra", labels.COALGEBRA, lab)
    rb.check(co.tables)
    direct = rb.build()

    lhd_star, rhd_star = co.dual
    dual_basis = tuple(f"{b}*" for b in lab)
    dual = check_pre_novikov(lhd_star, rhd_star, basis=dual_basis)
    if direct.passed != dual.passed:
        raise InternalCheckError(
            "co-identity check and dual-algebra check disagree "
            f"(direct={direct.passed}, dual={dual.passed})"
        )
    rb.section(dual)
    return rb.build()


def check_compatibility(alg: PreNovikovAlgebra, co: PreNovikovCoalgebra, basis=None) -> Report:
    """The eight algebra/coalgebra compatibility identities on all basis pairs.

    Each identity is evaluated exactly as displayed in ``labels``, every
    operator factor (e.g. L> + 2R<) acting on one tensor leg; no algebraic
    simplification happens first.
    """
    if alg.dim != co.dim:
        raise InputError("algebra/coalgebra dimension mismatch")
    rb = ReportBuilder("compatibility", labels.COMPATIBILITY, basis or default_labels(alg.dim))
    rb.check({**alg.tables, **co.tables})
    return rb.build()


def check_bialgebra(alg: PreNovikovAlgebra, co: PreNovikovCoalgebra, basis=None) -> Report:
    """Algebra axioms + coalgebra axioms + the eight compatibility identities."""
    if alg.dim != co.dim:
        raise InputError("algebra/coalgebra dimension mismatch")
    sections = (
        check_pre_novikov(alg.lhd, alg.rhd, basis=basis),
        check_coalgebra(co, basis=basis),
        check_compatibility(alg, co, basis=basis),
    )
    return Report(name="bialgebra", sections=sections)
