"""Pre-Novikov coalgebras, the dual-algebra bridge, and bialgebra verification.

The two co-operations ``alpha`` and ``beta`` are stored exactly like structure
constants: ``alpha[i][j][k]`` is the coefficient of ``e_j (x) e_k`` in
``alpha(e_i)``.  Dualizing is then pure reshaping: ``alpha`` induces the ``<``
product on the dual and ``beta`` the ``>`` product, via
``<f <* g, a> = <f (x) g, alpha(a)>`` and ``<f >* g, a> = <f (x) g, beta(a)>``.

The coalgebra checker evaluates the co-identities once, and reads its nested
section, the pre-Novikov axioms on the dualized products, off the same
residuals by the signed axis permutations of ``labels.DUAL_PRE_NOVIKOV``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import labels
from .algebras import PreNovikovAlgebra
from .core import InputError, StructureConstants, Tensor2, evaluate, fit_letters, held
from .report import Report, Tree, default_labels, verify

CoMaps = tuple[Tensor2, ...]


@dataclass(frozen=True)
class PreNovikovCoalgebra:
    """The co-operations, held as the ``Exact`` arrays ``tables["al"]`` and
    ``tables["be"]``."""

    dim: int
    alpha: CoMaps = held("al")
    beta: CoMaps = held("be")

    def __post_init__(self):
        for name, key in (("alpha", "al"), ("beta", "be")):
            fit_letters(name, "nnn", self.tables[key].shape, {"n": self.dim})


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
    permutation (the operands ``<*`` and ``>*``) through the kernel."""
    ops = evaluate({name: labels.OPERANDS[name] for name in ("<*", ">*")}, co.tables)
    return StructureConstants(co.dim, ops["<*"]), StructureConstants(co.dim, ops[">*"])


def _coalgebra_tree(lab) -> Tree:
    """The co-identities 3.11-3.14, with the pre-Novikov identities on the
    dual products (basis ``e1*``, ...) read off their residuals."""
    dual = Tree("pre_novikov", labels.PRE_NOVIKOV, tuple(f"{b}*" for b in lab), read=labels.DUAL_PRE_NOVIKOV)
    return Tree("coalgebra", labels.COALGEBRA, lab, sections=(dual,))


def check_coalgebra(co: PreNovikovCoalgebra, basis=None) -> Report:
    """The co-identities 3.11-3.14, with the pre-Novikov identities on the
    dual products (basis ``e1*``, ...) as a nested section, from one kernel
    call."""
    return verify(_coalgebra_tree(basis or default_labels(co.dim)), co.tables)


def check_compatibility(alg: PreNovikovAlgebra, co: PreNovikovCoalgebra, basis=None) -> Report:
    """The eight algebra/coalgebra compatibility identities on all basis pairs.

    Each identity is evaluated exactly as displayed in ``labels``, every
    operator factor (e.g. L> + 2R<) acting on one tensor leg; no algebraic
    simplification happens first.
    """
    return verify(Tree("compatibility", labels.COMPATIBILITY, basis or default_labels(alg.dim)),
                  {**alg.tables, **co.tables})


def check_bialgebra(alg: PreNovikovAlgebra, co: PreNovikovCoalgebra, basis=None) -> Report:
    """Algebra axioms + coalgebra axioms + the eight compatibility identities,
    from one kernel call."""
    return verify(_bialgebra_tree(basis or default_labels(alg.dim)), {**alg.tables, **co.tables})


def _bialgebra_tree(lab, **fields) -> Tree:
    """The report of ``check_bialgebra`` on the basis ``lab``, with the
    further ``Tree`` fields a stage gives it."""
    sections = (Tree("pre_novikov", labels.PRE_NOVIKOV, lab), _coalgebra_tree(lab),
                Tree("compatibility", labels.COMPATIBILITY, lab))
    return Tree("bialgebra", (), lab, sections=sections, **fields)
