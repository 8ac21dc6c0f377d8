"""Representations of Novikov and pre-Novikov algebras.

A representation stores one module-endomorphism matrix per algebra basis
element and acts on general elements by linear combination; every identity in
this file is trilinear, so checking on basis triples settles it.  The
``verified`` flag on a representation is a certificate attached by this
module's factories after actually running the checker, never trusted input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import labels
from .algebras import NovikovAlgebra, PreNovikovAlgebra, check_pre_novikov, sum_table
from .core import (
    InputError,
    InternalCheckError,
    Matrix,
    RefusalError,
    StructureConstants,
    direct_sum_table,
    evaluate,
    mat_shape,
)
from .report import Report, ReportBuilder, default_labels

RepMaps = tuple[Matrix, ...]


def _check_maps(maps: RepMaps, algebra_dim: int, name: str) -> int:
    if len(maps) != algebra_dim:
        raise InputError(f"{name}: need one matrix per algebra basis element")
    m = len(maps[0])
    for mtx in maps:
        if mat_shape(mtx) != (m, m):
            raise InputError(f"{name}: module matrices must be square of equal size")
    return m


@dataclass(frozen=True)
class NovikovRep:
    algebra: NovikovAlgebra
    l: RepMaps
    r: RepMaps
    verified: bool = False

    def __post_init__(self):
        m = _check_maps(self.l, self.algebra.dim, "l")
        if _check_maps(self.r, self.algebra.dim, "r") != m:
            raise InputError("l and r act on different module dimensions")

    @property
    def module_dim(self) -> int:
        return len(self.l[0])


@dataclass(frozen=True)
class PreNovikovRep:
    algebra: PreNovikovAlgebra
    l_rhd: RepMaps
    r_rhd: RepMaps
    l_lhd: RepMaps
    r_lhd: RepMaps
    verified: bool = False

    def __post_init__(self):
        dims = {
            _check_maps(maps, self.algebra.dim, name)
            for name, maps in [("l_rhd", self.l_rhd), ("r_rhd", self.r_rhd),
                               ("l_lhd", self.l_lhd), ("r_lhd", self.r_lhd)]
        }
        if len(dims) != 1:
            raise InputError("the four map families act on different module dimensions")

    @property
    def module_dim(self) -> int:
        return len(self.l_rhd[0])


def check_novikov_rep(alg: NovikovAlgebra, rep: NovikovRep, basis=None, module_basis=None) -> Report:
    """The four module identities, evaluated on all basis triples."""
    if rep.algebra.dim != alg.dim:
        raise InputError("representation/algebra dimension mismatch")
    n, m = alg.dim, rep.module_dim
    lab = tuple(basis or default_labels(n)) + tuple(module_basis or default_labels(m, "v"))
    rb = ReportBuilder("novikov_rep", labels.NOVIKOV_REP, lab)
    rb.check({"o": alg.op.c, "l": rep.l, "r": rep.r}, shift={"v": n})
    return rb.build()


def check_pre_novikov_rep(alg: PreNovikovAlgebra, rep: PreNovikovRep,
                          basis=None, module_basis=None) -> Report:
    """The ten pre-Novikov module identities on all basis triples."""
    if rep.algebra.dim != alg.dim:
        raise InputError("representation/algebra dimension mismatch")
    n, m = alg.dim, rep.module_dim
    lab = tuple(basis or default_labels(n)) + tuple(module_basis or default_labels(m, "v"))
    rb = ReportBuilder("pre_novikov_rep", labels.PRE_NOVIKOV_REP, lab)
    rb.check({"<": alg.lhd.c, ">": alg.rhd.c, "l>": rep.l_rhd, "r>": rep.r_rhd,
              "l<": rep.l_lhd, "r<": rep.r_lhd}, shift={"v": n})
    return rb.build()


def verify_novikov_rep(rep: NovikovRep) -> NovikovRep:
    report = check_novikov_rep(rep.algebra, rep)
    if not report.passed:
        raise RefusalError("not a Novikov representation", report)
    return replace(rep, verified=True)


def verify_pre_novikov_rep(rep: PreNovikovRep) -> PreNovikovRep:
    report = check_pre_novikov_rep(rep.algebra, rep)
    if not report.passed:
        raise RefusalError("not a pre-Novikov representation", report)
    return replace(rep, verified=True)


def _duals(**maps) -> dict:
    """Kernel spec of sums of dual maps: key -> sum of coef * M* over the
    ``(coef, name)`` pairs, where M(a)* is the negated transpose of M(a)."""
    return {key: [(-coef, "akj->ajk", (name,)) for coef, name in parts]
            for key, parts in maps.items()}


def dual_novikov_spec(l: str, r: str) -> dict:
    """Kernel spec of the dual (l* + r*, -r*) of the maps named ``l`` and ``r``."""
    return _duals(l=[(1, l), (1, r)], r=[(-1, r)])


def dual_pre_novikov_spec(l_rhd: str, r_rhd: str, l_lhd: str, r_lhd: str) -> dict:
    """Kernel spec of the dual quadruple (l>*+l<*+r>*+r<*, r>*, -(r>*+l<*),
    -(r>*+r<*)) of the maps with these names."""
    return _duals(
        l_rhd=[(1, l_rhd), (1, l_lhd), (1, r_rhd), (1, r_lhd)],
        r_rhd=[(1, r_rhd)],
        l_lhd=[(-1, r_rhd), (-1, l_lhd)],
        r_lhd=[(-1, r_rhd), (-1, r_lhd)],
    )


def dual_novikov_rep(rep: NovikovRep) -> NovikovRep:
    """The dual representation (l* + r*, -r*) on the dual module."""
    if not rep.verified:
        raise RefusalError("refusing to dualize an unverified representation")
    maps = evaluate(dual_novikov_spec("l", "r"), {"l": rep.l, "r": rep.r})
    out = NovikovRep(rep.algebra, maps["l"], maps["r"])
    report = check_novikov_rep(rep.algebra, out)
    if not report.passed:
        raise InternalCheckError("dual of a verified Novikov representation failed its check")
    return replace(out, verified=True)


def dual_pre_novikov_rep(rep: PreNovikovRep) -> PreNovikovRep:
    """The dual quadruple (l>*+l<*+r>*+r<*, r>*, -(r>*+l<*), -(r>*+r<*))."""
    if not rep.verified:
        raise RefusalError("refusing to dualize an unverified representation")
    maps = evaluate(dual_pre_novikov_spec("l>", "r>", "l<", "r<"),
                    {"l>": rep.l_rhd, "r>": rep.r_rhd, "l<": rep.l_lhd, "r<": rep.r_lhd})
    out = PreNovikovRep(rep.algebra, maps["l_rhd"], maps["r_rhd"], maps["l_lhd"], maps["r_lhd"])
    report = check_pre_novikov_rep(rep.algebra, out)
    if not report.passed:
        raise InternalCheckError("dual of a verified pre-Novikov representation failed its check")
    return replace(out, verified=True)


def novikov_adjoint_rep(alg: NovikovAlgebra) -> NovikovRep:
    """The adjoint representation (Lo, Ro) of a Novikov algebra on itself."""
    maps = evaluate({name: labels.OPERANDS[name] for name in ("Lo", "Ro")}, {"o": alg.op.c})
    rep = NovikovRep(alg, maps["Lo"], maps["Ro"])
    return replace(rep, verified=check_novikov_rep(alg, rep).passed)


def adjoint_reps(alg: PreNovikovAlgebra) -> tuple[NovikovRep, PreNovikovRep]:
    """The (L>, R<) representation of the associated Novikov algebra and the
    adjoint quadruple (L>, R>, L<, R<) of the pre-Novikov algebra itself."""
    maps = evaluate({name: labels.OPERANDS[name] for name in ("L>", "R>", "L<", "R<")},
                    {"<": alg.lhd.c, ">": alg.rhd.c})
    nov = NovikovAlgebra(sum_table(alg.lhd, alg.rhd))
    nov_rep = NovikovRep(nov, maps["L>"], maps["R<"])
    pre_rep = PreNovikovRep(alg, maps["L>"], maps["R>"], maps["L<"], maps["R<"])
    nov_rep = replace(nov_rep, verified=check_novikov_rep(nov, nov_rep).passed)
    pre_rep = replace(pre_rep, verified=check_pre_novikov_rep(alg, pre_rep).passed)
    return nov_rep, pre_rep


def dual_adjoint_maps(lhd: StructureConstants, rhd: StructureConstants) -> tuple[RepMaps, RepMaps]:
    """The maps (L>* + R<*, -R<*) dual to the (L>, R<) action, built from the
    tables with no validity requirement."""
    maps = evaluate(dual_novikov_spec("L>", "R<"), {"<": lhd.c, ">": rhd.c})
    return maps["l"], maps["r"]


def semidirect_pre_novikov(alg: PreNovikovAlgebra, rep: PreNovikovRep) -> PreNovikovAlgebra:
    """The semidirect-product pre-Novikov structure on algebra (+) module.

    (a+u) < (b+v) = a<b + l<(a)v + r<(b)u and likewise for >, on the basis
    (e_1..e_n, v_1..v_m): for each product, the direct-sum table with a zero
    module product and a zero action of the module on the algebra.
    """
    if rep.algebra != alg:
        raise InputError("representation was built over a different algebra")
    if not rep.verified:
        raise RefusalError("refusing to build a semidirect product from an unverified representation")
    n, m = alg.dim, rep.module_dim
    out = PreNovikovAlgebra(
        direct_sum_table(n, m, {"o": alg.lhd.c, "lA": rep.l_lhd, "rA": rep.r_lhd}),
        direct_sum_table(n, m, {"o": alg.rhd.c, "lA": rep.l_rhd, "rA": rep.r_rhd}),
    )
    if not check_pre_novikov(out.lhd, out.rhd).passed:
        raise InternalCheckError("semidirect product of a verified representation failed its check")
    return out
