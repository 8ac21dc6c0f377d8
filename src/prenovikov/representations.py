"""Representations of Novikov and pre-Novikov algebras.

A representation stores one module-endomorphism matrix per algebra basis
element and acts on general elements by linear combination; every identity in
this file is trilinear, so checking on basis triples settles it.  The
``verified`` flag on a representation is a certificate attached by this
module's factories after actually running the checker, never trusted input.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    fit_letters,
    held,
)
from .report import Report, Tree, default_labels, verify

RepMaps = tuple[Matrix, ...]


class _Maps:
    """A representation's map families, held as ``Exact`` arrays in
    ``tables`` under their kernel operand names: one square module matrix per
    algebra basis element, all of one size."""

    def __post_init__(self):
        sizes = {"n": self.algebra.dim}
        for key, maps in self.tables.items():
            fit_letters(f"maps {key!r}", "nmm", maps.shape, sizes)

    @property
    def module_dim(self) -> int:
        return next(iter(self.tables.values())).shape[1]

    def certified(self, verified: bool = True):
        """The same representation with the ``verified`` flag set."""
        return type(self)(self.algebra, *self.tables.values(), verified=verified)

    def __eq__(self, other):  # on the held tables, not their nested views
        return ((self.algebra, self.tables, self.verified) == (other.algebra, other.tables, other.verified)
                if type(other) is type(self) else NotImplemented)


@dataclass(frozen=True, eq=False, unsafe_hash=True)  # (_Maps.__eq__; the hash reads the fields)
class NovikovRep(_Maps):
    algebra: NovikovAlgebra
    l: RepMaps = held("l")
    r: RepMaps = held("r")
    verified: bool = False


@dataclass(frozen=True, eq=False, unsafe_hash=True)  # (_Maps.__eq__; the hash reads the fields)
class PreNovikovRep(_Maps):
    algebra: PreNovikovAlgebra
    l_rhd: RepMaps = held("l>")
    r_rhd: RepMaps = held("r>")
    l_lhd: RepMaps = held("l<")
    r_lhd: RepMaps = held("r<")
    verified: bool = False


def _rep_report(name: str, codes, tables: dict, alg, rep, basis, module_basis) -> Report:
    """The report ``name`` of the module identities ``codes`` on all basis
    triples, the algebra read through ``tables``."""
    n, m = alg.dim, rep.module_dim
    lab = tuple(basis or default_labels(n)) + tuple(module_basis or default_labels(m, "v"))
    return verify(Tree(name, codes, lab, shift={"v": n}), {**tables, **rep.tables})


def check_novikov_rep(alg: NovikovAlgebra, rep: NovikovRep, basis=None, module_basis=None) -> Report:
    """The four module identities, evaluated on all basis triples."""
    return _rep_report("novikov_rep", labels.NOVIKOV_REP, {"o": alg.op.table}, alg, rep, basis, module_basis)


def check_pre_novikov_rep(alg: PreNovikovAlgebra, rep: PreNovikovRep,
                          basis=None, module_basis=None) -> Report:
    """The ten pre-Novikov module identities on all basis triples."""
    return _rep_report("pre_novikov_rep", labels.PRE_NOVIKOV_REP, alg.tables, alg, rep, basis, module_basis)


def _certified(rep, check, what: str):
    """``rep`` with its ``verified`` flag set, refused unless ``check`` passes."""
    report = check(rep.algebra, rep)
    if not report.passed:
        raise RefusalError(f"not a {what} representation", report)
    return rep.certified()


def verify_novikov_rep(rep: NovikovRep) -> NovikovRep:
    return _certified(rep, check_novikov_rep, "Novikov")


def verify_pre_novikov_rep(rep: PreNovikovRep) -> PreNovikovRep:
    return _certified(rep, check_pre_novikov_rep, "pre-Novikov")


# The dual maps of ``dual_novikov_rep``, ``dual_pre_novikov_rep`` and
# ``dual_adjoint_maps`` by their names in ``labels.OPERANDS``.
_DUAL_NOVIKOV_MAPS = {"l": "l*+r*", "r": "-r*"}
_DUAL_PRE_NOVIKOV_MAPS = {"l>": "l>*+l<*+r>*+r<*", "r>": "r>*", "l<": "-r>*-l<*", "r<": "-r>*-r<*"}
_DUAL_ADJOINT_MAPS = {"l": "L>*+R<*", "r": "-R<*"}


def _dual(rep, maps: dict, check, what: str):
    """The dual of a verified representation by its maps' operand names, re-verified."""
    if not rep.verified:
        raise RefusalError("refusing to dualize an unverified representation")
    out = type(rep)(rep.algebra, *evaluate({key: labels.OPERANDS[name] for key, name in maps.items()},
                                           rep.tables).values())
    if not check(rep.algebra, out).passed:
        raise InternalCheckError(f"theorem (dual maps): a verified {what} representation's dual fails")
    return out.certified()


def dual_novikov_rep(rep: NovikovRep) -> NovikovRep:
    """The dual representation (l* + r*, -r*) on the dual module."""
    return _dual(rep, _DUAL_NOVIKOV_MAPS, check_novikov_rep, "Novikov")


def dual_pre_novikov_rep(rep: PreNovikovRep) -> PreNovikovRep:
    """The dual quadruple (l>*+l<*+r>*+r<*, r>*, -(r>*+l<*), -(r>*+r<*))."""
    return _dual(rep, _DUAL_PRE_NOVIKOV_MAPS, check_pre_novikov_rep, "pre-Novikov")


def novikov_adjoint_rep(alg: NovikovAlgebra) -> NovikovRep:
    """The adjoint representation (Lo, Ro) of a Novikov algebra on itself."""
    maps = evaluate({name: labels.OPERANDS[name] for name in ("Lo", "Ro")}, {"o": alg.op.table})
    rep = NovikovRep(alg, maps["Lo"], maps["Ro"])
    return rep.certified(check_novikov_rep(alg, rep).passed)


def adjoint_reps(alg: PreNovikovAlgebra) -> tuple[NovikovRep, PreNovikovRep]:
    """The (L>, R<) representation of the associated Novikov algebra and the
    adjoint quadruple (L>, R>, L<, R<) of the pre-Novikov algebra itself."""
    maps = evaluate({name: labels.OPERANDS[name] for name in ("L>", "R>", "L<", "R<")}, alg.tables)
    nov = NovikovAlgebra(sum_table(alg.lhd, alg.rhd))
    nov_rep = NovikovRep(nov, maps["L>"], maps["R<"])
    pre_rep = PreNovikovRep(alg, maps["L>"], maps["R>"], maps["L<"], maps["R<"])
    return (nov_rep.certified(check_novikov_rep(nov, nov_rep).passed),
            pre_rep.certified(check_pre_novikov_rep(alg, pre_rep).passed))


def dual_adjoint_maps(lhd: StructureConstants, rhd: StructureConstants) -> tuple[StructureConstants, RepMaps, RepMaps]:
    """The sum o = < + > of two tables and the maps (L>* + R<*, -R<*) dual to
    its (L>, R<) action, from one kernel call with no validity requirement."""
    specs = {"o": labels.OPERANDS["o"], **{key: labels.OPERANDS[name] for key, name in _DUAL_ADJOINT_MAPS.items()}}
    maps = evaluate(specs, {"<": lhd.table, ">": rhd.table})
    return StructureConstants(lhd.dim, maps["o"]), maps["l"], maps["r"]


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
        direct_sum_table(n, m, {"o": alg.lhd.table, "lA": rep.tables["l<"], "rA": rep.tables["r<"]}),
        direct_sum_table(n, m, {"o": alg.rhd.table, "lA": rep.tables["l>"], "rA": rep.tables["r>"]}),
    )
    if not check_pre_novikov(out.lhd, out.rhd).passed:
        raise InternalCheckError("theorem (direct_sum_table): the semidirect product is not pre-Novikov")
    return out
