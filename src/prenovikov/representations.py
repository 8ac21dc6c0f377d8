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
from .algebras import NovikovAlgebra, PreNovikovAlgebra, check_pre_novikov
from .core import (
    InputError,
    InternalCheckError,
    Matrix,
    RefusalError,
    StructureConstants,
    direct_sum_table,
    fit_letters,
    held,
)
from .report import Report, Tree, default_labels, verify, whole

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


# Per representation class: its report's name and codes, what it is called, its dual maps by their names in
# ``labels.OPERANDS``, and the adjoint action of a pre-Novikov algebra it holds: (L>, R<) of o, or (L>, R>, L<, R<).
_DUAL_NOVIKOV_MAPS = {"l": "l*+r*", "r": "-r*"}
_DUAL_PRE_NOVIKOV_MAPS = {"l>": "l>*+l<*+r>*+r<*", "r>": "r>*", "l<": "-r>*-l<*", "r<": "-r>*-r<*"}
_KINDS = {
    NovikovRep: ("novikov_rep", labels.NOVIKOV_REP, "Novikov", _DUAL_NOVIKOV_MAPS, {"l": "L>", "r": "R<"}),
    PreNovikovRep: ("pre_novikov_rep", labels.PRE_NOVIKOV_REP, "pre-Novikov", _DUAL_PRE_NOVIKOV_MAPS,
                    {"l>": "L>", "r>": "R>", "l<": "L<", "r<": "R<"}),
}
# The dual of the (L>, R<) action, as the operator forms and the induced matched pair read it.
_DUAL_ADJOINT_MAPS = {"l": "L>*+R<*", "r": "-R<*"}


def _rep_tree(kind, n: int, m: int, basis=None, module_basis=None, **fields) -> Tree:
    """The module identities of class ``kind``, dimensions n and m, on all basis triples."""
    lab = tuple(basis or default_labels(n)) + tuple(module_basis or default_labels(m, "v"))
    return Tree(*_KINDS[kind][:2], lab, shift={"v": n}, **fields)


def check_novikov_rep(alg: NovikovAlgebra, rep: NovikovRep, basis=None, module_basis=None) -> Report:
    """The four module identities, evaluated on all basis triples."""
    return verify(_rep_tree(NovikovRep, alg.dim, rep.module_dim, basis, module_basis), {**alg.tables, **rep.tables})


def check_pre_novikov_rep(alg: PreNovikovAlgebra, rep: PreNovikovRep,
                          basis=None, module_basis=None) -> Report:
    """The ten pre-Novikov module identities on all basis triples."""
    return verify(_rep_tree(PreNovikovRep, alg.dim, rep.module_dim, basis, module_basis), {**alg.tables, **rep.tables})


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


def _with_dual(kind, n: int, m: int, basis=None, module_basis=None, rename=None, verified=False) -> Tree:
    """The checks of a representation of class ``kind``, unless it is
    ``verified``, and of its dual, with the dual maps as values; ``rename``
    gives the maps as other operands."""
    maps = _KINDS[kind][3]
    dual = _rep_tree(kind, n, m, basis, module_basis, rename=maps, values=whole(*maps))
    return Tree("dual", (), (), rename=rename or {},
                sections=(dual,) if verified else (_rep_tree(kind, n, m, basis, module_basis), dual))


def _dual_stage(alg, rep, basis=None, module_basis=None) -> tuple[Report, ...]:
    """The reports of ``rep`` over ``alg``, unless its certificate stands for
    that, and of its dual, from one kernel call."""
    return verify(_with_dual(type(rep), alg.dim, rep.module_dim, basis, module_basis, verified=rep.verified),
                  {**alg.tables, **rep.tables}).sections


def _dual_of(rep, dual: Report):
    """The dual of the verified ``rep``: the maps of its ``_dual_stage`` report ``dual``."""
    if not rep.verified:
        raise RefusalError("refusing to dualize an unverified representation")
    if not dual.passed:
        raise InternalCheckError(f"theorem (dual maps): a verified {_KINDS[type(rep)][2]} representation's dual fails")
    return type(rep)(rep.algebra, *dual.values.values(), verified=True)


def dual_novikov_rep(rep: NovikovRep) -> NovikovRep:
    """The dual representation (l* + r*, -r*) on the dual module."""
    return _dual_of(rep, _dual_stage(rep.algebra, rep)[-1])


def dual_pre_novikov_rep(rep: PreNovikovRep) -> PreNovikovRep:
    """The dual quadruple (l>*+l<*+r>*+r<*, r>*, -(r>*+l<*), -(r>*+r<*))."""
    return _dual_of(rep, _dual_stage(rep.algebra, rep)[-1])


def novikov_adjoint_rep(alg: NovikovAlgebra) -> NovikovRep:
    """The adjoint representation (Lo, Ro) of a Novikov algebra on itself,
    certified by its check in the same kernel call."""
    check = verify(_rep_tree(NovikovRep, alg.dim, alg.dim, rename={"l": "Lo", "r": "Ro"}, values=whole("l", "r")),
                   alg.tables)
    return NovikovRep(alg, *check.values.values(), verified=check.passed)


def _derive(alg: PreNovikovAlgebra, basis=None) -> tuple[Report, dict]:
    """``derive`` of a pre-Novikov algebra, from one kernel call: its report
    and, by name, the associated Novikov algebra, (.), (*) and both adjoint
    representations, certified by their checks, then, when the report
    passes, their duals, re-verified."""
    n = alg.dim
    sections = (Tree("pre_novikov", labels.PRE_NOVIKOV, basis or default_labels(n)),
                Tree("novikov", labels.NOVIKOV, default_labels(n)),
                *(_with_dual(kind, n, n, rename=adjoint) for kind, (*_, adjoint) in _KINDS.items()))
    tree = Tree("derive", (), (), sections=sections, values=whole("o", "(.)", "(*)", "L>", "R>", "L<", "R<"))
    stage = verify(tree, alg.tables)
    report, novikov, *adjoint = stage.sections
    nov = NovikovAlgebra(StructureConstants(n, stage.values["o"]))
    reps = [kind(over, *map(stage.values.get, maps.values()), verified=s.sections[0].passed)
            for (kind, (*_, maps)), over, s in zip(_KINDS.items(), (nov, alg), adjoint)]
    parts = {"associated": nov, "odot": stage.values["(.)"], "star": stage.values["(*)"],
             "adjoint_novikov_rep": reps[0], "adjoint_pre_novikov_rep": reps[1]}
    if report.passed:
        if not novikov.passed:
            raise InternalCheckError("theorem (associated_novikov): a pre-Novikov pair's sum is not Novikov")
        for name, rep, s in zip(("dual_novikov_rep", "dual_pre_novikov_rep"), reps, adjoint):
            parts[name] = _dual_of(rep, s.sections[1])
    return report, parts


def associated_novikov(alg: PreNovikovAlgebra) -> NovikovAlgebra:
    """The Novikov algebra with product a o b = a<b + a>b; refuses invalid input."""
    report, parts = _derive(alg)
    if not report.passed:
        raise RefusalError("input is not a pre-Novikov algebra", report)
    return parts["associated"]


def adjoint_reps(alg: PreNovikovAlgebra) -> tuple[NovikovRep, PreNovikovRep]:
    """The (L>, R<) representation of the associated Novikov algebra and the
    adjoint quadruple (L>, R>, L<, R<) of the pre-Novikov algebra itself."""
    parts = _derive(alg)[1]
    return parts["adjoint_novikov_rep"], parts["adjoint_pre_novikov_rep"]


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
