"""Structured pass/fail reports produced by every verifier, and the one path
that makes them.

A report names the identities it evaluated, lists every violation (witness
basis tuple plus the exact nonzero residual), and may nest sub-reports for
composite checks.  Every verifier declares its report as a ``Tree`` and makes
it with one ``verify`` call, which evaluates the whole tree in one kernel
call and keeps each failing code's residual array.  A stage of a
construction is one such tree: its sections check what it builds, and its
values are the tables it builds.  Violations are listed spec code by spec
code, each code's witnesses in lexicographic order, then the rows a
verifier adds itself, so reports are deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, starmap
from typing import Callable, NamedTuple

import numpy as np

from .core import PLAN_CACHE, Exact, InputError, contract, fraction_texts
from .labels import IDENTITIES, OPERANDS, SPECS, render_identity


def default_labels(n: int, prefix: str = "e") -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


class Violation(NamedTuple):
    identity: str
    witness_index: tuple[int, ...]
    witness: tuple[str, ...]
    residual: tuple[str, ...]


class ReportBuilder:
    """The one place a violation view is made, from the fields ``entries``
    lists (``bench/tracer.py`` wraps ``residual`` to count views)."""

    residual = staticmethod(Violation)


class Report:
    """A verifier's report.  ``verify`` makes it hold ``blocks``: per failing
    code ``(code, numerators flattened past the witness axes, denominator,
    witness offsets)`` into basis ``labels``.  The ``violations`` it is given
    (rows, or a parsed report's) follow them.  Views are made on first read.
    ``values`` holds its tree's values, as ``Exact`` arrays by key; they take
    no part in comparing reports."""

    def __init__(self, name: str, identities=(), violations=(), sections=(), labels=(), blocks=(), values=None):
        self.name, self.identities, self.sections = name, identities, sections
        self.labels, self.blocks, self.rows, self.values = labels, blocks, violations, values or {}

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(starmap(ReportBuilder.residual, self.entries))

    @property
    def passed(self) -> bool:
        return not (self.blocks or self.rows) and all(s.passed for s in self.sections)

    def all_violations(self) -> tuple[Violation, ...]:
        return self.violations + tuple(chain.from_iterable(s.all_violations() for s in self.sections))

    @cached_property
    def entries(self) -> tuple:
        """Each violation as a tuple of ``Violation``'s fields: code by code,
        witnesses in ``np.nonzero`` (lexicographic) order, then the rows; one
        residual string per distinct value of a code, and no ``Fraction``."""
        label, out = self.labels.__getitem__, []
        for code, flat, den, offsets in self.blocks:
            at = np.nonzero((flat != 0).any(axis=-1))
            values = flat[at].tolist()
            text = fraction_texts(chain.from_iterable(values), den)
            for idx, value in zip(zip(*((a + o).tolist() for a, o in zip(at, offsets))), values):
                out.append((code, idx, tuple(map(label, idx)), tuple(map(text.__getitem__, value))))
        return (*out, *self.rows)

    def _key(self) -> tuple:
        return self.name, self.identities, self.violations, self.sections

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Report) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Report(name=%r, identities=%r, violations=%r, sections=%r)" % self._key()


@dataclass(frozen=True)
class Tree:
    """A report declared as data: its name, the identity codes it checks, the
    basis labels its witnesses index, letter offsets into them (``shift``,
    for a second basis after the first), operand renames (section name ->
    table name, or ``(operand, renames)``: that derived operand on renamed
    names), values and nested sections.  A rename reaches into the derived
    operands a section reads.  ``values`` maps keys to term lists evaluated
    in the same call, which its report holds; ``rows`` makes from them the
    violations that are no spec's residual.  A section with ``read``
    evaluates nothing: it takes each code's residual from its parent's as
    ``(source code, sign, subscripts)``, a signed axis permutation
    (``labels.DUAL_PRE_NOVIKOV``)."""

    name: str
    codes: tuple[str, ...]
    labels: tuple[str, ...]
    shift: dict = field(default_factory=dict)
    rename: dict = field(default_factory=dict)
    sections: tuple[Tree, ...] = ()
    read: dict | None = None
    values: dict = field(default_factory=dict)
    rows: Callable | None = None


def whole(*names: str) -> dict:
    """Values reading the rank-3 operands ``names`` whole."""
    return {name: [(1, "abc->abc", (name,))] for name in names}


def _shape(tree: Tree) -> tuple:
    """What of ``tree`` its specs and values depend on, hashable: its codes
    (none for a read section), renames, values and sections."""
    return (() if tree.read else tree.codes,
            tuple((x, y if type(y) is str else (y[0], tuple(y[1].items()))) for x, y in tree.rename.items()),
            tuple((key, tuple(terms)) for key, terms in tree.values.items()), tuple(map(_shape, tree.sections)))


@functools.lru_cache(maxsize=PLAN_CACHE)
def _resolved(shape: tuple, inputs: tuple) -> tuple[dict, dict]:
    """The term lists of the specs and values of a tree of ``shape`` on the
    tables ``inputs``, and the derived operands its renames make (read-only,
    shared by every call of one shape)."""
    derived = {}
    return _specs(shape, (), {}, str, inputs, derived), derived


def _specs(shape: tuple, path: tuple, out: dict, up, inputs, derived: dict) -> dict:
    """The term lists of every spec and value of a tree's ``shape``, keyed
    ``(path, code)`` and ``(path, "=" + key)``, their operands named as in
    the call: through the tree's renames, then ``up``."""
    codes, rename, values, sections = shape
    name = _namer(dict(rename), up, inputs, derived) if rename else up
    for key, terms in [((path, code), SPECS[code][1]) for code in codes if code in SPECS] + [
            ((path, "=" + key), terms) for key, terms in values]:
        out[key] = terms if name is str else [(coef, subs, tuple(map(name, names))) for coef, subs, names in terms]
    for k, section in enumerate(sections):
        _specs(section, path + (k,), out, name, inputs, derived)
    return out


def _namer(rename: dict, up, inputs, derived: dict):
    """The map of a tree's operand names to the call's: through ``rename``
    to its parent's names, then ``up``; a derived operand reading a renamed
    name is added to ``derived`` under a new name."""
    named = {}

    def name(x):
        if x not in named:
            target = rename.get(x, x)
            named[x] = (_derive(target[0], lambda y, inner=dict(target[1]): up(inner.get(y, y)), derived)
                        if type(target) is tuple
                        else up(target) if x in rename or x in inputs or x not in OPERANDS
                        else _derive(x, name, derived))
        return named[x]

    return name


def _derive(operand: str, name, derived: dict) -> str:
    """The call's name of the derived ``operand`` with its operands named by
    ``name``, and its terms in ``derived`` unless that is ``operand``."""
    terms = tuple((coef, subs, tuple(map(name, names))) for coef, subs, names in OPERANDS[operand])
    moved = {x: y for (*_, xs), (*_, ys) in zip(OPERANDS[operand], terms) for x, y in zip(xs, ys) if x != y}
    if not moved:
        return operand
    key = f"{operand}[{','.join(f'{x}={y}' for x, y in moved.items())}]"
    derived[key] = terms
    return key


def verify(tree: Tree, tables: dict) -> Report:
    """The report ``tree`` declares, on ``tables``, from one kernel call.  It
    holds each code's residual array unless it is all zero, and its values."""
    specs, derived = _resolved(_shape(tree), tuple(tables))
    try:
        residuals = contract(specs, tables, derived)
    except InputError as exc:  # named by its report and identity, not by the kernel's spec key
        for path, code in specs:
            if (text := str(exc)).startswith(key := f"spec {(path, code)!r}"):
                name = reduce(lambda t, k: t.sections[k], path, tree).name
                raise InputError(f"{name} {render_identity(code)}{text[len(key):]}") from None
        raise
    return _build(tree, (), residuals)


def _build(tree: Tree, path: tuple, residuals: dict) -> Report:
    blocks = []
    for code in tree.codes:
        if tree.read:
            source, sign, subs = tree.read[code]
            num, den = residuals[path[:-1], source]
            num = sign * np.einsum(subs, num)
        elif (path, code) in residuals:
            num, den = residuals[path, code]
        else:
            continue
        witness = IDENTITIES[code][1]
        flat = num.reshape(num.shape[: len(witness)] + (-1,))
        if flat.any():
            blocks.append((code, flat, den, [tree.shift.get(letter, 0) for letter in witness]))
    sections = tuple(_build(section, path + (k,), residuals) for k, section in enumerate(tree.sections))
    values = {key: Exact(*residuals[path, "=" + key]) for key in tree.values}
    rows = tree.rows(values) if tree.rows else ()
    return Report(tree.name, tree.codes, rows, sections, tree.labels, blocks, values)
