"""Structured pass/fail reports produced by every verifier, and the one path
that makes them.

A report names the identities it evaluated, lists every violation (witness
basis tuple plus the exact nonzero residual), and may nest sub-reports for
composite checks.  Every verifier declares its report as a ``Tree`` and makes
it with one ``verify`` call, which evaluates the whole tree in one kernel
call and keeps each failing code's residual array.  Violations are listed
spec code by spec code, each code's witnesses in lexicographic order, then
the rows a verifier adds itself, so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, starmap
from typing import NamedTuple

import numpy as np

from .core import InputError, contract, fraction_texts
from .labels import IDENTITIES, SPECS, render_identity


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
    (rows, or a parsed report's) follow them.  Views are made on first read."""

    def __init__(self, name: str, identities=(), violations=(), sections=(), labels=(), blocks=()):
        self.name, self.identities, self.sections = name, identities, sections
        self.labels, self.blocks, self.rows = labels, blocks, violations

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
    for a second basis after the first), operand renames of its specs
    (section name -> table name) and nested sections.  A section with
    ``read`` evaluates nothing: it takes each code's residual from its
    parent's as ``(source code, sign, subscripts)``, a signed axis
    permutation (``labels.DUAL_PRE_NOVIKOV``)."""

    name: str
    codes: tuple[str, ...]
    labels: tuple[str, ...]
    shift: dict = field(default_factory=dict)
    rename: dict = field(default_factory=dict)
    sections: tuple[Tree, ...] = ()
    read: dict | None = None


def _specs(tree: Tree, path: tuple, out: dict) -> dict:
    """The term lists of every spec in ``tree``, keyed ``(path, code)``."""
    for code in tree.codes:
        if code in SPECS and not tree.read:
            terms = SPECS[code][1]
            out[path, code] = [(coef, subs, tuple(tree.rename.get(n, n) for n in names))
                               for coef, subs, names in terms] if tree.rename else terms
    for k, section in enumerate(tree.sections):
        _specs(section, path + (k,), out)
    return out


def verify(tree: Tree, tables: dict, rows=()) -> Report:
    """The report ``tree`` declares, on ``tables``, from one kernel call.  It
    holds each code's residual array unless it is all zero; ``rows``, the
    root's violations that are no spec's residual, follow the codes'."""
    specs = _specs(tree, (), {})
    try:
        residuals = contract(specs, tables)
    except InputError as exc:  # named by its report and identity, not by the kernel's spec key
        for path, code in specs:
            if (text := str(exc)).startswith(key := f"spec {(path, code)!r}"):
                name = reduce(lambda t, k: t.sections[k], path, tree).name
                raise InputError(f"{name} {render_identity(code)}{text[len(key):]}") from None
        raise
    return _build(tree, (), residuals, rows)


def _build(tree: Tree, path: tuple, residuals: dict, rows=()) -> Report:
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
    return Report(tree.name, tree.codes, rows, sections, tree.labels, blocks)
