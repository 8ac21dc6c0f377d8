"""Structured pass/fail reports produced by every verifier, and the one path
that makes them.

A report names the identities it evaluated, lists every violation (witness
basis tuple plus the exact nonzero residual), and may nest sub-reports for
composite checks.  Every verifier declares its report as a ``Tree`` and makes
it with one ``verify`` call, which evaluates the whole tree in one kernel
call.  Violations are listed identity by identity in code order, each
identity's witnesses in lexicographic order, so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .core import contract
from .labels import SPECS


def default_labels(n: int, prefix: str = "e") -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def split_labels(n: int) -> tuple[str, ...]:
    """Basis labels for a double space: e1..en then e1*..en*."""
    return tuple(f"e{i + 1}" for i in range(n)) + tuple(f"e{i + 1}*" for i in range(n))


@dataclass(frozen=True)
class Violation:
    identity: str
    witness_index: tuple[int, ...]
    witness: tuple[str, ...]
    residual: tuple[str, ...]


@dataclass(frozen=True)
class Report:
    name: str
    identities: tuple[str, ...] = ()
    violations: tuple[Violation, ...] = ()
    sections: tuple["Report", ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations and all(s.passed for s in self.sections)

    def all_violations(self) -> tuple[Violation, ...]:
        out = list(self.violations)
        for s in self.sections:
            out.extend(s.all_violations())
        return tuple(out)


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


class ReportBuilder:
    """Collects the violations of the report a ``Tree`` declares."""

    def __init__(self, tree: Tree):
        self.tree, self._violations = tree, []

    def residual(self, identity: str, witness: tuple[int, ...], value: tuple[str, ...]) -> None:
        """Record a violation: ``value`` is the nonzero residual vector at
        ``witness``, each entry the string of a reduced fraction."""
        self._violations.append(Violation(identity, witness, tuple(self.tree.labels[i] for i in witness), value))

    def build(self, sections=()) -> Report:
        return Report(self.tree.name, self.tree.codes, tuple(self._violations), tuple(sections))


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
    """The report ``tree`` declares, on ``tables``, from one kernel call.

    Violations are listed code by code in the order of ``tree.codes``, each
    code's witnesses in lexicographic order (that of ``np.nonzero``, which a
    shift keeps), and then ``rows``: the root's violations that are no
    spec's residual, ``(code, witness index, residual strings)``.  One
    residual string is built per distinct value of a code.
    """
    return _build(tree, (), contract(_specs(tree, (), {}), tables), rows)


def _build(tree: Tree, path: tuple, residuals: dict, rows=()) -> Report:
    rb = ReportBuilder(tree)
    for code in tree.codes:
        if tree.read:
            source, sign, subs = tree.read[code]
            num, den = residuals[path[:-1], source]
            num = sign * np.einsum(subs, num)
        elif (path, code) in residuals:
            num, den = residuals[path, code]
        else:
            continue
        witness = SPECS[code][0]
        flat = num.reshape(num.shape[: len(witness)] + (-1,))
        offsets = [tree.shift.get(letter, 0) for letter in witness]
        at = np.nonzero((flat != 0).any(axis=-1))
        values = flat[at].tolist()
        text = {x: str(Fraction(x, den)) for x in set(chain.from_iterable(values))}
        for idx, value in zip(zip(*(a.tolist() for a in at)), values):
            rb.residual(code, tuple(i + o for i, o in zip(idx, offsets)), tuple(text[x] for x in value))
    for row in rows:
        rb.residual(*row)
    return rb.build(_build(section, path + (k,), residuals) for k, section in enumerate(tree.sections))
