"""Structured pass/fail reports produced by every verifier.

A report names the identities it evaluated, lists every violation (witness
basis tuple plus the exact nonzero residual), and may nest sub-reports for
composite checks.  Violations are sorted, so reports are deterministic no
matter how the underlying loops were scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def sort_key(self):
        # numeric code parts sort numerically ("2.9" before "2.10")
        parts = tuple(
            (0, int(p), "") if p.isdigit() else (1, 0, p)
            for p in self.identity.replace("-", ".").split(".")
        )
        return (parts, self.witness_index)


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


class ReportBuilder:
    """Collects violations for one verifier run."""

    def __init__(self, name: str, identities, labels):
        self.name = name
        self.identities = tuple(identities)
        self.labels = tuple(labels)
        self._violations: list[Violation] = []
        self._sections: list[Report] = []

    def residual(self, identity: str, witness: tuple[int, ...], value: tuple[str, ...]) -> None:
        """Record a violation: ``value`` is the nonzero residual vector at
        ``witness``, each entry the string of a reduced fraction."""
        self._violations.append(
            Violation(
                identity=identity,
                witness_index=witness,
                witness=tuple(self.labels[i] for i in witness),
                residual=value,
            )
        )

    def contract(self, tables: dict) -> dict:
        """Evaluate, in one kernel call, the spec of every identity this report
        names that has one: code -> ``(numerators, denominator)``."""
        return contract({code: SPECS[code][1] for code in self.identities if code in SPECS}, tables)

    def record(self, residuals: dict, shift: dict | None = None) -> None:
        """One violation per nonzero witness residual of ``contract``'s layout;
        ``shift`` offsets witness letters into ``labels`` (for a second basis
        after the first).  One string is built per distinct residual value."""
        shift = shift or {}
        for code, (num, den) in residuals.items():
            witness = SPECS[code][0]
            flat = num.reshape(num.shape[: len(witness)] + (-1,))
            offsets = [shift.get(letter, 0) for letter in witness]
            at = np.nonzero((flat != 0).any(axis=-1))
            values = flat[at].tolist()
            text = {x: str(Fraction(x, den)) for x in set(chain.from_iterable(values))}
            for idx, value in zip(zip(*(a.tolist() for a in at)), values):
                self.residual(
                    code,
                    tuple(i + o for i, o in zip(idx, offsets)),
                    tuple(text[x] for x in value),
                )

    def flag(self, identity: str, message: str) -> None:
        """Record a non-residual failure (e.g. a degenerate form)."""
        self._violations.append(
            Violation(identity=identity, witness_index=(), witness=(), residual=(message,))
        )

    def section(self, report: Report) -> None:
        self._sections.append(report)

    def build(self) -> Report:
        return Report(
            name=self.name,
            identities=self.identities,
            violations=tuple(sorted(self._violations, key=Violation.sort_key)),
            sections=tuple(self._sections),
        )
