"""Pure-Python references for the exact contraction kernel.

``reference`` evaluates a term list by brute force in Fraction arithmetic,
every index assignment looped, and ``derive`` adds the derived operands of
``labels.OPERANDS`` to a set of tables the same way.  ``overflow_bound`` is
the kernel's overflow certificate written out term by term from its
definition; each sum of a compiled ``core`` program, whose terms have one
degree, must give the same integer, and the tests use it to say where int64 must end.
"""

import itertools
from fractions import Fraction

import numpy as np

from prenovikov import labels


def reference(terms, tables):
    """sum(coef * einsum) by brute force, as a dict from output index to
    Fraction; each term is looped over its own letters and read at its own
    output letters, so terms may name their letters independently."""
    result = {}
    for coef, subs, names in terms:
        inputs, out = subs.split("->")
        inputs, sizes = inputs.split(","), {}
        for letters, name in zip(inputs, names):
            sizes.update(zip(letters, np.array(tables[name], dtype=object).shape))
        for idx in itertools.product(*(range(sizes[c]) for c in out)):
            result.setdefault(idx, Fraction(0))
        letters = sorted(sizes)
        for values in itertools.product(*(range(sizes[c]) for c in letters)):
            at = dict(zip(letters, values))
            prod = Fraction(coef)
            for sub, name in zip(inputs, names):
                entry = tables[name]
                for c in sub:
                    entry = entry[at[c]]
                prod *= entry
            result[tuple(at[c] for c in out)] += prod
    return result


def table_of(shape, entries):
    """Nested tuples of the given shape, filled from an iterator of entries."""
    if not shape:
        return next(entries)
    return tuple(table_of(shape[1:], entries) for _ in range(shape[0]))


def derive(names, tables, defined=None):
    """``tables`` with the named derived operands added, each evaluated by
    ``reference`` (on its terms in ``defined``, else in ``labels.OPERANDS``),
    recursively."""
    tables, defined = dict(tables), defined or {}

    def need(name):
        if name in tables:
            return
        terms = defined.get(name) or labels.OPERANDS[name]
        for _, _, ns in terms:
            for m in ns:
                need(m)
        values = reference(terms, tables)
        shape = tuple(max(idx[k] for idx in values) + 1 for k in range(len(next(iter(values)))))
        tables[name] = table_of(shape, iter(values.values()))

    for name in names:
        need(name)
    return tables


def overflow_bound(terms, shapes: dict, maxabs: dict) -> int:
    """A bound on every partial sum an integer evaluation of ``terms`` forms.

    Each term contributes |coefficient| times the product of its operands'
    largest entries (at least 1, so partial products stay under it too) times
    the number of index values it sums over.
    """
    total = 0
    for coef, subs, names in terms:
        inputs, out = subs.split("->")
        sizes = {}
        for letters, name in zip(inputs.split(","), names):
            sizes.update(zip(letters, shapes[name]))
        term = abs(coef)
        for name in names:
            term *= max(maxabs[name], 1)
        for letter, size in sizes.items():
            if letter not in out:
                term *= size
        total += term
    return total
