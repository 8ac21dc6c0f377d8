"""Pure-Python references for the exact contraction kernel.

``reference`` evaluates a term list by brute force in Fraction arithmetic,
every index assignment looped, and ``derive`` adds the derived operands of
``labels.OPERANDS`` to a set of tables the same way.  ``overflow_bound`` is
the kernel's overflow certificate written out term by term from its
definition; each sum of a compiled ``core`` program, whose terms have one
degree, must give the same integer, and the tests use it to say where int64 must end.
``live_peak`` replays a compiled program step by step on real arrays and
reads off the most entries alive at once, which its ``peak`` must cover.
"""

import itertools
from fractions import Fraction

import numpy as np

from prenovikov import core, labels


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


def _root(array) -> np.ndarray:
    """The array that owns the memory of ``array`` (itself, or the base its
    views lead back to)."""
    array = np.asarray(array)
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def live_peak(program, arrays: dict) -> int:
    """The most entries per batch member alive at once while ``program``
    (a ``core._Program``) runs on ``arrays``, replayed step by step on the
    real arrays.

    After each step, the entries of every live register that holds no
    input's array are summed, plus the array the step forms (its product,
    copy or scaled copy), each array counted once however many registers
    hold views of it.  In a batched program a register counts its entries
    over the batch length when it holds the batch axis (its step reads a
    batched register), and none otherwise.  numpy's temporaries inside a
    step are not counted.
    """
    maxabs = {name: int(np.abs(a).max(initial=0)) for name, a in arrays.items()}
    dtype, _ = program.dtype(maxabs)
    regs = [np.asarray(arrays[name]).astype(dtype) for name in program.names]
    batched = [name in program.batch for name in program.names]
    inputs, length = {id(_root(a)) for a in regs}, len(arrays[program.batch[0]]) if program.batch else 1
    regs += [None] * (program.registers - len(regs))
    batched += [False] * (program.registers - len(batched))

    def alive(value, on) -> int:
        held = {}
        for array, flag in [(a, b) for a, b in zip(regs, batched) if a is not None] + [(value, on)]:
            root = _root(array)
            if id(root) not in inputs and (flag or not program.batch):
                held[id(root)] = root.size // length
        return sum(held.values())

    most = 0
    for steps, out, _, _, _, frees in program.code:
        for act, to, coef, op, ins, axes in steps:
            if type(op) is tuple:
                (pa, sa, pb, sb, summed, made, back), (x, y) = op, (regs[k] for k in ins)
                x, y = x.transpose(pa).reshape(sa), y.transpose(pb).reshape(sb)
                value = (np.matmul(x, y) if summed else x * y).reshape(made).transpose(back)
            else:
                value = regs[ins[0]] if op is None else np.einsum(op, *(regs[k] for k in ins))
            if axes is not None:
                value = value.transpose(axes)
            on = any(batched[k] for k in ins)
            if act == core._COPY:
                value = value.copy() if coef == 1 and type(value) is np.ndarray else value * coef
            elif act == core._MADD:
                value = coef * value
            most = max(most, alive(value, on))
            if act in (core._SET, core._COPY):
                regs[to], batched[to] = value, on
            elif act == core._SUB:
                regs[to] -= value
            else:
                regs[to] += value
        regs[out] = np.asarray(regs[out], dtype=dtype)
        for k in frees:
            regs[k] = None
    return most
