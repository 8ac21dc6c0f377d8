"""The one exact array of the package, the one exact contraction kernel every
identity is evaluated with, the one builder of direct-sum tables, and the one
exact elimination.

The kernel compiles each call once per spec content, input names, member
shapes and batch axes into a program of flat register steps (``_program``, a
bounded LRU cache) that computes each distinct contraction once, so a call on
small tables pays little more than its numpy calls (``contract``, ``sum_batched``).
It alone decides, once per call, between int64 and Python ints, by its
program's certificate, else its sums' bounds (``_bound``); callers certify
nothing.  It reads whole operands: a caller testing a box slices them.

Conventions used throughout the package, all exact, with no tolerances:

* every table is held as an ``Exact`` array, built once, when a bundle is
  parsed or a construction returns, and read by the kernel without
  flattening; public attributes and return values are its nested tuples of
  ``Fraction`` (``Exact.nested``), built on first access;
* ``v[i]`` is the coefficient of ``e_i``; column ``j`` of a matrix ``M`` is
  the image of ``e_j``, i.e. ``(M @ v)[i] = sum_j M[i][j] v[j]``;
* ``t[i][j]`` is the coefficient of ``e_i (x) e_j`` in a rank-2 tensor, and
  ``t[i][j][k]`` that of ``e_i (x) e_j (x) e_k`` in a rank-3 tensor;
* structure constants ``c`` of a binary product have
  ``e_i * e_j = sum_k c[i][j][k] e_k``.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm, prod
from string import ascii_lowercase

import numpy as np

from . import labels

Scalar = Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]
Tensor2 = tuple[tuple[Scalar, ...], ...]
Tensor3 = tuple[tuple[tuple[Scalar, ...], ...], ...]

INT64_MAX = int(np.iinfo(np.int64).max)


class InputError(ValueError):
    """Malformed or inconsistent input data (wrong shapes, bad scalars, ...)."""


class RefusalError(RuntimeError):
    """A constructor's verified precondition failed; carries the failing report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InternalCheckError(AssertionError):
    """A package-built object failed a check it must pass (a bug, never bad
    input); the message opens with ``theorem (...)`` or ``staging (...)``."""


def frac(x) -> Scalar:
    """Coerce an integer (numpy's as an int), string ("p/q" or "n"), or Fraction to an exact Scalar."""
    if isinstance(x, bool) or not isinstance(x, (Fraction, numbers.Integral, str)):
        raise InputError(f"not an exact scalar: {x!r}")
    try:
        return x if isinstance(x, Fraction) else rational(x) if isinstance(x, str) else Fraction(int(x))
    except ValueError:  # "x", "1/0", "1e9999"
        raise InputError(f"not an exact scalar: {x!r}") from None


MAX_DIGITS = sys.int_info.default_max_str_digits  # Python's limit on the digits of an int string


def rational(text: str) -> Fraction:
    """``Fraction(text)``, the one parse of a scalar text.  A number past
    ``MAX_DIGITS`` digits is refused with ``ValueError``: by ``int`` when it
    is written out, and here, before it is expanded, when an exponent would
    take its numerator or denominator past them.  So is a zero denominator."""
    head, e, exponent = text.lower().partition("e")
    if e:
        try:
            shift = abs(int(exponent))
        except ValueError:  # not an int, or one of more digits than int reads
            shift = len(exponent)
        if len(head) + shift > MAX_DIGITS:
            raise ValueError(f"more than {MAX_DIGITS} digits once its exponent is expanded")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def scalar_set(values, what: str) -> list[Scalar]:
    """A nonempty collection of exact scalars (``frac``), deduplicated and
    sorted; ``what`` names it in a refusal.  A text is no collection: a str
    or bytes is refused rather than read one character at a time."""
    if isinstance(values, (str, bytes, bytearray)):
        raise InputError(f"{what} must be a collection of exact scalars, not a {type(values).__name__}")
    try:
        values = sorted(set(map(frac, values)))
    except TypeError:  # (from ``map``, of a non-iterable)
        raise InputError(f"{what} must be a collection of exact scalars, not {values!r}") from None
    if not values:
        raise InputError(f"{what} must be nonempty")
    return values


# ---------------------------------------------------------------------------
# exact arrays
# ---------------------------------------------------------------------------

def _fit(ints: list) -> np.ndarray:
    """Python ints as an array: int64 when every one fits, objects otherwise."""
    return np.array(ints, dtype=np.int64 if max(map(abs, ints), default=0) <= INT64_MAX else object)


class Exact:
    """An immutable exact array: the integers ``num`` over the positive
    denominator ``den``, in lowest terms and in int64 when every numerator
    fits (Python-int objects otherwise), so that equal values are equal
    arrays.  ``maxabs`` is its largest absolute numerator and ``nested`` its
    nested-tuple-of-``Fraction`` view, each computed once, when first read."""

    __slots__ = ("num", "den", "_maxabs", "_nested")

    def __init__(self, num, den: int = 1):
        num = np.asarray(num)
        if den != 1:
            g = gcd(den, int(np.gcd.reduce(num, axis=None))) * (1 if den > 0 else -1)
            if g != 1 and num.any():
                num = num // g
            den //= g
        if num.dtype != np.int64:
            num = _fit(num.ravel().tolist()).reshape(num.shape)
        self.num, self.den, self._maxabs, self._nested = num.view(), den, None, None
        self.num.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    @property
    def T(self) -> "Exact":
        return Exact(self.num.T, self.den)

    @property
    def maxabs(self) -> int:
        if self._maxabs is None:
            self._maxabs = _maxabs(self.num)
        return self._maxabs

    @property
    def nested(self) -> tuple:
        if self._nested is None:
            self._nested = nested_fractions(self.num, self.den)
        return self._nested

    def __eq__(self, other):
        if not isinstance(other, Exact):
            return NotImplemented
        return self.den == other.den and self.shape == other.shape and bool((self.num == other.num).all())


def rationals(values: list, shape: tuple) -> Exact:
    """The ``Exact`` array of reduced rationals (ints or Fractions) listed in
    row-major order: over the lcm of their denominators, which is then in
    lowest terms already."""
    den = lcm(*{x.denominator for x in values})
    return Exact(_fit([x.numerator * (den // x.denominator) for x in values]).reshape(shape), den)


def _entries(table) -> tuple[list, tuple]:
    """The entries of a nested table in row-major order, and its shape.
    Nested tuples and lists are flattened level by level, which is much
    cheaper than building an object array from them.  A bool is no rational,
    as for ``frac``: it is refused, by a check that an integer array skips."""
    shape, level = (), [table.tolist() if isinstance(table, np.ndarray) else table]
    while level and isinstance(level[0], (tuple, list)):
        size = len(level[0])
        if not all(isinstance(row, (tuple, list)) and len(row) == size for row in level):
            raise InputError("a table must be a rectangular array of exact rationals")
        shape += (size,)
        level = [x for row in level for x in row]
    if not (isinstance(table, np.ndarray) and table.dtype.kind in "iu") and bool in set(map(type, level)):
        raise InputError("a table must be a rectangular array of exact rationals")
    return level, shape


def exact(table) -> Exact:
    """A table as an ``Exact`` array: itself when it is one, otherwise its
    nested rational entries, flattened once by ``_entries``."""
    if isinstance(table, Exact):
        return table
    try:
        return rationals(*_entries(table))
    except (AttributeError, TypeError):
        raise InputError("a table must be a rectangular array of exact rationals") from None


def t3_is_zero(a: Tensor3) -> bool:
    return not exact(a).num.any()  # (ragged input is refused)


class held:
    """A data-class field kept as an ``Exact`` array, in the instance's
    ``tables`` under the kernel operand name ``key``, and read as its nested
    view.  Whatever is assigned goes through ``exact``."""

    def __init__(self, key: str):
        self.key = key

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.key)  # the field has no default
        return obj.tables[self.key].nested

    def __set__(self, obj, value):
        obj.__dict__.setdefault("tables", {})[self.key] = exact(value)


def fit_letters(what: str, letters: str, shape: tuple, sizes: dict) -> None:
    """The one shape rule, of the kernel's compiler and of the constructors:
    ``shape`` has one axis per letter and one size per letter.  A letter in
    ``sizes`` keeps its size there and the others are added, so no size-1
    axis is broadcast."""
    if len(shape) != len(letters) or any(sizes.setdefault(c, k) != k for c, k in zip(letters, shape)):
        raise InputError(f"{what}: shape {shape} does not fit {letters!r} at sizes {sizes}")


# ---------------------------------------------------------------------------
# the exact contraction kernel
# ---------------------------------------------------------------------------

# An unbatched term whose full index loop (the product of the sizes of its
# letters) is at most this runs as one einsum; a larger one runs as pairwise
# einsums along a path planned once.  A batched term always runs pairwise,
# each step of two operands lowered once to a batched matrix product
# (``_lowered``), so numpy plans nothing at run time.  From timings on small
# integer tables: one einsum is the cheapest below it, pairwise einsums above.
PATH_LOOP = 512

# The programs ``_program`` keeps, least recently used first out: the one
# cache of the kernel.  One process meets a few hundred kernel calls of
# distinct specs and member shapes at most (a batched input is keyed without
# its length), and a program holds a few short strings and tuples per term.
PLAN_CACHE = 1024


def _steps(inputs: tuple, out: str, sizes: dict) -> tuple:
    """How one einsum term runs at ``sizes``: steps ``(picked, op, entries)``,
    ``op`` of the operands at positions ``picked`` of the current list, its
    result (of ``entries`` per batch member, none without the batch axis of
    a batched term) appended to the list, ``op`` being ``np.einsum``
    subscripts or a ``_lowered`` plan.  Above ``PATH_LOOP``, and with a
    batch axis ``N`` (of size 1) always, the term runs pairwise along the
    greedy path ``np.einsum(optimize=True)`` picks for these shapes (for two
    operands the term itself), a step of two operands and ``N`` lowered.
    """
    subs, on = f"{','.join(inputs)}->{out}", "N" in out
    if len(inputs) == 1 or not on and (len(inputs) == 2 or prod(sizes.values()) <= PATH_LOOP):
        return ((tuple(range(len(inputs))), subs, prod(sizes[c] for c in out)),)
    shaped = [np.broadcast_to(np.int8(0), tuple(sizes[c] for c in letters)) for letters in inputs]
    path = np.einsum_path(subs, *shaped, optimize="greedy")[0][1:] if len(inputs) > 2 else [(0, 1)]
    inputs, steps = list(inputs), []
    for picked in path:
        picked = tuple(sorted(picked))
        groups = [inputs[k] for k in picked]
        for k in reversed(picked):
            del inputs[k]
        kept = set(out).union(*inputs)
        result = out if not inputs else "".join(dict.fromkeys(c for g in groups for c in g if c in kept))
        steps.append((picked, on and len(groups) == 2 and _lowered(*groups, result, sizes)
                      or f"{','.join(groups)}->{result}", prod(sizes[c] for c in result) * (not on or "N" in result)))
        inputs.append(result)
    return tuple(steps)


def _lowered(a: str, b: str, out: str, sizes: dict) -> tuple | None:
    """The pairwise step ``a,b->out`` as numpy's ``bmm_einsum`` runs it, for
    ``_Program.run``: ``a`` laid out as (letters shared and kept, its own,
    contracted) and ``b`` as (shared and kept, contracted, its own), each
    group fused, ``N`` at its run-time size (-1, never dropped as a size-1
    letter).  None (an einsum runs it) if a letter repeats in an operand or
    is summed in one operand only."""
    kept, summed = [c for c in a if c in b and c in out], [c for c in a if c in b and c not in out]
    own_a, own_b = [c for c in a if c not in b], [c for c in b if c not in a]
    if len(set(a)) < len(a) or len(set(b)) < len(b) or not set(own_a + own_b) <= set(out):
        return None
    made = kept + own_a + own_b
    fused = [tuple(-1 if "N" in g else prod(sizes[c] for c in g) for g in groups)
             for groups in ((kept, own_a, summed), (kept, summed, own_b), made)]
    return (tuple(map(a.index, kept + own_a + summed)), fused[0], tuple(map(b.index, kept + summed + own_b)),
            fused[1], bool(summed), fused[2], tuple(map(made.index, out)))


def _canonical(inputs: tuple, out: str) -> tuple[tuple, dict]:
    """The letters of the contraction a term of several operands computes,
    which with its operand names keys it: (letter groups, sorted output
    letters) in its written operand order, letters renamed by first use
    (``N`` kept), which terms differing only in their letters or output axis
    order share; with its renaming."""
    rename = {"N": "N"}
    for c in "".join(inputs):
        rename.setdefault(c, ascii_lowercase[len(rename) - 1])
    return (tuple("".join(map(rename.get, g)) for g in inputs), "".join(sorted(map(rename.get, out)))), rename


def _letters(subs: str, names: tuple, read: tuple, on: bool, what: str) -> tuple:
    """A term's compiled letters, from its subscripts and operands' shapes and
    batch flags: its contraction's letters (``_canonical``; None for a
    one-operand permutation), output shape, index values summed over, read
    axes (the permutation's transpose, or the contraction's letters), steps."""
    groups, out = subs.split("->")
    groups, sizes = [("N" if batch else "") + g for g, (_, batch) in zip(groups.split(","), read)], {}
    out = "N" + out if on else out
    for letters, name, (shape, _) in zip(groups, names, read):
        fit_letters(f"{what}, operand {name!r}", letters, shape, sizes)
    if not sizes.keys() >= set(out):
        raise InputError(f"{what}: no operand of {','.join(groups)}->{out} reads each output letter")
    size, factor = tuple(sizes[c] for c in out), prod(k for c, k in sizes.items() if c not in out)
    if len(groups) == 1 and len(set(groups[0])) == len(groups[0]) and sorted(groups[0]) == sorted(out):
        return None, size, factor, tuple(groups[0].index(c) for c in out), None
    canon, rename = _canonical(tuple(groups), out)
    return canon, size, factor, "".join(map(rename.get, out)), _steps(groups, out, sizes)


def _bound(factors: tuple, maxabs: list) -> int:
    """A bound on every partial sum an integer evaluation of a sum forms,
    given its ``(factor, operand positions)`` per term and a bound on each
    operand's absolute entries: the sum over terms of factor *
    prod(max(maxabs, 1)) over its operands.

    The padding to at least 1 keeps partial products under it too.  It
    also covers a term contracted pairwise along its path: the operands
    are integers, so each factor is 0 or at least 1 in absolute value,
    and an intermediate sums products of fewer factors over fewer index
    values than the whole term.  With a batch axis it bounds each
    member, whose sums are independent.
    """
    return sum(term * prod(max(maxabs[k], 1) for k in at) for term, at in factors)


# What a step does to its register: set it to its value or to coef * value (a copy), add, subtract, or add coef * value.
_SET, _COPY, _ADD, _SUB, _MADD = range(5)


class _Program:
    """One kernel call compiled: specs (``(key, terms)`` pairs) on inputs
    (``(name, shape)`` pairs, of degree 1), those in ``batch`` batched (on
    an axis ``N`` of size 1), lowered in one pass to steps on numbered
    registers.

    Each derived operand (by its terms in ``derived``, else in
    ``labels.OPERANDS``; batched when an input is) comes before the first
    sum that reads it.  ``code`` holds per sum ``(steps, register, key,
    degree, derived, frees)``, a step being ``(action, register,
    coefficient, op, operand registers, axes)``: ``op`` of its operands
    (``np.einsum`` of subscripts, the matrix product of a ``_lowered`` plan,
    or its one operand when None), transposed by ``axes`` unless None, put
    into its register by its action.  A term permutes an operand or reads its
    contraction (``_canonical``, one of ``slots``), which its first reader
    computes into a register, laid out as its own output, by the steps of
    ``_steps``, a pairwise step into the last intermediate it reads (so
    dropping it) if any.  One walk back over ``code`` reads the rest off the
    steps.  ``frees`` are the registers (no input's) whose last reading step,
    else their writing step, is in the sum; they are dropped when it ends.  A
    sum's first term of several operands takes its contraction's array in
    place (``_SET``) unless a later step reads that register, and sums into
    a copy otherwise.  One walk forward gives ``peak``, the most entries
    alive at once, per member in a batched program (where an array without
    the batch axis counts none): each array a step makes (a contraction, a
    copy, a scaled term) counts beside the array it replaces, a first term
    taken in place moves its array, and each sum's ``frees`` drop when it
    ends; no input counts, nor numpy's temporaries inside a step.
    ``bounds`` holds per sum its key, bound factors for ``_bound`` (|coef|
    times the index values a term sums over, the operand positions), operand
    names and whether it is derived.  In ``certificate``, the largest F of
    the sums of degree d bounds their ``_bound`` by F * M**d (M = max(1, the
    inputs' largest maxabs); a derived operand counts at max(F, 1) * M**d of
    its sum).  Each operand is an input or derived and fits its letters
    (``fit_letters``), each output letter of a term is read, and the terms
    of a sum give one shape and one degree (the sum of their operands'
    degrees), so that no term is scaled to another's denominator.
    """

    def __init__(self, specs, inputs, batch, derived=()):
        self.specs, self.batch, inputs = specs, [name for name, _ in inputs if name in batch], dict(inputs)
        self.names, self.bounds, self.code, defined, batched = tuple(inputs), [], [], dict(derived), set(self.batch)
        shape, degree, reg = dict(inputs), dict.fromkeys(inputs, 1), dict(zip(inputs, itertools.count()))
        # per contraction its register and its first reader's axes; per sum the entries of each step's array
        registers, scale, certificate, layout, letters, made = itertools.count(len(inputs)), {}, {}, {}, {}, []

        def add(key, terms, derived, what):  # what: how a refusal names the sum, by the spec that reads it
            names = tuple(dict.fromkeys(name for _, _, ns in terms for name in ns))
            for name in names:
                if name not in shape:
                    if name not in defined and name not in labels.OPERANDS:
                        raise InputError(f"{what}: operand {name!r} is neither an input nor derived")
                    add(name, tuple(defined.get(name) or labels.OPERANDS[name]), True, f"{what}, operand {name!r}")
            pos, on = {name: k for k, name in enumerate(names)}, not batched.isdisjoint(names)
            own = {sum(degree[name] for name in ns) for _, _, ns in terms}
            if len(own) > 1:
                raise InputError(f"{what}: its terms have the degrees {sorted(own)}")
            (deg,), factors, steps, entries, ends, out = own, [], [], [], set(), next(registers)
            for t, (coef, subs, ns) in enumerate(terms):
                at, read = tuple(pos[name] for name in ns), tuple((shape[name], name in batched) for name in ns)
                if (subs, read, on) not in letters:  # (terms of one subscript and operand shapes share them)
                    letters[subs, read, on] = _letters(subs, ns, read, on, what)
                canon, size, factor, axes, run = letters[subs, read, on]
                ends.add(size)
                factors.append((abs(coef) * factor, at))
                source, contraction = reg[ns[0]], (ns, canon)
                if canon:
                    if contraction not in layout:  # its first reader computes it; a step writes into the last
                        ins, fresh = [reg[name] for name in ns], set()  # intermediate it reads, else a new register
                        for picked, op, n in run:
                            args = tuple(ins.pop(k) for k in reversed(picked))[::-1]
                            ins.append(args[-1] if args[-1] in fresh else next(registers))
                            fresh.add(ins[-1])
                            steps.append([_SET, ins[-1], 1, op, args, None])
                            entries.append(n)
                        layout[contraction] = ins[-1], axes
                    source, first = layout[contraction]
                    axes = None if first == axes else tuple(first.index(x) for x in axes)
                # accumulate in place: into the first term's new array, or its copy if a later step reads it
                act = ((_SET if coef == 1 and len(at) > 1 else _COPY) if t == 0
                       else _ADD if coef == 1 else _SUB if coef == -1 else _MADD)
                steps.append([act, out, coef, None, (source,), axes])
                entries.append(prod(size))
            if len(ends) > 1:
                raise InputError(f"{what}: its terms give the shapes {sorted(ends)}")
            f = sum(factor * prod(scale.get(names[k], 1) for k in at) for factor, at in factors)
            certificate[deg] = max(certificate.get(deg, 0), f)
            if derived:
                shape[key], degree[key], scale[key], reg[key] = size, deg, max(f, 1), out
                batched.update([key] if on else [])
            self.bounds.append((key, tuple(factors), names, derived))
            self.code.append((steps, out, key, deg, derived))
            made.append(entries if on or not self.batch else [0] * len(entries))

        for key, terms in specs:
            add(key, terms, False, f"spec {key!r}")
        # the walk back: each register's last reader (else writer), and the first terms read again
        drop, later = {}, set()
        for s in reversed(range(len(self.code))):
            steps, *rest = self.code[s]
            for step in reversed(steps):
                if step[3] is None and step[4][0] in later:  # a term whose array a later step reads too
                    step[0] = _COPY if step[0] == _SET else step[0]
                later.update(step[4])
            frees = tuple(dict.fromkeys(k for _, to, _, _, ins, _ in steps for k in (to, *ins)
                                        if k >= len(inputs) and drop.setdefault(k, s) == s))
            self.code[s] = (tuple(map(tuple, steps)), *rest, frees)
        # the walk forward: the entries alive at each step, each new array beside the array it replaces
        live, self.peak = {}, 0
        for (steps, *_, frees), entries in zip(self.code, made):
            for (act, to, _, op, ins, _), n in zip(steps, entries):
                if act == _SET and op is None:  # a move: the sum takes its first term's array
                    live[to] = live.pop(ins[0])
                elif op is not None or act in (_COPY, _MADD):  # a new array (a scaled term's is added in and dropped)
                    self.peak = max(self.peak, sum(live.values()) + n)
                    live[to] = live[to] if act == _MADD else n
            live = {k: n for k, n in live.items() if k not in frees}
        self.slots, self.registers, self.certificate = len(layout), next(registers), tuple(certificate.items())

    def dtype(self, maxabs: dict) -> tuple:
        """A run's dtype on inputs of these largest absolute entries, and the
        largest of them and of the bounds taken: int64 when every input and sum
        ``_bound`` fits (a derived operand counts at its sum's bound; the bounds
        are taken only when the ``certificate`` does not fit), else objects."""
        most = max(maxabs.values(), default=0)
        if any(f * max(most, 1)**d > INT64_MAX for d, f in self.certificate):
            maxabs = dict(maxabs)
            for key, factors, names, derived in self.bounds:
                most = max(most, bound := _bound(factors, [maxabs[name] for name in names]))
                if derived:
                    maxabs[key] = bound
        return np.int64 if most <= INT64_MAX else object, most

    def run(self, arrays: dict, maxabs: dict):
        """Yields ``(key, integers, degree)`` per spec, from the inputs' integers
        and largest absolute entries: the steps in order, at their ``dtype``."""
        dtype, _ = self.dtype(maxabs)
        regs = [a if a.dtype == dtype else a.astype(dtype) for a in map(arrays.__getitem__, self.names)]
        regs += [None] * (self.registers - len(regs))
        for steps, out, key, deg, derived, frees in self.code:
            for act, to, coef, op, ins, axes in steps:
                if type(op) is tuple:  # a ``_lowered`` plan: a matrix product (broadcast when nothing is summed)
                    (pa, sa, pb, sb, summed, made, back), (x, y) = op, map(regs.__getitem__, ins)
                    x, y = x.transpose(pa).reshape(sa), y.transpose(pb).reshape(sb)
                    value = (np.matmul(x, y) if summed else x * y).reshape(made).transpose(back)
                else:
                    value = regs[ins[0]] if op is None else np.einsum(op, *map(regs.__getitem__, ins))
                if axes is not None:
                    value = value.transpose(axes)
                if act == _ADD:
                    regs[to] += value
                elif act == _SET:
                    regs[to] = value
                elif act == _COPY:
                    regs[to] = value.copy() if coef == 1 and type(value) is np.ndarray else value * coef
                elif act == _SUB:
                    regs[to] -= value
                else:
                    regs[to] += coef * value
            regs[out] = value = np.asarray(regs[out], dtype=dtype)  # (a 0-d einsum gives a scalar)
            for k in frees:
                regs[k] = None
            if not derived:
                yield key, value, deg


# The compiled program of a kernel call, keyed by its specs, member shapes and batch.
_program = functools.lru_cache(maxsize=PLAN_CACHE)(_Program)


def _compile(specs: dict, arrays: dict, batch=(), derived=None) -> _Program:
    """``_program`` of ``specs`` on ``arrays`` (those in ``batch`` of one
    length, by member shape), with the operands ``derived`` defines."""
    if batch and (len(lengths := {a.shape[:1] for name, a in arrays.items() if name in batch}) > 1 or () in lengths):
        raise InputError(f"batched operands of lengths {sorted(lengths)}: one batch length is needed")
    return _program(tuple([(key, tuple(terms)) for key, terms in specs.items()]),
                    tuple([(name, (1, *a.shape[1:]) if name in batch else a.shape) for name, a in arrays.items()]),
                    frozenset(batch), tuple(derived.items()) if derived else ())


def _maxabs(array: np.ndarray) -> int:
    """The largest absolute entry of an integer array, 0 when it is empty."""
    return int(np.abs(array).max(initial=0))


def _lift(tables: dict) -> tuple[dict, dict, int]:
    """The tables' numerators over one common denominator, each brought there
    by one integer multiply (on Python ints when an entry would leave int64),
    and their largest absolute numerators (their ``Exact`` arrays', scaled)."""
    arrays = {name: exact(t) for name, t in tables.items()}
    den = lcm(*{e.den for e in arrays.values()})
    lifted, maxabs = {}, {}
    for name, e in arrays.items():
        num, factor = e.num, den // e.den
        maxabs[name] = e.maxabs * factor
        if factor != 1 and e.maxabs:
            num = (num.astype(object) if maxabs[name] > INT64_MAX else num) * factor
        lifted[name] = num
    return lifted, maxabs, den


def contract(specs: dict, tables: dict, derived=None) -> dict:
    """Exact values of signed sums of einsum terms over rational tables.

    ``specs`` maps each key to a term list of ``(integer coefficient, einsum
    subscripts, operand names)``; ``tables`` maps names to ``Exact`` arrays
    (or nested sequences of rationals, which ``exact`` flattens).  Names
    missing from ``tables`` are derived by their term lists in ``derived``,
    else in ``labels.OPERANDS``.  The tables are brought to one common
    denominator (``_lift``) and the call runs as its cached ``_Program``.
    Returns key -> ``(numerators, denominator)``: the value is ``numerators
    / denominator``, entry by entry.
    """
    arrays, maxabs, den = _lift(tables)
    return {key: (num, den**deg) for key, num, deg in _compile(specs, arrays, (), derived).run(arrays, maxabs)}


def sum_batched(specs: dict, arrays: dict, batch=()) -> dict:
    """Each term list in ``specs`` summed on integer arrays (of any dtype),
    key by key, in one ``_Program`` run.  The operands named in ``batch``
    carry a leading batch axis ``N``, as the results do."""
    maxabs = {name: _maxabs(a) for name, a in arrays.items()}
    return {key: num for key, num, _ in _compile(specs, arrays, batch).run(arrays, maxabs)}


# Bytes of the register entries (``_Program.peak``) one chunk of ``zero_members`` may hold alive at once.
BATCH_BYTES = 4 * 2**20


def chunk_length(program: _Program, maxabs: dict | None = None) -> int:
    """The one length rule: how many members of a batch (at least one) a run of
    ``program`` holds within ``BATCH_BYTES``, each charged ``peak`` entries of
    8 bytes in int64, else a pointer plus the int object of the largest bound
    (``_Program.dtype`` of ``maxabs``; int64 without)."""
    dtype, most = program.dtype(maxabs) if maxabs else (np.int64, 0)
    return max(1, BATCH_BYTES // ((8 if dtype is np.int64 else 8 + sys.getsizeof(most)) * max(1, program.peak)))


def zero_members(specs: dict, size: int, members, fixed=None, keep: int = 1):
    """Which members of a batch have an all-zero residual under every term
    list in ``specs``, one chunk at a time.

    ``members(lo, hi)`` builds the operands of members lo..hi-1 that carry a
    leading batch axis; ``fixed`` holds those that do not.  Yields, in order,
    each chunk's batched operands and the mask of its members (over the
    first ``keep`` axes of the residuals) whose every residual is zero.  The
    program, compiled once from member ``lo``, gives the first chunk's
    length in int64 (``chunk_length``).  Each chunk is charged at the dtype
    its run takes before any sum runs, and one past ``BATCH_BYTES`` is
    rebuilt at its ``chunk_length``, which the chunks after keep.
    """
    fixed = fixed or {}
    lo, length, tops = 0, 0, {name: _maxabs(a) for name, a in fixed.items()}
    while lo < size:
        if not length:
            one = members(lo, lo + 1)
            length = chunk_length(program := _compile(specs, {**fixed, **one}, one))
        arrays = members(lo, hi := min(size, lo + length))
        maxabs = {**tops, **{name: _maxabs(a) for name, a in arrays.items()}}
        if hi - lo > 1 and (fit := chunk_length(program, maxabs)) < hi - lo:
            length = fit
            continue
        # each residual is reduced, and freed, before the next sum runs
        nonzero = [(num != 0).reshape(num.shape[:keep] + (-1,)).any(axis=-1)
                   for _, num, _ in program.run({**fixed, **arrays}, maxabs)]
        yield arrays, ~np.any(nonzero, axis=0)
        lo = hi


def zero_mask(specs: dict, size: int, members, fixed=None) -> np.ndarray:
    """The mask of ``zero_members`` over the whole batch."""
    masks = [ok for _, ok in zero_members(specs, size, members, fixed)]
    return np.concatenate([np.ones(0, bool), *masks])


def nested_fractions(num: np.ndarray, den: int = 1) -> tuple:
    """An integer array over a denominator as nested tuples of Fractions, one
    Fraction object per distinct value."""
    ints = num.ravel().tolist()
    box = {x: Fraction(x, den) for x in set(ints)}
    flat = [box[x] for x in ints]
    for size in reversed(num.shape[1:]):
        flat = [tuple(flat[k : k + size]) for k in range(0, len(flat), size)]
    return tuple(flat)


def fraction_texts(ints, den: int) -> dict:
    """Each distinct integer of ``ints`` over the positive ``den`` -> its
    reduced ``"p"`` or ``"p/q"`` string, as ``str(Fraction(x, den))`` writes
    it: one string per value."""
    text = {}
    for x in set(ints):
        g = gcd(x, den)
        try:
            text[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
        except ValueError:  # past ``MAX_DIGITS`` digits, where ``str`` refuses and ``Decimal`` does not
            text[x] = str(Decimal(x // g)) if g == den else f"{Decimal(x // g)}/{Decimal(den // g)}"
    return text


def evaluate(specs: dict, tables: dict) -> dict:
    """``contract`` as ``Exact`` arrays, key by key."""
    return {key: Exact(num, den) for key, (num, den) in contract(specs, tables).items()}


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def eliminate(m) -> tuple[Scalar, Exact | None]:
    """Determinant and inverse of a square matrix (``Exact`` or nested; any
    other is refused).  The inverse is an ``Exact`` array, None when the
    matrix is singular.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [M | I] on the integer
    lift M = s m: after the step on column k every row holds (k+1)-minors of
    the augmented matrix, so each division by the previous pivot is exact, and
    the last pivot d is det M up to the sign of the row swaps, with d I on the
    left and d M^{-1} on the right.
    """
    m = exact(m)
    if m.shape != (0,):  # (``()``, the empty matrix, is square)
        fit_letters("elimination of a non-square matrix", "aa", m.shape, {})
    n, den = len(m.num), m.den
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.num.tolist())]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0), None
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot, row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = pivot
    return Fraction(sign * prev, den**n), Exact(np.array([row[n:] for row in a], dtype=object) * den, prev)


def exact_det(m: Matrix) -> Scalar:
    """The determinant, by ``eliminate``."""
    return eliminate(m)[0]


def mat_inverse(a: Matrix) -> Matrix:
    """The inverse, by ``eliminate``; raises InputError if singular."""
    inverse = eliminate(a)[1]
    if inverse is None:
        raise InputError("singular system")
    return inverse.nested


# ---------------------------------------------------------------------------
# structure constants of a bilinear product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    """Rank-3 table c with e_i * e_j = sum_k c[i][j][k] e_k, held as the
    ``Exact`` array ``table``."""

    dim: int
    c: Tensor3 = held("c")

    def __post_init__(self):
        if self.dim <= 0:
            raise InputError("dimension must be positive")
        fit_letters("structure constants", "nnn", self.table.shape, {"n": self.dim})

    @property
    def table(self) -> Exact:
        return self.tables["c"]

    @staticmethod
    def from_rows(rows) -> "StructureConstants":
        c = tuple(tuple(tuple(map(frac, row)) for row in plane) for plane in rows)
        return StructureConstants(len(c), c)

    @staticmethod
    def zero(n: int) -> "StructureConstants":
        return StructureConstants(n, Exact(np.zeros((n, n, n), dtype=np.int64)))

    def is_zero(self) -> bool:
        return not self.table.num.any()

    def __eq__(self, other):  # (the dataclass hash reads the same table, as its nested view)
        return self.table == other.table if isinstance(other, StructureConstants) else NotImplemented


# The tables of ``direct_sum_table``: the summand (A or M) of each axis, and
# the axes that read it in the order of the product's slots.  A family X holds
# one matrix per basis element, X[a][z][x] being the coefficient of the z-th
# basis vector in X(a) applied to the x-th.
_BLOCKS = {
    "o": ("AAA", (0, 1, 2)),
    ".": ("MMM", (0, 1, 2)),
    "lA": ("AMM", (0, 2, 1)),
    "rA": ("AMM", (2, 0, 1)),
    "lB": ("MAA", (0, 2, 1)),
    "rB": ("MAA", (2, 0, 1)),
}


def fit_blocks(tables: dict, n: int, m: int) -> None:
    """The letter rule on ``_BLOCKS``' tables, with A of size n and M of size m."""
    sizes = {"A": n, "M": m}
    for name, table in tables.items():
        fit_letters(name, _BLOCKS[name][0], table.shape, sizes)


def direct_sum_table(n: int, m: int, tables: dict) -> StructureConstants:
    """The product table on A (+) M, on the basis (e_1..e_n, v_1..v_m), of

        (a+u)(b+v) = (a o b + lB(u)b + rB(v)a) + (u . v + lA(a)v + rA(b)u),

    with no validity requirement.  ``tables`` holds any of: the A product
    "o", the M product ".", the families lA, rA of A acting on M (n matrices
    of size m x m) and lB, rB of M acting on A (m matrices of size n x n); a
    missing one is zero.  The tables, refused unless they fit their blocks, are
    brought to one common denominator and placed as blocks of a zero table.
    """
    lifted, _, den = _lift(tables)
    fit_blocks(lifted, n, m)
    span = {"A": slice(0, n), "M": slice(n, n + m)}
    c = np.zeros((n + m,) * 3, dtype=np.result_type(np.int64, *lifted.values()))
    for name, array in lifted.items():
        letters, axes = _BLOCKS[name]
        c[tuple(span[letters[k]] for k in axes)] = array.transpose(axes)
    return StructureConstants(n + m, Exact(c, den))
