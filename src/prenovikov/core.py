"""The one exact array of the package, the one exact contraction kernel every
identity is evaluated with, the one builder of direct-sum tables, and the one
exact elimination.

The kernel compiles each term list once per set of operand shapes, degrees
and batch axes into a plan (``_plan``, a bounded LRU cache keyed by the term
list's content), so that a call on small tables pays for little more than
its einsums: see ``contract`` and ``sum_batched``.  It alone decides whether a
sum runs in int64 or on Python ints, from the bound of its plan; callers
certify nothing.

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
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from . import labels

Scalar = Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]
Tensor2 = tuple[tuple[Scalar, ...], ...]
Tensor3 = tuple[tuple[tuple[Scalar, ...], ...], ...]
Terms = Sequence[tuple[int, str, tuple[str, ...]]]

ZERO = Fraction(0)
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
    """Coerce an int, string ("p/q" or "n"), or Fraction to an exact Scalar."""
    if isinstance(x, bool) or not isinstance(x, (Fraction, int, str)):
        raise InputError(f"not an exact scalar: {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


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
    arrays.  ``nested`` is its nested-tuple-of-``Fraction`` view, built once."""

    __slots__ = ("num", "den", "_nested")

    def __init__(self, num, den: int = 1):
        num = np.asarray(num)
        if den != 1:
            g = gcd(den, int(np.gcd.reduce(num, axis=None))) * (1 if den > 0 else -1)
            if g != 1 and num.any():
                num = num // g
            den //= g
        if num.dtype != np.int64:
            num = _fit(num.ravel().tolist()).reshape(num.shape)
        self.num, self.den, self._nested = num.view(), den, None
        self.num.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    @property
    def T(self) -> "Exact":
        return Exact(self.num.T, self.den)

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
    cheaper than building an object array from them."""
    shape, level = (), [table.tolist() if isinstance(table, np.ndarray) else table]
    while level and isinstance(level[0], (tuple, list)):
        size = len(level[0])
        if not all(isinstance(row, (tuple, list)) and len(row) == size for row in level):
            raise InputError("a table must be a rectangular array of exact rationals")
        shape += (size,)
        level = [x for row in level for x in row]
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


# ---------------------------------------------------------------------------
# the exact contraction kernel
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _parse(subs: str) -> tuple[tuple[str, ...], str]:
    """Einsum subscripts split into the input letter groups and the output."""
    inputs, out = subs.split("->")
    return tuple(inputs.split(",")), out


# A term whose full index loop (the product of the sizes of all its letters,
# the batch axis included) is at most this runs as one einsum; a larger one
# runs along a path planned once.  From timings on small integer tables: one
# naive einsum is the cheapest below it, pairwise einsums above it, and
# np.einsum along the path (its pairwise steps are batched matrix products)
# on a batch axis.
PATH_LOOP = 512

# The plans ``_plan`` keeps, least recently used first out.  One process
# meets a few hundred (spec, shapes, degrees) combinations at most, and a
# plan holds a few short strings and tuples.
PLAN_CACHE = 1024


@functools.lru_cache(maxsize=PLAN_CACHE)
def _names(terms: tuple) -> tuple[str, ...]:
    """The operand names of a term list, in order of first use."""
    return tuple(dict.fromkeys(name for _, _, names in terms for name in names))


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(terms: tuple, shapes: tuple, degrees: tuple, batch: frozenset) -> "_Plan":
    """The compiled plan of a term list, keyed by its content and by the
    shapes and degrees of its operands (listed as ``_names`` lists them) and
    the operands that carry a batch axis."""
    return _Plan(terms, shapes, degrees, batch)


def _steps(inputs: tuple, out: str, sizes: dict) -> tuple[tuple, int]:
    """How one einsum term runs, and the entries per batch member of the
    largest array it forms.

    The steps are ``(picked, subscripts, options)``: each is ``np.einsum``
    with these keyword options of the operands at positions ``picked`` of
    the current list, its result appended to the list.  Above ``PATH_LOOP``
    the term follows the greedy path ``np.einsum(optimize=True)`` picks for
    these shapes: as pairwise einsums, or, with a batch axis ``N``, as one
    ``np.einsum`` given that path.
    """
    def entries(letters):
        return prod(sizes[c] for c in letters if c != "N")

    subs, whole = f"{','.join(inputs)}->{out}", tuple(range(len(inputs)))
    if prod(sizes.values()) <= PATH_LOOP:
        return ((whole, subs, {}),), entries(out)
    if len(inputs) <= 2:  # the path is the term itself
        return ((whole, subs, {"optimize": True} if "N" in out else {}),), entries(out)
    shaped = [np.broadcast_to(np.int8(0), tuple(sizes[c] for c in letters)) for letters in inputs]
    path = np.einsum_path(subs, *shaped, optimize="greedy")[0]
    inputs, steps = list(inputs), []
    for picked in path[1:]:
        picked = tuple(sorted(picked))
        groups = [inputs[k] for k in picked]
        for k in reversed(picked):
            del inputs[k]
        kept = set(out).union(*inputs)
        result = out if not inputs else "".join(dict.fromkeys(c for g in groups for c in g if c in kept))
        steps.append((picked, f"{','.join(groups)}->{result}", {}))
        inputs.append(result)
    peak = max(entries(step.split("->")[1]) for _, step, _ in steps)
    return (((whole, subs, {"optimize": path}),) if "N" in out else tuple(steps)), peak


class _Plan:
    """A term list compiled for operands of fixed shapes and degrees.

    Per term it holds the operand positions, the degree shift that brings
    the term to the top degree ``top``, the bound factor (|coef| times the
    number of index values the term sums over) and how the term runs: a
    one-operand permutation as a transpose view, any other term as the
    einsum steps of ``_steps``.  ``peak`` is the largest array a term forms,
    an einsum step or the permuted copy it is summed into, in entries per
    batch member.
    """

    def __init__(self, terms, shapes, degrees, batch):
        self.names = _names(terms)
        pos = {name: k for k, name in enumerate(self.names)}
        batched = [name in batch for name in self.names]
        extent = [shape[1:] if b else shape for shape, b in zip(shapes, batched)]
        own = [sum(degrees[pos[name]] for name in names) for _, _, names in terms]
        self.top = max(own)
        self.terms, self.peak = [], 0
        for (coef, subs, names), degree in zip(terms, own):
            inputs, out = _parse(subs)
            at = tuple(pos[name] for name in names)
            sizes = {}
            for letters, k in zip(inputs, at):
                sizes.update(zip(letters, extent[k]))
            factor = abs(coef) * prod(size for c, size in sizes.items() if c not in out)
            if batch:
                inputs = tuple("N" + g if batched[k] else g for g, k in zip(inputs, at))
                out = "N" + out
                sizes["N"] = shapes[batched.index(True)][0]
            axes, steps = None, ()
            if len(at) == 1 and len(set(inputs[0])) == len(inputs[0]) and sorted(inputs[0]) == sorted(out):
                axes = tuple(inputs[0].index(c) for c in out)
                peak = prod(sizes[c] for c in out if c != "N")  # the copy it accumulates into
            else:
                steps, peak = _steps(inputs, out, sizes)
            self.peak = max(self.peak, peak)
            self.terms.append((coef, self.top - degree, factor, at, axes, steps))

    def bound(self, maxabs: Sequence[int], den: int = 1) -> int:
        """A bound on every partial sum an integer evaluation forms, given
        each operand's largest absolute entry: the sum over terms of
        factor * den**shift * prod(max(maxabs, 1)) over its operands.

        The padding to at least 1 keeps partial products under it too.  It
        also covers a term contracted pairwise along its path: the operands
        are integers, so each factor is 0 or at least 1 in absolute value,
        and an intermediate sums products of fewer factors over fewer index
        values than the whole term.  With a batch axis it bounds each
        member, whose sums are independent.
        """
        pads = [max(m, 1) for m in maxabs]
        total = 0
        for _, shift, factor, at, _, _ in self.terms:
            term = factor * den**shift
            for k in at:
                term *= pads[k]
            total += term
        return total

    def run(self, operands: Sequence[np.ndarray], den: int = 1) -> np.ndarray:
        """sum(coef * den**shift * term) on the operands listed as ``names``,
        in their own dtype, which ``_Lifted.sum`` certifies cannot overflow."""
        acc = None
        for coef, shift, _, at, axes, steps in self.terms:
            coef *= den**shift
            if axes is not None:
                value = operands[at[0]].transpose(axes)
            elif len(steps) == 1:
                _, subs, options = steps[0]
                value = np.einsum(subs, *[operands[k] for k in at], **options)
            else:
                ops = [operands[k] for k in at]
                for picked, subs, options in steps:
                    args = [ops[k] for k in picked]
                    for k in reversed(picked):
                        del ops[k]
                    ops.append(np.einsum(subs, *args, **options))
                value = ops[0]
            # accumulate in place, so that one einsum temporary at most is alive
            if acc is None:
                acc = value * coef if coef != 1 or len(at) == 1 else value  # one operand: a view
            elif coef == 1:
                acc += value
            elif coef == -1:
                acc -= value
            else:
                acc += coef * value
        return acc


def _lift(tables: dict) -> tuple[dict, int]:
    """The tables' numerators over one common denominator: each ``Exact``
    array is brought there by one integer multiply, on Python ints when an
    entry would leave int64."""
    arrays = {name: exact(t) for name, t in tables.items()}
    den = lcm(*{e.den for e in arrays.values()})
    lifted = {}
    for name, e in arrays.items():
        num, factor = e.num, den // e.den
        if factor != 1 and num.any():
            if int(np.abs(num).max()) * factor > INT64_MAX:
                num = num.astype(object)
            num = num * factor
        lifted[name] = num
    return lifted, den


# The batch of an unbatched call: shared, so that the rational path of
# ``contract`` builds no set per sum.
_NO_BATCH = frozenset()


class _Lifted:
    """The operands of one kernel call: integer arrays over the common
    denominator ``den`` and every name derived from them, each with its
    degree (it holds its values times den**degree), its largest absolute
    entry and its copies per dtype.  The names in ``batch`` carry a leading
    batch axis ``N``; a derived name carries it when one of its inputs does.

    This is the one place that decides between int64 and Python ints: every
    sum runs in int64 when its plan's bound certifies it, and on Python-int
    object arrays otherwise.  With a ``budget`` in bytes, a batched sum whose
    largest array would pass it raises ``_OverBudget`` instead of running.
    """

    def __init__(self, arrays: dict, den: int = 1, batch=_NO_BATCH, budget: int = 0):
        self.arrays, self.den, self.budget = arrays, den, budget
        self.batch = set(batch) if batch else _NO_BATCH
        self.degree = dict.fromkeys(arrays, 1)
        self.maxabs = {}
        self.typed = {np.int64: {}, object: {}}

    def resolve(self, name: str) -> None:
        """Make ``name`` available, deriving it from ``labels.OPERANDS``."""
        if name not in self.arrays:
            terms = tuple(labels.OPERANDS[name])
            self.arrays[name], self.degree[name] = self.sum(terms)
            if self.batch and not self.batch.isdisjoint(_names(terms)):
                self.batch.add(name)
        self.maxabs[name] = int(np.abs(self.arrays[name]).max(initial=0))

    def as_dtype(self, names, dtype) -> list[np.ndarray]:
        """The operands ``names`` in ``dtype``, each converted once."""
        typed, out = self.typed[dtype], []
        for name in names:
            array = typed.get(name)
            if array is None:
                array = self.arrays[name]
                typed[name] = array = array if array.dtype == dtype else array.astype(dtype)
            out.append(array)
        return out

    def sum(self, terms: Terms) -> tuple[np.ndarray, int]:
        """Evaluate terms on the operands; returns (integers, scale exponent).

        Each term is brought to the largest degree among the terms before
        they are summed, in int64 when the plan's bound certifies that no
        partial sum can overflow, and on Python-int object arrays otherwise.
        """
        terms = tuple(terms)
        names = _names(terms)
        for name in names:
            if name not in self.maxabs:
                self.resolve(name)
        batch = frozenset(self.batch.intersection(names)) if self.batch else _NO_BATCH
        plan = _plan(terms, tuple([self.arrays[name].shape for name in names]),
                     tuple([self.degree[name] for name in names]), batch)
        bound = plan.bound([self.maxabs[name] for name in names], self.den)
        dtype = np.int64 if bound <= INT64_MAX else object
        if self.budget and batch:
            # an entry is 8 bytes in int64, a pointer plus an int object otherwise
            member = plan.peak * (8 if dtype is np.int64 else 8 + sys.getsizeof(bound))
            size = len(self.arrays[next(iter(batch))])
            if size > 1 and size * member > self.budget:
                raise _OverBudget(max(1, self.budget // member))
        value = plan.run(self.as_dtype(names, dtype), self.den)
        return np.asarray(value, dtype=dtype), plan.top


def contract(specs: dict, tables: dict) -> dict:
    """Exact values of signed sums of einsum terms over rational tables.

    ``specs`` maps each key to a term list of ``(integer coefficient, einsum
    subscripts, operand names)``; ``tables`` maps names to ``Exact`` arrays
    (or nested sequences of rationals, which ``exact`` flattens).  Names
    missing from ``tables`` are derived through ``labels.OPERANDS``.  The
    tables are brought once to one common denominator (``_lift``), and each
    derived name is computed once for all specs;
    each operand's largest entry and int64 copy are likewise taken once.
    Each term list runs through its cached plan (see ``_Plan``), in the dtype
    ``_Lifted.sum`` certifies.  Returns key -> ``(numerators, denominator)``:
    the value is ``numerators / denominator``, entry by entry.
    """
    lifted = _Lifted(*_lift(tables))
    out = {}
    for key, terms in specs.items():
        num, top = lifted.sum(terms)
        out[key] = (num, lifted.den**top)
    return out


def sum_batched(specs: dict, arrays: dict, batch=()) -> dict:
    """Each term list in ``specs`` summed on integer arrays, key by key.

    The operands named in ``batch`` carry a leading batch axis ``N``, which
    the results carry too.  Names missing from ``arrays`` are derived once
    for all specs through ``labels.OPERANDS``, batched when one of their
    inputs is.  Every sum runs in the dtype ``_Lifted.sum`` certifies,
    whatever the dtype of the arrays passed in.
    """
    lifted = _Lifted(dict(arrays), 1, batch)
    return {key: lifted.sum(terms)[0] for key, terms in specs.items()}


# Bytes of the largest array one chunk of ``zero_members`` may form.
BATCH_BYTES = 4 * 2**20


class _OverBudget(Exception):
    """A batched sum would pass its budget; its argument is how many
    members would stay within it."""


def zero_members(specs: dict, size: int, members, fixed=None, where=()):
    """Which members of a batch have an all-zero residual under every term
    list in ``specs``, one chunk at a time.

    ``members(lo, hi)`` builds the operands of members lo..hi-1 that carry a
    leading batch axis; ``fixed`` holds those that do not.  Yields, in order,
    each chunk's batched operands and the mask of its members whose every
    residual is zero, on the index ``where`` (taken after the batch axis)
    when one is given.  The first chunk's length is guessed from one
    member's operands; a chunk on which a sum would form an array of more
    than ``BATCH_BYTES`` (at the bytes per entry of the dtype certified for
    that chunk, see ``_Lifted.sum``) is rebuilt shorter before that sum
    runs, and the chunks after it keep the shorter length.
    """
    lo, length, index = 0, 0, (slice(None), *where)
    while lo < size:
        if not length:
            length = max(1, BATCH_BYTES // sum(a.nbytes for a in members(lo, lo + 1).values()))
        hi = min(size, lo + length)
        arrays = members(lo, hi)
        lifted = _Lifted({**(fixed or {}), **arrays}, 1, arrays, BATCH_BYTES)
        try:  # each residual is reduced, and freed, before the next sum runs
            nonzero = [(lifted.sum(terms)[0][index] != 0).reshape(hi - lo, -1).any(axis=1)
                       for terms in specs.values()]
        except _OverBudget as over:
            (length,) = over.args
            continue
        del lifted  # nothing of this chunk but its operands outlives the yield
        yield arrays, ~np.any(nonzero, axis=0)
        lo = hi


def zero_mask(specs: dict, size: int, members, fixed=None, where=()) -> np.ndarray:
    """The mask of ``zero_members`` over the whole batch."""
    masks = [ok for _, ok in zero_members(specs, size, members, fixed, where)]
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


def evaluate(specs: dict, tables: dict) -> dict:
    """``contract`` as ``Exact`` arrays, key by key."""
    return {key: Exact(num, den) for key, (num, den) in contract(specs, tables).items()}


def _contract1(subs: str, **tables):
    """One-term contraction of keyword tables, as nested Fractions."""
    return evaluate({subs: [(1, subs, tuple(tables))]}, tables)[subs].nested


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

def vec_zero(n: int) -> Vector:
    return (ZERO,) * n


def mat_zero(rows: int, cols: int) -> Matrix:
    return tuple(vec_zero(cols) for _ in range(rows))


def mat_shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_vec(m: Matrix, v: Vector) -> Vector:
    if m and len(m[0]) != len(v):
        raise InputError(f"matrix/vector shape mismatch: {mat_shape(m)} vs {len(v)}")
    return _contract1("ij,j->i", m=m, v=v)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a)[1] != mat_shape(b)[0]:
        raise InputError(f"matrix shape mismatch: {mat_shape(a)[1]} vs {mat_shape(b)[0]}")
    return _contract1("ik,kj->ij", a=a, b=b)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def eliminate(m) -> tuple[Scalar, Exact | None]:
    """Determinant and inverse of a square matrix (``Exact`` or nested).  The
    inverse is an ``Exact`` array, None when the matrix is singular.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [M | I] on the integer
    lift M = s m: after the step on column k every row holds (k+1)-minors of
    the augmented matrix, so each division by the previous pivot is exact, and
    the last pivot d is det M up to the sign of the row swaps, with d I on the
    left and d M^{-1} on the right.
    """
    m = exact(m)
    n, den = len(m.num), m.den
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.num.tolist())]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return ZERO, None
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


def _square(m, message: str) -> Exact:
    """``m`` as an ``Exact`` array, refused with ``message`` unless square."""
    m = exact(m)
    if m.num.size and (m.num.ndim != 2 or m.shape[0] != m.shape[1]):
        raise InputError(message)
    return m


def exact_det(m: Matrix) -> Scalar:
    """The determinant, by ``eliminate``."""
    return eliminate(_square(m, "determinant of a non-square matrix"))[0]


def mat_inverse(a: Matrix) -> Matrix:
    """The inverse, by ``eliminate``; raises InputError if singular."""
    inverse = eliminate(_square(a, "solve_linear needs a square system"))[1]
    if inverse is None:
        raise InputError("singular system")
    return inverse.nested


def solve_linear(a: Matrix, b: Vector) -> Vector:
    """Solve the square system a x = b exactly; raises InputError if singular."""
    if len(b) != len(a):
        raise InputError("solve_linear needs a square system")
    return mat_vec(mat_inverse(a), b)


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
        n = self.dim
        if n <= 0:
            raise InputError("dimension must be positive")
        if self.table.shape != (n, n, n):
            raise InputError(f"structure constants must have shape {n}x{n}x{n}")

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

    def add(self, other: "StructureConstants") -> "StructureConstants":
        if self.dim != other.dim:
            raise InputError("dimension mismatch")
        terms = labels.OPERANDS["o"]
        return StructureConstants(self.dim, evaluate({"o": terms}, {"<": self.table, ">": other.table})["o"])

    def is_zero(self) -> bool:
        return not self.table.num.any()


# Where each table of ``direct_sum_table`` goes, by the summand (A or M) of
# each of its three slots, and the axes it is read with: a family X holds one
# matrix per basis element, X[a][z][x] being the coefficient of the z-th basis
# vector in X(a) applied to the x-th.
_BLOCKS = {
    "o": ("AAA", (0, 1, 2)),
    ".": ("MMM", (0, 1, 2)),
    "lA": ("AMM", (0, 2, 1)),
    "rA": ("MAM", (2, 0, 1)),
    "lB": ("MAA", (0, 2, 1)),
    "rB": ("AMA", (2, 0, 1)),
}


def direct_sum_table(n: int, m: int, tables: dict) -> StructureConstants:
    """The product table on A (+) M, on the basis (e_1..e_n, v_1..v_m), of

        (a+u)(b+v) = (a o b + lB(u)b + rB(v)a) + (u . v + lA(a)v + rA(b)u),

    with no validity requirement.  ``tables`` holds any of: the A product
    "o", the M product ".", the families lA, rA of A acting on M (n matrices
    of size m x m) and lB, rB of M acting on A (m matrices of size n x n); a
    missing one is zero.  The tables are brought to one common denominator
    and each is placed as one block of a zero table.
    """
    lifted, den = _lift(tables)
    span = {"A": slice(0, n), "M": slice(n, n + m)}
    c = np.zeros((n + m,) * 3, dtype=np.result_type(np.int64, *lifted.values()))
    for name, array in lifted.items():
        summands, axes = _BLOCKS[name]
        c[tuple(span[s] for s in summands)] = array.transpose(axes)
    return StructureConstants(n + m, Exact(c, den))


def apply_op(op: StructureConstants, a: Vector, b: Vector) -> Vector:
    """Evaluate the bilinear product on coordinate vectors."""
    if len(a) != op.dim or len(b) != op.dim:
        raise InputError(f"apply_op: expected vectors of length {op.dim}")
    return _contract1("i,j,ijk->k", a=a, b=b, c=op.table)


def mult_matrix(op: StructureConstants, a: Vector, side: str) -> Matrix:
    """Matrix of left (b -> a*b) or right (b -> b*a) multiplication by a."""
    if len(a) != op.dim:
        raise InputError(f"mult_matrix: expected vector of length {op.dim}")
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    return _contract1("i,ijk->kj" if side == "left" else "i,jik->kj", a=a, c=op.table)


# ---------------------------------------------------------------------------
# rank-2 and rank-3 tensors
# ---------------------------------------------------------------------------

def t2_zero(n: int, m: int | None = None) -> Tensor2:
    return mat_zero(n, m if m is not None else n)


def flip(t: Tensor2) -> Tensor2:
    """The swap a(x)b -> b(x)a; requires a square tensor."""
    n = len(t)
    if any(len(row) != n for row in t):
        raise InputError("flip needs a square rank-2 tensor")
    return tuple(tuple(t[j][i] for j in range(n)) for i in range(n))


def t3_is_zero(a: Tensor3) -> bool:
    return all(x == 0 for plane in a for row in plane for x in row)


def permute3(t: Tensor3, perm: Sequence[int]) -> Tensor3:
    """Push tensor slots around: slot k of the input becomes slot perm[k-1].

    ``perm`` is a permutation of (1, 2, 3).  The group action law holds:
    ``permute3(permute3(t, s), r) == permute3(t, r s)``, with (r s)(k) =
    r(s(k)).
    """
    if sorted(perm) != [1, 2, 3]:
        raise InputError(f"not a permutation of (1,2,3): {perm!r}")
    # out[j1][j2][j3] = t[j_{perm(1)}][j_{perm(2)}][j_{perm(3)}]
    return _contract1("".join("abc"[k - 1] for k in perm) + "->abc", t=t)


_VALID_SLOT_PAIRS = {(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if p != q}


def placed_product(
    r: Tensor2,
    r2: Tensor2,
    op: StructureConstants,
    slots: tuple[tuple[int, int], tuple[int, int]],
) -> Tensor3:
    """Generic placed product r_pq * r'_st in the triple tensor power.

    The first factor's components go to slots (p, q), the second factor's to
    slots (s, t); the one shared slot receives the product of the two
    components mapped there, first argument taken from ``r``.  The slot
    patterns must jointly cover {1, 2, 3} with exactly one overlap.
    """
    (p, q), (s, t) = slots
    if (p, q) not in _VALID_SLOT_PAIRS or (s, t) not in _VALID_SLOT_PAIRS:
        raise InputError(f"invalid slot pattern {slots!r}")
    shared = {p, q} & {s, t}
    if len(shared) != 1 or {p, q} | {s, t} != {1, 2, 3}:
        raise InputError(f"slot pattern must cover 1..3 with one shared slot: {slots!r}")
    n = op.dim
    if len(r) != n or len(r2) != n or any(len(row) != n for row in r + r2):
        raise InputError("placed_product: dimension mismatch")
    (k,) = shared
    first = "".join("u" if x == k else "abc"[x - 1] for x in (p, q))
    second = "".join("v" if x == k else "abc"[x - 1] for x in (s, t))
    return _contract1(f"{first},{second},uv{'abc'[k - 1]}->abc", r=r, r2=r2, c=op.table)


def dual_map(m: Matrix, mode: str) -> Matrix:
    """Dual of a linear map on coordinate duals.

    ``pairing`` mode is the plain transpose, <M*(f), v> = <f, M v>;
    ``rep`` mode is the negated transpose, <M*(f), v> = -<f, M v>.
    """
    if mode == "pairing":
        return mat_transpose(m)
    if mode == "rep":
        return tuple(tuple(-x for x in row) for row in mat_transpose(m))
    raise InputError(f"dual_map mode must be 'pairing' or 'rep', got {mode!r}")
