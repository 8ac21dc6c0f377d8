"""``io.dumps`` against the former encoder of ``bundle_reference``: every
fixture bundle, random ``Exact`` arrays at 1-4 axes (entries on Python ints
near 2**70 too), hostile basis labels and ``Fraction`` leaves, each written
byte for byte as ``json.dumps`` writes the reference document."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from prenovikov.core import Exact, fraction_texts, rationals
from prenovikov.io import bundle_doc, dumps, parse_bundle

from bundle_reference import encode
from conftest import FIXTURES
from test_report_writers import HOSTILE


def _same(doc) -> None:
    assert dumps(doc) == json.dumps(encode(doc), sort_keys=True, indent=2)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_fixture_bundles(path):
    _same(bundle_doc(parse_bundle(path.read_text())))


def _values(rng: random.Random, count: int, density: float, den: int, huge: bool) -> list:
    values = []
    for _ in range(count):
        v = Fraction(rng.randint(-7, 7), rng.choice((1, den)))
        v += 2**70 * rng.choice((1, -1)) if huge else 0
        values.append(v if rng.random() < density else Fraction(0))
    return values


@pytest.mark.parametrize("huge", [False, True])
@pytest.mark.parametrize("axes", [1, 2, 3, 4])
def test_random_exact_arrays(axes, huge):
    rng = random.Random(f"{axes} {huge}")
    for density, den, _ in itertools.product((0, 0.15, 0.6, 1), (1, 2, 6), range(3)):
        arrays = []
        for _ in range(3):
            shape = tuple(rng.randint(1, 4) for _ in range(axes))
            arrays.append(rationals(_values(rng, math.prod(shape), density, den, huge), shape))
        assert all(a.num.dtype == (object if huge else np.int64) for a in arrays if a.num.any())
        basis = tuple("".join(rng.choice(HOSTILE) for _ in range(rng.randint(0, 4))) + str(i) for i in range(3))
        _same({"kind": "x", "a": arrays[0], "maps": {"l": arrays[1], "r": arrays[2]}, "basis": basis,
               "list": [arrays[2], (arrays[0],), []], "dim": axes, "flag": huge, "none": None})
        _same(arrays[0])


def test_labels_and_keys():
    for k in range(1, 4):
        labels = tuple(a + b + c for a in HOSTILE for b in HOSTILE[:k] for c in "x")
        _same({"basis": labels, "module_basis": labels[::-1], **{label: [label, {}] for label in labels}})


def test_fraction_leaves():
    """Nested tuples of ``Fraction``, as public functions return them
    (``search`` solutions and the ``oper --lift`` tensor)."""
    rng = random.Random(7)
    for n in (1, 2, 4):
        r = tuple(tuple(_values(rng, n, 0.6, 6, n == 4)) for _ in range(n))
        _same({"kind": "search_results", "count": 2,
               "solutions": [{"kind": "tensor2", "dim": n, "entries": r}, {"entries": r[0]}]})


def test_edge_shapes():
    for shape in ((0,), (2, 0), (2, 0, 3), (1, 1, 1, 1), ()):
        _same({"a": Exact(np.full(shape, 3), 2)})
    _same({"empty": {}, "list": [], "tuple": (), "nested": [[], {}, [()]]})


def test_fraction_texts_are_fraction_strings():
    rng = random.Random(1)
    for den in (1, 2, 6, 7**30):
        ints = [rng.randint(-50, 50) for _ in range(100)] + [2**70 + 3, -(2**70) * 6, 0]
        assert fraction_texts(ints, den) == {x: str(Fraction(x, den)) for x in ints}
