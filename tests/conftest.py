from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from prenovikov import (
    PreNovikovAlgebra,
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    adjoint_reps,
    lift_o_operator,
)
from prenovikov import core, labels
from prenovikov.core import StructureConstants, evaluate, mat_inverse

from tensor_reference import mat_mul, mat_vec, product, zeros

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def table(rows) -> StructureConstants:
    return StructureConstants.from_rows(rows)


def derived_table(name: str, alg) -> StructureConstants:
    """The derived product ``name`` (``o``, ``(.)``, ``(*)``) of a
    pre-Novikov pair's tables, read through ``labels.OPERANDS``."""
    return StructureConstants(alg.dim, evaluate({name: labels.OPERANDS[name]}, alg.tables)[name])


@pytest.fixture
def kernel_sums(monkeypatch) -> list:
    """Every spec sum the kernel completes from here on, as ``(terms, operand
    shapes, result dtype)``, recorded by wrapping ``core._Program.run``."""
    sums = []
    run = core._Program.run

    def recorded(self, arrays, *args, **kwargs):
        specs = dict(self.specs)
        shapes = {name: a.shape for name, a in arrays.items()}
        for key, num, top in run(self, arrays, *args, **kwargs):
            sums.append((specs[key], shapes, num.dtype))
            yield key, num, top

    monkeypatch.setattr(core._Program, "run", recorded)
    return sums


@pytest.fixture(scope="session")
def alg2() -> PreNovikovAlgebra:
    """The two-dimensional fixture: e1<e1=e1, e1<e2=e2<e1=e2, > = 0."""
    lhd = table([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    return PreNovikovAlgebra(lhd, StructureConstants.zero(2))


@pytest.fixture(scope="session")
def co2(alg2) -> PreNovikovCoalgebra:
    """alpha(e1) = e2 (x) e2, beta(e1) = -e2 (x) e2, zero elsewhere."""
    alpha = (((F(0), F(0)), (F(0), F(1))), zeros(2))
    beta = (((F(0), F(0)), (F(0), F(-1))), zeros(2))
    return PreNovikovCoalgebra(2, alpha, beta)


@pytest.fixture(scope="session")
def bialg2(alg2, co2) -> PreNovikovBialgebra:
    return PreNovikovBialgebra(alg2, co2)


@pytest.fixture(scope="session")
def shift_t():
    """T: e1 -> e2, e2 -> 0 (columns are images)."""
    return ((F(0), F(0)), (F(1), F(0)))


@pytest.fixture(scope="session")
def lifted4(alg2, shift_t):
    """The four-dimensional semidirect algebra and its symmetric solution."""
    _, pre_rep = adjoint_reps(alg2)
    return lift_o_operator(alg2, pre_rep, shift_t)


@pytest.fixture(scope="session")
def alg4(lifted4) -> PreNovikovAlgebra:
    return lifted4[0]


@pytest.fixture(scope="session")
def sol4(lifted4):
    return lifted4[1]


def rand_fraction(rng: random.Random, lo: int = -2, hi: int = 2) -> Fraction:
    return F(rng.randint(lo, hi))


def rand_symmetric(rng: random.Random, n: int, lo: int = -2, hi: int = 2):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_fraction(rng, lo, hi)
            rows[i][j] = v
            rows[j][i] = v
    return tuple(tuple(row) for row in rows)


def rand_invertible(rng: random.Random, n: int):
    """A random invertible rational matrix (unit lower times unit upper)."""
    low = [[F(1) if i == j else (rand_fraction(rng) if i > j else F(0)) for j in range(n)]
           for i in range(n)]
    up = [[F(1) if i == j else (rand_fraction(rng) if i < j else F(0)) for j in range(n)]
          for i in range(n)]
    return mat_mul(tuple(map(tuple, low)), tuple(map(tuple, up)))


def conjugate_table(op: StructureConstants, p) -> StructureConstants:
    """Structure constants in the new basis f_j = sum_i p[i][j] e_i."""
    n = op.dim
    pinv = mat_inverse(p)
    cols = [tuple(p[i][j] for i in range(n)) for j in range(n)]
    rows = []
    for a in range(n):
        plane = []
        for b in range(n):
            plane.append(mat_vec(pinv, product(op.c, cols[a], cols[b])))
        rows.append(tuple(plane))
    return StructureConstants(n, tuple(rows))
