import random
from fractions import Fraction

import pytest

from prenovikov import sum_table
from prenovikov.core import (
    InputError,
    StructureConstants,
    apply_op,
    exact_det,
    frac,
    mat_inverse,
    mult_matrix,
    placed_product,
    t3_is_zero,
)

from tensor_reference import basis_vec, mat_identity, mat_mul, t2_add, t2_scale, t3_add

F = Fraction


def test_scalar_exactness():
    assert frac("2/4") == F(1, 2)
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert (F(1, 3) * F(3, 7)).denominator == 7
    # equal values from different constructions compare equal exactly
    assert F(10, 20) == frac("1/2") == F(1) / 2
    with pytest.raises(InputError):
        frac(0.5)
    with pytest.raises(InputError):
        frac(True)


@pytest.mark.parametrize("text", ["1/0", "x", "1/", ""])
def test_frac_refuses_malformed_strings(text):
    """A string that is not an exact rational is bad input, like a float or
    a bool, not a ZeroDivisionError or a bare ValueError."""
    with pytest.raises(InputError, match="not an exact scalar"):
        frac(text)


def test_apply_op_examples(alg2):
    e1, e2 = basis_vec(2, 0), basis_vec(2, 1)
    assert apply_op(alg2.lhd, e1, e2) == e2
    zero = StructureConstants.zero(2)
    assert apply_op(zero, e1, e1) == (F(0), F(0))
    circ = sum_table(alg2.lhd, alg2.rhd)
    assert apply_op(circ, e2, e2) == (F(0), F(0))
    with pytest.raises(InputError):
        apply_op(alg2.lhd, (F(1),), e2)


def test_mult_matrix_examples(alg2):
    e1, e2 = basis_vec(2, 0), basis_vec(2, 1)
    circ = sum_table(alg2.lhd, alg2.rhd)
    assert mult_matrix(circ, e1, "left") == mat_identity(2)
    assert mult_matrix(circ, (F(0), F(0)), "left") == ((F(0),) * 2,) * 2
    assert mult_matrix(alg2.lhd, e2, "right") == ((F(0), F(0)), (F(1), F(0)))
    with pytest.raises(InputError):
        mult_matrix(circ, e1, "sideways")


def _op3():
    """A generic 3-dim product with distinct entries, for the golden test."""
    rows = [[[F(9 * i + 3 * j + k + 1) for k in range(3)] for j in range(3)] for i in range(3)]
    return StructureConstants.from_rows(rows)


def _single(n, i, j):
    rows = [[F(0)] * n for _ in range(n)]
    rows[i][j] = F(1)
    return tuple(map(tuple, rows))


def test_placed_product_golden_seventeen():
    """Each displayed placement convention, transcribed independently here.

    r = x (x) y with x = e_0, y = e_1; r' = x' (x) y' with x' = e_1, y' = e_2.
    Each case states where the product lands and which slots get x/y/x'/y'.
    """
    op = _op3()
    n = 3
    r = _single(n, 0, 1)
    r2 = _single(n, 1, 2)
    x, y, xp, yp = 0, 1, 1, 2

    def prod_vec(a, b):
        return op.c[a][b]

    # case -> (slots, lambda k -> index triple with the product coefficient at k)
    cases = {
        ((1, 2), (1, 3)): lambda k: (k, y, yp),    # x*x' (x) y (x) y'
        ((1, 2), (2, 3)): lambda k: (x, k, yp),    # x (x) y*x' (x) y'
        ((1, 3), (1, 2)): lambda k: (k, yp, y),    # x*x' (x) y' (x) y
        ((1, 3), (2, 1)): lambda k: (k, xp, y),    # x*y' (x) x' (x) y
        ((1, 3), (2, 3)): lambda k: (x, xp, k),    # x (x) x' (x) y*y'
        ((2, 1), (1, 3)): lambda k: (k, x, yp),    # y*x' (x) x (x) y'
        ((2, 1), (2, 3)): lambda k: (y, k, yp),    # y (x) x*x' (x) y'
        ((2, 1), (3, 1)): lambda k: (k, x, xp),    # y*y' (x) x (x) x'
        ((2, 1), (3, 2)): lambda k: (y, k, xp),    # y (x) x*y' (x) x'
        ((3, 1), (2, 1)): lambda k: (k, xp, x),    # y*y' (x) x' (x) x
        ((3, 1), (2, 3)): lambda k: (y, xp, k),    # y (x) x' (x) x*y'
        ((3, 1), (3, 2)): lambda k: (y, yp, k),    # y (x) y' (x) x*x'
        ((2, 3), (1, 2)): lambda k: (xp, k, y),    # x' (x) x*y' (x) y
        ((2, 3), (2, 1)): lambda k: (yp, k, y),    # y' (x) x*x' (x) y
        ((2, 3), (1, 3)): lambda k: (xp, x, k),    # x' (x) x (x) y*y'
        ((2, 3), (3, 1)): lambda k: (yp, x, k),    # y' (x) x (x) y*x'
        ((3, 2), (2, 1)): lambda k: (yp, k, x),    # y' (x) y*x' (x) x
    }
    prods = {
        ((1, 2), (1, 3)): (x, xp),
        ((1, 2), (2, 3)): (y, xp),
        ((1, 3), (1, 2)): (x, xp),
        ((1, 3), (2, 1)): (x, yp),
        ((1, 3), (2, 3)): (y, yp),
        ((2, 1), (1, 3)): (y, xp),
        ((2, 1), (2, 3)): (x, xp),
        ((2, 1), (3, 1)): (y, yp),
        ((2, 1), (3, 2)): (x, yp),
        ((3, 1), (2, 1)): (y, yp),
        ((3, 1), (2, 3)): (x, yp),
        ((3, 1), (3, 2)): (x, xp),
        ((2, 3), (1, 2)): (x, yp),
        ((2, 3), (2, 1)): (x, xp),
        ((2, 3), (1, 3)): (y, yp),
        ((2, 3), (3, 1)): (y, xp),
        ((3, 2), (2, 1)): (y, xp),
    }
    assert len(cases) == 17
    for slots, place in cases.items():
        got = placed_product(r, r2, op, slots)
        pa, pb = prods[slots]
        expected = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            i1, i2, i3 = place(k)
            expected[i1][i2][i3] += prod_vec(pa, pb)[k]
        assert got == tuple(tuple(map(tuple, p)) for p in expected), slots


def test_placed_product_bilinearity_and_zero():
    op = _op3()
    rng = random.Random(3)
    n = 3
    zero = tuple((F(0),) * n for _ in range(n))

    def rand_t2():
        return tuple(tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))

    for slots in (((1, 2), (1, 3)), ((2, 3), (1, 3)), ((1, 2), (2, 3))):
        assert t3_is_zero(placed_product(zero, rand_t2(), op, slots))
        assert t3_is_zero(placed_product(rand_t2(), zero, op, slots))
        a, b, c = rand_t2(), rand_t2(), rand_t2()
        lam = F(rng.randint(-3, 3))
        left = placed_product(t2_add(a, t2_scale(lam, b)), c, op, slots)
        right = t3_add(
            placed_product(a, c, op, slots),
            _t3_scale(lam, placed_product(b, c, op, slots)),
        )
        assert left == right
        left = placed_product(a, t2_add(b, t2_scale(lam, c)), op, slots)
        right = t3_add(
            placed_product(a, b, op, slots),
            _t3_scale(lam, placed_product(a, c, op, slots)),
        )
        assert left == right


def _t3_scale(c, t):
    return tuple(tuple(tuple(c * v for v in row) for row in plane) for plane in t)


def test_placed_product_invalid_patterns():
    op = _op3()
    r = _single(3, 0, 1)
    with pytest.raises(InputError):
        placed_product(r, r, op, ((1, 2), (1, 2)))  # no slot 3
    with pytest.raises(InputError):
        placed_product(r, r, op, ((1, 1), (2, 3)))
    with pytest.raises(InputError):
        placed_product(_single(2, 0, 1), r, op, ((1, 2), (1, 3)))


def _naive_det(m):
    n = len(m)
    if n == 0:
        return F(1)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * m[0][j] * _naive_det(minor)
    return total


def test_exact_det_against_cofactor_oracle():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(8):
            m = tuple(
                tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
                for _ in range(n)
            )
            assert exact_det(m) == _naive_det(m)
    singular = ((F(1), F(2)), (F(2), F(4)))
    assert exact_det(singular) == 0


def test_solve_and_inverse():
    """Systems m x = b solved as x = m^-1 b, and m m^-1 = 1, entry by entry."""
    rng = random.Random(6)
    for n in (1, 2, 3, 4):
        m = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        if exact_det(m) == 0:
            continue
        b = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        inverse = mat_inverse(m)
        x = tuple(sum(inverse[i][j] * b[j] for j in range(n)) for i in range(n))
        assert tuple(sum(m[i][j] * x[j] for j in range(n)) for i in range(n)) == b
        assert mat_mul(m, inverse) == mat_identity(n)
    with pytest.raises(InputError, match="singular system"):
        mat_inverse(((F(1), F(2)), (F(2), F(4))))


def test_t3_is_zero_reads_through_exact():
    """Zero and nonzero tensors, and ragged input refused as ``exact``
    refuses it."""
    assert t3_is_zero((((F(0), 0),), ((0, 0),))) and not t3_is_zero((((0, F(1, 3)),),))
    for ragged in ((((0,),), ((0, 0),)), (((0,), (0, 0)),), (((0,),), (0,))):
        with pytest.raises(InputError, match="rectangular"):
            t3_is_zero(ragged)


def test_structure_constants_validation():
    with pytest.raises(InputError):
        StructureConstants(2, ((),))
    with pytest.raises(InputError):
        StructureConstants(0, ())
