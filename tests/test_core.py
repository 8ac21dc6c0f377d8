import random
from fractions import Fraction

import pytest

from prenovikov.core import InputError, StructureConstants, exact_det, frac, mat_inverse, t3_is_zero

from tensor_reference import mat_identity, mat_mul

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
