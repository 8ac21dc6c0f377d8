"""Fraction-tuple helpers the tests build expected values and conjugated
inputs with.

Nothing in the package calls them: its tables are exact arrays that the
kernel contracts.  Each is written out entry by entry, so that a value built
here does not go through the kernel it checks.
"""

from fractions import Fraction


def basis_vec(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def mat_identity(n):
    return tuple(basis_vec(n, i) for i in range(n))


def zeros(n, m=None):
    """The n x m matrix of zeros (n x n by default)."""
    return ((Fraction(0),) * (n if m is None else m),) * n


def t2(entries):
    """A rank-2 tensor from rows of ints, strings or Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


t2_add, t2_scale = mat_add, mat_scale


def mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m)


def mat_mul(a, b):
    return tuple(mat_vec(tuple(zip(*b)), row) for row in a)


def t2_sub(a, b):
    return mat_add(a, mat_scale(-1, b))


def t2_apply_left(m, t):
    """(M (x) id) t."""
    return tuple(tuple(sum(m[a][p] * t[p][b] for p in range(len(t))) for b in range(len(t[0])))
                 for a in range(len(m)))


def t2_apply_right(m, t):
    """(id (x) M) t."""
    return tuple(tuple(sum(t[a][q] * m[b][q] for q in range(len(m[0]))) for b in range(len(m)))
                 for a in range(len(t)))


def t3_add(a, b):
    return tuple(mat_add(x, y) for x, y in zip(a, b))


def product(c, a, b):
    """a * b on coordinate vectors, for the structure constants c."""
    n = len(c)
    return tuple(sum((a[i] * b[j] * c[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
                 for k in range(n))


def left_matrix(c, a):
    """The matrix of b -> a * b."""
    n = len(c)
    return tuple(tuple(sum((a[i] * c[i][j][k] for i in range(n)), Fraction(0)) for j in range(n))
                 for k in range(n))


def right_matrix(c, a):
    """The matrix of b -> b * a."""
    n = len(c)
    return tuple(tuple(sum((a[i] * c[j][i][k] for i in range(n)), Fraction(0)) for j in range(n))
                 for k in range(n))


def left_family(c):
    """The matrices of b -> e_a * b, one per basis element e_a."""
    return tuple(left_matrix(c, basis_vec(len(c), a)) for a in range(len(c)))


def right_family(c):
    """The matrices of b -> b * e_a, one per basis element e_a."""
    return tuple(right_matrix(c, basis_vec(len(c), a)) for a in range(len(c)))


def swap_last(t):
    """A rank-3 table with its last two axes swapped: tau composed with a
    co-operation, or each matrix of a family transposed."""
    n, p, q = len(t), len(t[0]), len(t[0][0])
    return tuple(tuple(tuple(t[i][k][j] for k in range(p)) for j in range(q)) for i in range(n))


def dual_family(t):
    """The dual of a family of matrices, M(a)* = -M(a)^T for each a."""
    return tuple(mat_scale(-1, m) for m in swap_last(t))


def family_at(m, p):
    """The matrix M(p) = sum_a p[a] M(e_a) of a family of matrices at the
    coordinate vector p."""
    return tuple(tuple(sum((p[a] * m[a][k][j] for a in range(len(m))), Fraction(0)) for j in range(len(m[0][0])))
                 for k in range(len(m[0])))
