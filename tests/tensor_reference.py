"""Fraction-tuple helpers the tests build expected values and conjugated
inputs with.

Nothing in the package calls them: its tables are exact arrays that the
kernel contracts.  Each is written out entry by entry, so that a value built
here does not go through the kernel it checks.
"""

import itertools
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


def dual_product(co):
    """The product a co-operation induces on the dual space: the
    e_k*-coefficient of e_i* * e_j* is co[k][i][j]."""
    n = len(co)
    return tuple(tuple(tuple(co[k][i][j] for k in range(n)) for j in range(n)) for i in range(n))


def family_at(m, p):
    """The matrix M(p) = sum_a p[a] M(e_a) of a family of matrices at the
    coordinate vector p."""
    return tuple(tuple(sum((p[a] * m[a][k][j] for a in range(len(m))), Fraction(0)) for j in range(len(m[0][0])))
                 for k in range(len(m[0])))


def co_at(co, p):
    """The rank-2 tensor co(p) = sum_i p[i] co(e_i) of a co-operation at the
    coordinate vector p."""
    return tuple(tuple(sum((p[i] * co[i][j][k] for i in range(len(co))), Fraction(0)) for k in range(len(co[0][0])))
                 for j in range(len(co[0])))


def co_left(co, t):
    """(co (x) id) t for a rank-2 tensor t: its first slot split into two."""
    n = len(co[0])
    return tuple(tuple(tuple(sum((t[u][c] * co[u][a][b] for u in range(len(t))), Fraction(0)) for c in range(len(t[0])))
                       for b in range(n)) for a in range(n))


def co_right(co, t):
    """(id (x) co) t for a rank-2 tensor t: its second slot split into two."""
    n = len(co[0])
    return tuple(tuple(tuple(sum((t[a][v] * co[v][b][c] for v in range(len(t[0]))), Fraction(0)) for c in range(n))
                       for b in range(n)) for a in range(len(t)))


def transpose(t):
    """tau(t) for a rank-2 tensor t."""
    return tuple(zip(*t))


def swap_first(t):
    """(tau (x) id) t for a rank-3 tensor t."""
    return tuple(tuple(tuple(t[b][a][c] for c in range(len(t[0][0]))) for b in range(len(t))) for a in range(len(t[0])))


def placed(r, c, first, second):
    """The placed product r_XY * r_ZW in three slots for the slot pairs
    ``first`` = (X, Y) and ``second`` = (Z, W), 1-based, sharing one slot:
    with r = sum_ij r[i][j] e_i (x) e_j, r_XY has e_i in slot X and e_j in
    slot Y; in the shared slot the two basis vectors are multiplied by the
    product c (left factor from r_XY), e_u * e_v = sum_t c[u][v][t] e_t."""
    n = len(r)
    (shared,) = set(first) & set(second)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, m in itertools.product(range(n), repeat=4):
        at = {}
        for (x, y), (u, v) in ((first, (i, j)), (second, (k, m))):
            at.setdefault(x, []).append(u)
            at.setdefault(y, []).append(v)
        u, v = at[shared]
        for t in range(n):
            a, b, d = (t if slot == shared else at[slot][0] for slot in (1, 2, 3))
            out[a][b][d] += r[i][j] * r[k][m] * c[u][v][t]
    return tuple(tuple(map(tuple, plane)) for plane in out)


def t3_apply(m, t, slot):
    """The matrix m applied to slot ``slot`` (0, 1 or 2) of a rank-3 tensor
    t, id on the others."""
    n = len(t)

    def entry(idx):
        at = list(idx)
        total = Fraction(0)
        for p in range(n):
            at[slot] = p
            total += m[idx[slot]][p] * t[at[0]][at[1]][at[2]]
        return total

    return tuple(tuple(tuple(entry((a, b, c)) for c in range(n)) for b in range(n)) for a in range(n))


def outer(u, v):
    """The tensor product u (x) v of two nested tuples of Fractions."""
    if isinstance(u, tuple):
        return tuple(outer(x, v) for x in u)
    return tuple(outer(u, x) for x in v) if isinstance(v, tuple) else u * v
