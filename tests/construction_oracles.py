"""Loop references for the constructions the library builds from blocks and
kernel calls, and for its exact elimination.

``direct_sum_product``, ``semidirect_table``, ``coalgebra_to_dual_algebra``
and ``blocks_match`` fill or compare tables index by index;
``solve_linear`` and ``mat_inverse`` run Gauss-Jordan elimination in
Fractions, and ``fraction_det`` multiplies the pivots of Gaussian elimination.
"""

from fractions import Fraction

from prenovikov.core import InputError, StructureConstants

from tensor_reference import basis_vec

ZERO = Fraction(0)


def direct_sum_product(mp) -> StructureConstants:
    """The product table on A (+) B, with no validity requirement.

    (a+x)(b+y) = (a o b + lB(x)b + rB(y)a) + (x . y + lA(a)y + rA(b)x).
    """
    n, m = mp.a_op.dim, mp.b_op.dim
    N = n + m
    c = [[[ZERO] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] += mp.a_op.c[i][j][k]
    for x in range(m):
        for y in range(m):
            for z in range(m):
                c[n + x][n + y][n + z] += mp.b_op.c[x][y][z]
    for i in range(n):
        for x in range(m):
            for k in range(n):
                c[n + x][i][k] += mp.l_b[x][k][i]  # lB(x)b
                c[i][n + x][k] += mp.r_b[x][k][i]  # rB(y)a
            for z in range(m):
                c[i][n + x][n + z] += mp.l_a[i][z][x]  # lA(a)y
                c[n + x][i][n + z] += mp.r_a[i][z][x]  # rA(b)x
    return StructureConstants(N, tuple(tuple(tuple(row) for row in plane) for plane in c))


def semidirect_table(n: int, m: int, table: StructureConstants, lmaps, rmaps) -> StructureConstants:
    """One product of the semidirect product on algebra (+) module:
    (a+u)(b+v) = ab + l(a)v + r(b)u."""
    N = n + m
    c = [[[0] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = table.c[i][j][k]
        for q in range(m):
            for t in range(m):
                c[i][n + q][n + t] = lmaps[i][t][q]
    for p in range(m):
        for j in range(n):
            for t in range(m):
                c[n + p][j][n + t] = rmaps[j][t][p]
    return StructureConstants.from_rows(c)


def coalgebra_to_dual_algebra(co) -> tuple[StructureConstants, StructureConstants]:
    """The dual-space products: < from alpha, > from beta (pure reshape)."""
    n = co.dim
    lhd = StructureConstants(
        n,
        tuple(tuple(tuple(co.alpha[i][p][q] for i in range(n)) for q in range(n)) for p in range(n)),
    )
    rhd = StructureConstants(
        n,
        tuple(tuple(tuple(co.beta[i][p][q] for i in range(n)) for q in range(n)) for p in range(n)),
    )
    return lhd, rhd


def blocks_match(bialg, induced) -> bool:
    """Do both blocks of the induced pre-Novikov structure close and match?"""
    n = bialg.algebra.dim
    lhd_star, rhd_star = coalgebra_to_dual_algebra(bialg.coalgebra)

    def block_matches(table, block_lo, expect):
        for i in range(n):
            for j in range(n):
                row = table.c[block_lo + i][block_lo + j]
                for k in range(2 * n):
                    inside = block_lo <= k < block_lo + n
                    want = expect.c[i][j][k - block_lo] if inside else 0
                    if row[k] != want:
                        return False
        return True

    return (
        block_matches(induced.lhd, 0, bialg.algebra.lhd)
        and block_matches(induced.rhd, 0, bialg.algebra.rhd)
        and block_matches(induced.lhd, n, lhd_star)
        and block_matches(induced.rhd, n, rhd_star)
    )


def solve_linear(a, b):
    """Solve the square system a x = b exactly; raises InputError if singular."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise InputError("solve_linear needs a square system")
    rows = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise InputError("singular system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


def mat_inverse(a):
    n = len(a)
    cols = [solve_linear(a, basis_vec(n, j)) for j in range(n)]
    return tuple(zip(*cols))


def fraction_det(a) -> Fraction:
    """The signed product of the pivots of Gaussian elimination in Fractions."""
    rows = [list(map(Fraction, row)) for row in a]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det
