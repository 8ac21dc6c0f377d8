"""Brute-force references for the symmetric solution search.

Both build every candidate over the upper triangle and evaluate its whole
residual r12 o r13 + r23 (.) r13 - r12 < r23, written out here from the
formula: ``search_exact`` entry by entry in Fractions, ``search_int64``
vectorized over all candidates at once in int64.
"""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np

from conftest import derived_table


def upper_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def candidate_tensor(assignment, positions, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in zip(positions, assignment):
        rows[i][j] = v
        rows[j][i] = v
    return tuple(tuple(row) for row in rows)


def search_exact(alg, values):
    """Plain enumeration with entry-by-entry early exit, all in rationals."""
    n = alg.dim
    positions = upper_positions(n)
    circ, odot = derived_table("o", alg), derived_table("(.)", alg)
    lhd = alg.lhd
    out = []
    for assignment in itertools.product(map(Fraction, values), repeat=len(positions)):
        r = candidate_tensor(assignment, positions, n)
        ok = True
        for a, b, c in itertools.product(range(n), repeat=3):
            v = sum(
                (r[p][b] * r[s][c] * circ.c[p][s][a]
                 for p in range(n) if r[p][b]
                 for s in range(n) if r[s][c] and circ.c[p][s][a]),
                Fraction(0),
            )
            v += sum(
                (r[b][q] * r[a][u] * odot.c[q][u][c]
                 for q in range(n) if r[b][q]
                 for u in range(n) if r[a][u] and odot.c[q][u][c]),
                Fraction(0),
            )
            v -= sum(
                (r[a][q] * r[s][c] * lhd.c[q][s][b]
                 for q in range(n) if r[a][q]
                 for s in range(n) if r[s][c] and lhd.c[q][s][b]),
                Fraction(0),
            )
            if v != 0:
                ok = False
                break
        if ok:
            out.append(r)
    return out


def search_int64(alg, values):
    """Every candidate's full residual in one int64 batch, denominators cleared."""
    n = alg.dim
    positions = upper_positions(n)
    values = sorted({Fraction(v) for v in values})
    lhd = np.array(alg.lhd.c, dtype=object)
    rhd = np.array(alg.rhd.c, dtype=object)
    circ = lhd + rhd
    odot = rhd + lhd.transpose(1, 0, 2)
    den = lcm(*(x.denominator for x in [*lhd.flat, *rhd.flat, *values]))
    ints = [np.array([int(x * den) for x in t.flat], dtype=object).reshape(t.shape)
            for t in (circ, odot, lhd)]
    scaled = [int(v * den) for v in values]
    # three terms of n*n products each
    assert 3 * n * n * max(map(abs, scaled)) ** 2 * max(int(abs(t).max()) for t in ints) < 2**63
    o, d, lt = (t.astype(np.int64) for t in ints)
    combos = np.array(list(itertools.product(range(len(values)), repeat=len(positions))))
    sel = np.array(scaled, dtype=np.int64)[combos]
    R = np.zeros((len(combos), n, n), dtype=np.int64)
    for idx, (i, j) in enumerate(positions):
        R[:, i, j] = sel[:, idx]
        R[:, j, i] = sel[:, idx]
    res = (np.einsum("Npb,Nsc,psa->Nabc", R, R, o)
           + np.einsum("Nbq,Nau,quc->Nabc", R, R, d)
           - np.einsum("Naq,Nsc,qsb->Nabc", R, R, lt))
    hits = np.flatnonzero(~res.reshape(len(R), -1).any(axis=1))
    return [candidate_tensor([values[c] for c in combos[h]], positions, n) for h in hits]
