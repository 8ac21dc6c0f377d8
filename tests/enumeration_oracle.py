"""Brute-force reference for the dim-2 pre-Novikov enumeration.

``enumerate_pairs`` is the full-pair sweep: after the pure-< identity 2.11
filters the < tables, it evaluates 2.10 on every (<, >) pair, then 2.8 and 2.9
on the pairs that pass, and re-verifies every survivor through the exact
checker.  It returns the algebras in lexicographic order of (<, >).
"""

import numpy as np

from prenovikov import labels
from prenovikov.algebras import PreNovikovAlgebra, _int_tables, check_pre_novikov
from prenovikov.core import InternalCheckError, StructureConstants, sum_batched

ENUM_CHUNK = 200_000  # (<, >) pairs per stage-2 block


def _batch_zero(code: str, ops: dict) -> np.ndarray:
    """Which members of a batch have an all-zero residual of identity ``code``."""
    res = sum_batched({code: labels.SPECS[code][1]}, ops, batch=ops)[code]
    return ~(res.reshape(len(res), -1) != 0).any(axis=1)


def enumerate_pairs(vals: tuple[int, ...]) -> tuple[PreNovikovAlgebra, ...]:
    tables = _int_tables(vals)  # (m, 2, 2, 2)

    # Stage 1: (a<b)<c = (a<c)<b, pure in <.
    lhd_ok = tables[_batch_zero("2.11", {"<": tables})]

    # Stage 2: remaining identities over all (lhd, rhd) pairs, chunked, with
    # the cheapest identity filtering candidates before the costlier ones.
    m = len(tables)
    survivors = []
    per_block = max(1, ENUM_CHUNK // m)
    for lstart in range(0, len(lhd_ok), per_block):
        lblock = lhd_ok[lstart : lstart + per_block]
        L = np.repeat(lblock, m, axis=0)  # (len(lblock)*m, 2,2,2)
        R = np.tile(tables, (len(lblock), 1, 1, 1))
        O = L + R
        keep = np.flatnonzero(_batch_zero("2.10", {"<": L, ">": R, "o": O}))
        if not len(keep):
            continue
        ops = {"<": L[keep], ">": R[keep], "o": O[keep]}
        ok = _batch_zero("2.8", ops) & _batch_zero("2.9", ops)
        for idx in keep[np.nonzero(ok)[0]]:
            survivors.append((lblock[idx // m], tables[idx % m]))

    out = []
    for lt, rt in survivors:
        alg = PreNovikovAlgebra(
            StructureConstants.from_rows([[list(map(int, row)) for row in plane] for plane in lt]),
            StructureConstants.from_rows([[list(map(int, row)) for row in plane] for plane in rt]),
        )
        if not check_pre_novikov(alg.lhd, alg.rhd).passed:
            raise InternalCheckError("fast enumeration accepted a pair the checker rejects")
        out.append(alg)
    return tuple(out)
