"""Build algebras from structure constants and read verification reports.

Run:  python demos/01_axioms_and_reports.py
"""

from prenovikov import (
    PreNovikovAlgebra,
    associated_novikov,
    check_novikov,
    check_pre_novikov,
    labels,
)
from prenovikov.core import StructureConstants, evaluate
from prenovikov.io import render_report

# A two-dimensional pair of products given by structure constants:
#   e1 < e1 = e1,  e1 < e2 = e2,  e2 < e1 = e2,  e2 < e2 = 0,  > = 0.
lhd = StructureConstants.from_rows([
    [[1, 0], [0, 1]],
    [[0, 1], [0, 0]],
])
alg = PreNovikovAlgebra(lhd, StructureConstants.zero(2))

# The checker evaluates all four defining identities on every basis triple
# in exact rational arithmetic and reports each violation with its witness.
print(render_report(check_pre_novikov(alg.lhd, alg.rhd)))

# The sum product o = < + > is then a Novikov product, and the derived
# products a(.)b = a>b + b<a and a(*)b = a o b + b o a come along for free:
# each is an operand the kernel derives from the two tables by its formula.
nov = associated_novikov(alg)
print(render_report(check_novikov(nov.op)))
derived = evaluate({name: labels.OPERANDS[name] for name in ("(.)", "(*)")}, alg.tables)
odot, star = (StructureConstants(2, derived[name]) for name in ("(.)", "(*)"))
print("e1 (.) e1 =", odot.c[0][0])
print("(*) table is symmetric:", all(
    star.c[i][j] == star.c[j][i] for i in range(2) for j in range(2)))

# Break one entry and watch the report name the identity and the witness.
bad_rhd = StructureConstants.from_rows([
    [[1, 0], [0, 0]],
    [[0, 0], [0, 0]],
])
print(render_report(check_pre_novikov(alg.lhd, bad_rhd)))
