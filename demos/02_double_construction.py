"""From a bialgebra to its quasi-Frobenius double and back.

Run:  python demos/02_double_construction.py
"""

from fractions import Fraction

from prenovikov import (
    PreNovikovAlgebra,
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    check_quasi_frobenius,
    double_from_bialgebra,
    pre_novikov_from_qf,
)
from prenovikov import labels as operands
from prenovikov.core import StructureConstants, evaluate
from prenovikov.io import render_report

F = Fraction

lhd = StructureConstants.from_rows([
    [[1, 0], [0, 1]],
    [[0, 1], [0, 0]],
])
alg = PreNovikovAlgebra(lhd, StructureConstants.zero(2))

# Co-operations alpha(e1) = e2 (x) e2, beta(e1) = -e2 (x) e2 make this a
# bialgebra; the double construction glues the algebra to its dual.
zero = ((F(0), F(0)), (F(0), F(0)))
alpha = (((F(0), F(0)), (F(0), F(1))), zero)
beta = (((F(0), F(0)), (F(0), F(-1))), zero)
bialg = PreNovikovBialgebra(alg, PreNovikovCoalgebra(2, alpha, beta))

double = double_from_bialgebra(bialg)
labels = double.labels
print("basis:", labels)
print("nonzero products of the double:")
for i in range(4):
    for j in range(4):
        row = double.algebra.op.c[i][j]
        if any(row):
            terms = " + ".join(
                f"{v if v != 1 else ''}{labels[k]}" for k, v in enumerate(row) if v
            )
            print(f"  {labels[i]} . {labels[j]} = {terms}")

print("\nnonzero values of the pairing form:")
for i in range(4):
    for j in range(4):
        if double.form.w[i][j]:
            print(f"  w({labels[i]}, {labels[j]}) = {double.form.w[i][j]}")

print()
print(render_report(check_quasi_frobenius(double.algebra.op, double.form, basis=labels)))

# A skew nondegenerate form satisfying the cocycle identity splits the
# product into two compatible halves; on the double, the split restricts
# block-exactly to the input products.
split = pre_novikov_from_qf(double.algebra.op, double.form)
print("split sums back to the double:",
      evaluate({"o": operands.OPERANDS["o"]}, split.tables)["o"] == double.algebra.op.table)
print("first block of < equals the input <:",
      all(split.lhd.c[i][j][:2] == alg.lhd.c[i][j] for i in range(2) for j in range(2)))
