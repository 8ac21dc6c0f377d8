"""The operands named by their formula: ``labels.formula`` against loop
definitions of left and right multiplication, ``tau.`` and the dual, for
every operand of ``labels.OPERANDS`` it defines and every dual-map spec."""

import random
from fractions import Fraction

import pytest

from prenovikov import labels, representations, yang_baxter

from kernel_reference import reference, table_of
from tensor_reference import dual_family as star
from tensor_reference import left_family as L
from tensor_reference import right_family as R
from tensor_reference import swap_last as tau

# the tables an operand name reads: the products, the representation maps
# and the co-operations
NAMES = ("o", "<", ">", "(.)", "(*)", "l", "r", "l>", "r>", "l<", "r<", "lA", "rA", "lB", "rB", "al", "be")


def _operands(t):
    """Each operand ``formula`` defines in ``labels.OPERANDS``, as (coef,
    table) pairs of the loop definitions on the tables ``t``."""
    return {
        "Lo": [(1, L(t["o"]))],
        "Ro": [(1, R(t["o"]))],
        "L>": [(1, L(t[">"]))],
        "R>": [(1, R(t[">"]))],
        "L<": [(1, L(t["<"]))],
        "R<": [(1, R(t["<"]))],
        "L(.)": [(1, L(t["(.)"]))],
        "L(*)": [(1, L(t["(*)"]))],
        "L>+R<": [(1, L(t[">"])), (1, R(t["<"]))],
        "L>+2R<": [(1, L(t[">"])), (2, R(t["<"]))],
        "2L>+R<": [(2, L(t[">"])), (1, R(t["<"]))],
        "R>+L<": [(1, R(t[">"])), (1, L(t["<"]))],
        "Lo+Ro": [(1, L(t["o"])), (1, R(t["o"]))],
        "2Lo+Ro": [(2, L(t["o"])), (1, R(t["o"]))],
        "l>+l<": [(1, t["l>"]), (1, t["l<"])],
        "r>+r<": [(1, t["r>"]), (1, t["r<"])],
        "lA-rA": [(1, t["lA"]), (-1, t["rA"])],
        "lB-rB": [(1, t["lB"]), (-1, t["rB"])],
        "tau.al": [(1, tau(t["al"]))],
        "al+be": [(1, t["al"]), (1, t["be"])],
        "tau.al+be": [(1, tau(t["al"])), (1, t["be"])],
        "2tau.al+be": [(2, tau(t["al"])), (1, t["be"])],
        "al+tau.be": [(1, t["al"]), (1, tau(t["be"]))],
        "tau.al+tau.be": [(1, tau(t["al"])), (1, tau(t["be"]))],
        "al+be-tau.al-tau.be": [(1, t["al"]), (1, t["be"]), (-1, tau(t["al"])), (-1, tau(t["be"]))],
    }


def _dual_specs(t):
    """The four dual-map specs, each map as (coef, table) pairs of the loop
    definitions on the tables ``t``."""
    dual_adjoint = {"l": [(1, star(L(t[">"]))), (1, star(R(t["<"])))], "r": [(-1, star(R(t["<"])))]}
    dual_quadruple = {
        "l>": [(1, star(L(t[">"]))), (1, star(L(t["<"]))), (1, star(R(t[">"]))), (1, star(R(t["<"])))],
        "r>": [(1, star(R(t[">"])))],
        "l<": [(-1, star(R(t[">"]))), (-1, star(L(t["<"])))],
        "r<": [(-1, star(R(t[">"]))), (-1, star(R(t["<"])))],
    }
    return [
        (representations._DUAL_NOVIKOV_MAPS, {"l": [(1, star(t["l"])), (1, star(t["r"]))], "r": [(-1, star(t["r"]))]}),
        (representations._DUAL_PRE_NOVIKOV_MAPS, {
            "l>": [(1, star(t["l>"])), (1, star(t["l<"])), (1, star(t["r>"])), (1, star(t["r<"]))],
            "r>": [(1, star(t["r>"]))],
            "l<": [(-1, star(t["r>"])), (-1, star(t["l<"]))],
            "r<": [(-1, star(t["r>"])), (-1, star(t["r<"]))],
        }),
        (representations._DUAL_ADJOINT_MAPS, dual_adjoint),
        (yang_baxter._DUAL_QUADRUPLE, dual_quadruple),
    ]


def _entries(parts):
    """sum of coef * table over (coef, table) pairs, as index -> value."""
    n = len(parts[0][1])
    return {(a, j, k): sum(coef * table[a][j][k] for coef, table in parts)
            for a in range(n) for j in range(n) for k in range(n)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_formula_operands_and_dual_specs_match_loop_definitions(n):
    """On random rational tables of dimension n, every operand that
    ``labels.formula`` defines and every map of the four dual specs equals
    its loop definition; the operands it does not define are the products
    ``o``, ``(.)``, ``(*)``, ``s`` and the R-tensors."""
    rng = random.Random(n)
    for _ in range(3):
        tables = {name: table_of((n,) * 3, (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                            for _ in range(n**3))) for name in NAMES}
        want = _operands(tables)
        assert set(labels.OPERANDS) - set(want) == {"o", "(.)", "(*)", "s", *labels.R_TENSORS}
        for name, parts in want.items():
            assert reference(labels.OPERANDS[name], tables) == _entries(parts), name
        for spec, maps in _dual_specs(tables):
            assert spec.keys() == maps.keys()
            for key, parts in maps.items():
                assert reference(spec[key], tables) == _entries(parts), key


@pytest.mark.parametrize("name", ["", "+L>", "L>+", "L>R<", "2", "L>++R<", "Lx", "tau.", "L>**"])
def test_a_malformed_formula_is_refused(name):
    with pytest.raises(ValueError, match="not an operand formula"):
        labels.formula(name)
