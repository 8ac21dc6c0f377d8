"""The one shape rule: every operand of a kernel call must fit its letters,
and the terms of one sum must give one shape.  Each case below gives one
operand a mismatched axis, often a size-1 axis where a larger size is
expected, which ``np.einsum`` and numpy slice assignment would broadcast,
or hands the kernel a malformed spec, a ragged table or bool entries.
Every entry point must refuse it with ``InputError``, never with another
exception and never with a value."""

import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prenovikov import (
    FormMatrix,
    MatchedPair,
    NovikovAlgebra,
    NovikovRep,
    PreNovikovAlgebra,
    PreNovikovCoalgebra,
    PreNovikovRep,
    check_bialgebra,
    check_compatibility,
    check_novikov_rep,
    check_o_operator_novikov,
    check_o_operator_pre_novikov,
    check_pre_novikov,
    check_pre_novikov_rep,
    check_quasi_frobenius,
    coboundary_diagnostics,
    coboundary_maps,
    core,
    labels,
    t_r_from_tensor,
    ybe_residual,
)
from prenovikov.core import (
    Exact,
    InputError,
    StructureConstants,
    direct_sum_table,
    evaluate,
    exact_det,
    mat_inverse,
    sum_batched,
    zero_mask,
)
from prenovikov.cli import run_command
from prenovikov.representations import _DUAL_ADJOINT_MAPS

F = Fraction
M2 = ((F(1), F(2)), (F(3), F(4)))
E = (F(1), F(0))


def ones(*shape) -> Exact:
    return Exact(np.ones(shape, dtype=np.int64))


def sc(n: int) -> StructureConstants:
    return StructureConstants(n, ones(n, n, n))


def pre(n: int) -> PreNovikovAlgebra:
    return PreNovikovAlgebra(sc(n), StructureConstants.zero(n))


def co(n: int) -> PreNovikovCoalgebra:
    return PreNovikovCoalgebra(n, ones(n, n, n), ones(n, n, n))


def nov_rep(n: int, m: int) -> NovikovRep:
    return NovikovRep(NovikovAlgebra(sc(n)), ones(n, m, m), ones(n, m, m))


def pre_rep(n: int, m: int) -> PreNovikovRep:
    return PreNovikovRep(pre(n), *(ones(n, m, m),) * 4)


def batched(*shapes) -> dict:
    return {name: np.ones(shape, dtype=np.int64) for name, shape in zip("mv", shapes)}


CASES = {
    # the kernel, per term and per sum
    "evaluate size-1 vector": lambda: evaluate({"x": [(1, "ij,j->i", ("m", "v"))]}, {"m": M2, "v": (F(5),)}),
    "evaluate missing axis": lambda: evaluate({"x": [(1, "ij->ji", ("v",))]}, {"v": E}),
    "evaluate extra axis": lambda: evaluate({"x": [(1, "i->i", ("m",))]}, {"m": M2}),
    "evaluate repeated letter": lambda: evaluate({"x": [(1, "ii->i", ("m",))]}, {"m": ones(2, 3)}),
    "evaluate terms of two shapes": lambda: evaluate(
        {"x": [(1, "ij->ij", ("a",)), (1, "ij->ij", ("b",))]}, {"a": ones(2, 2), "b": ones(1, 1)}),
    "evaluate terms of two degrees": lambda: evaluate(
        {"x": [(1, "ij->ij", ("m",)), (1, "ik,kj->ij", ("m", "m"))]}, {"m": M2}),
    "evaluate transposed terms": lambda: evaluate(
        {"x": [(1, "ij->ij", ("w",)), (1, "ji->ij", ("w",))]}, {"w": ones(2, 3)}),
    "evaluate derived operand": lambda: evaluate(
        {"x": [(1, "ijk->ijk", ("o",))]}, {"<": ones(2, 2, 2), ">": ones(1, 1, 1)}),
    "evaluate unknown operand": lambda: evaluate({"x": [(1, "ij->ji", ("q",))]}, {"m": M2}),
    "evaluate ragged table": lambda: evaluate({"x": [(1, "ij->ji", ("m",))]}, {"m": ((F(1), F(2)), (F(3),))}),
    "sum_batched size-1 member axis": lambda: sum_batched(
        {"x": [(1, "ij,j->i", ("m", "v"))]}, batched((3, 2, 2), (3, 1)), batch={"m", "v"}),
    "sum_batched batch lengths": lambda: sum_batched(
        {"x": [(1, "ij,j->i", ("m", "v"))]}, batched((3, 2, 2), (4, 2)), batch={"m", "v"}),
    "sum_batched batch lengths 1 and 3": lambda: sum_batched(
        {"x": [(1, "ij,j->i", ("m", "v"))]}, batched((1, 2, 2), (3, 2)), batch={"m", "v"}),
    "sum_batched term reading no batched operand": lambda: sum_batched(
        {"x": labels.OPERANDS["o"]}, {"<": np.ones((3, 2, 2, 2), np.int64), ">": np.ones((2, 2, 2), np.int64)},
        batch={"<"}),
    "sum_batched size-1 fixed operand": lambda: sum_batched(
        {"x": [(1, "ij,j->i", ("m", "v"))]}, batched((3, 2, 2), (1,)), batch={"m"}),
    "zero_mask size-1 fixed operand": lambda: zero_mask(
        {"x": [(1, "ij,j->i", ("m", "v"))]}, 3, lambda lo, hi: {"m": np.ones((hi - lo, 2, 2), np.int64)},
        {"v": np.ones(1, np.int64)}),
    # the helpers on nested tables
    "exact bool entries": lambda: core.exact([[True, False]]),
    "exact bool array": lambda: core.exact(np.array([True, False])),
    "exact_det empty rows": lambda: exact_det(((),)),
    "mat_inverse empty rows": lambda: mat_inverse(((), ())),
    "t_r_from_tensor vector": lambda: t_r_from_tensor(E),
    "FormMatrix.pair size-1 vector": lambda: FormMatrix(2, M2).pair((F(1),), E),
    "FormMatrix.pair long vector": lambda: FormMatrix(2, M2).pair(E, (F(1),) * 3),
    # the constructors
    "StructureConstants size-1 table": lambda: StructureConstants(2, ones(1, 1, 1)),
    "StructureConstants size-1 axis": lambda: StructureConstants(2, ones(2, 1, 2)),
    "StructureConstants bool table": lambda: StructureConstants(1, [[[True]]]),
    "FormMatrix size-1 axis": lambda: FormMatrix(2, ones(2, 1)),
    "PreNovikovCoalgebra size-1 axis": lambda: PreNovikovCoalgebra(2, ones(2, 2, 2), ones(2, 1, 2)),
    "NovikovRep two module sizes": lambda: NovikovRep(NovikovAlgebra(sc(2)), ones(2, 3, 3), ones(2, 2, 2)),
    "NovikovRep non-square maps": lambda: NovikovRep(NovikovAlgebra(sc(2)), ones(2, 3, 1), ones(2, 3, 1)),
    "PreNovikovRep size-1 family": lambda: PreNovikovRep(pre(2), *(ones(2, 3, 3),) * 3, ones(1, 3, 3)),
    "MatchedPair size-1 action": lambda: MatchedPair(
        sc(2), sc(3), ones(2, 3, 3), ones(2, 3, 3), ones(3, 2, 2), ones(3, 1, 2)),
    "MatchedPair swapped action": lambda: MatchedPair(
        sc(2), sc(3), ones(3, 2, 2), ones(2, 3, 3), ones(3, 2, 2), ones(3, 2, 2)),
    # the constructions that read tables with no validity requirement
    "derived o size-1 table": lambda: evaluate({"o": labels.OPERANDS["o"]}, {"<": sc(2).table, ">": sc(1).table}),
    "derived dual adjoint maps dims 1 and 2": lambda: evaluate(
        {key: labels.OPERANDS[name] for key, name in _DUAL_ADJOINT_MAPS.items()}, {"<": sc(1).table, ">": sc(2).table}),
    "direct_sum_table size-1 action": lambda: direct_sum_table(2, 3, {"o": ones(2, 2, 2), "lA": ones(2, 1, 1)}),
    "direct_sum_table size-1 product": lambda: direct_sum_table(2, 3, {"o": ones(1, 1, 1)}),
    "direct_sum_table swapped action": lambda: direct_sum_table(2, 3, {"rB": ones(2, 3, 3)}),
    # the verifiers whose own checks went
    "check_pre_novikov size-1 >": lambda: check_pre_novikov(sc(2), sc(1)),
    "check_quasi_frobenius size-1 form": lambda: check_quasi_frobenius(sc(2), FormMatrix(1, ones(1, 1))),
    "check_quasi_frobenius larger form": lambda: check_quasi_frobenius(sc(2), FormMatrix(3, ones(3, 3))),
    "check_compatibility size-1 coalgebra": lambda: check_compatibility(pre(2), co(1)),
    "check_bialgebra size-1 coalgebra": lambda: check_bialgebra(pre(2), co(1)),
    "check_novikov_rep size-1 algebra": lambda: check_novikov_rep(NovikovAlgebra(sc(2)), nov_rep(1, 2)),
    "check_pre_novikov_rep size-1 algebra": lambda: check_pre_novikov_rep(pre(2), pre_rep(1, 2)),
    "check_o_operator_novikov size-1 T": lambda: check_o_operator_novikov(
        NovikovAlgebra(sc(2)), nov_rep(2, 3), ones(1, 3)),
    "check_o_operator_novikov size-1 algebra": lambda: check_o_operator_novikov(
        NovikovAlgebra(sc(2)), nov_rep(1, 3), ones(2, 3)),
    "check_o_operator_pre_novikov transposed T": lambda: check_o_operator_pre_novikov(
        pre(2), pre_rep(2, 3), ones(3, 2)),
    "ybe_residual size-1 r": lambda: ybe_residual(pre(2), ones(1, 1)),
    "coboundary_maps size-1 r": lambda: coboundary_maps(pre(2), ones(2, 1)),
    "coboundary_diagnostics size-1 r": lambda: coboundary_diagnostics(pre(2), ones(1, 2)),
}


@pytest.mark.parametrize("case", CASES)
def test_a_mismatched_operand_is_refused(case):
    with pytest.raises(InputError):
        CASES[case]()


def test_the_refusal_names_the_spec_the_operand_and_the_sizes():
    with pytest.raises(InputError, match=r"^spec 'x', operand 'v': shape \(1,\) does not fit 'j' at sizes"):
        evaluate({"x": [(1, "ij,j->i", ("m", "v"))]}, {"m": M2, "v": (F(5),)})
    with pytest.raises(InputError, match=r"^spec 'x': its terms give the shapes \[\(1, 1\), \(2, 2\)\]$"):
        CASES["evaluate terms of two shapes"]()
    with pytest.raises(InputError, match=r"^spec 'x': its terms have the degrees \[1, 2\]$"):
        CASES["evaluate terms of two degrees"]()
    with pytest.raises(InputError, match=r"^spec 'x': operand 'q' is neither an input nor derived$"):
        CASES["evaluate unknown operand"]()
    with pytest.raises(InputError, match=r"^spec 'x': no operand of abt->Nabt reads each output letter$"):
        CASES["sum_batched term reading no batched operand"]()


def test_a_verifier_refusal_names_the_report_and_the_identity():
    """A verifier's kernel call keys its specs by section path and code; its
    refusal names the report and the identity in their place."""
    with pytest.raises(InputError, match=r"^o_operator_pre_novikov Eq \(4\.29\), operand 'T': shape \(2, 3\) "
                                         r"does not fit 'tn' at sizes"):
        check_o_operator_pre_novikov(pre(2), pre_rep(2, 2), ones(2, 3))
    with pytest.raises(InputError, match=r"^quasi_frobenius Eq \(2\.14\), operand 'w': shape \(3, 3\) does not fit"):
        CASES["check_quasi_frobenius larger form"]()
    with pytest.raises(InputError, match=r"^compatibility Eq \(3\.16\), operand 'tau\.al\+be': shape \(1, 1, 1\) "):
        CASES["check_bialgebra size-1 coalgebra"]()
    # a derived operand's refusal names the spec that reads it, and a spec that is the operand names itself
    with pytest.raises(InputError, match=r"^pre_novikov Eq \(2\.8\), operand 'o': its terms give the shapes "
                                         r"\[\(1, 1, 1\), \(2, 2, 2\)\]$"):
        check_pre_novikov(sc(2), StructureConstants.zero(1))
    with pytest.raises(InputError, match=r"^spec 'o': its terms give the shapes \[\(1, 1, 1\), \(2, 2, 2\)\]$"):
        evaluate({"o": labels.OPERANDS["o"]}, {"<": sc(2).table, ">": StructureConstants.zero(1).table})


def test_a_refused_call_leaves_the_kernel_usable():
    """A refusal is raised while compiling, so nothing is cached for it, and
    the same spec on fitting operands still runs."""
    for _ in range(2):
        with pytest.raises(InputError):
            CASES["evaluate size-1 vector"]()
    assert evaluate({"x": [(1, "ij,j->i", ("m", "v"))]}, {"m": M2, "v": E})["x"].nested == (F(1), F(3))
    assert core._program.cache_info().currsize <= core.PLAN_CACHE


def test_cli_oper_names_a_misshapen_linmap(tmp_path, capsys):
    """``oper`` checks the linmap against the algebra and module sizes
    through the same rule, so its refusal names the bundle, not a spec."""
    linmap = tmp_path / "t.json"
    linmap.write_text(json.dumps({"kind": "linmap", "rows": 2, "cols": 3, "entries": [["1", "0", "0"]] * 2}))
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    argv = ["oper", str(fixtures / "dim2_pre_novikov.json"), str(fixtures / "dim2_pre_rep.json"), str(linmap)]
    assert run_command(argv, io.StringIO()) == 2
    assert capsys.readouterr().err == "input error: linmap: shape (2, 3) does not fit 'nm' at sizes {'n': 2, 'm': 2}\n"
