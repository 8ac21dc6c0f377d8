import io
import random
from fractions import Fraction

import pytest

from prenovikov import (
    FormMatrix,
    MatchedPair,
    PreNovikovAlgebra,
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    RefusalError,
    check_bialgebra,
    check_matched_pair,
    check_novikov,
    check_quasi_frobenius,
    direct_sum_algebra,
    double_from_bialgebra,
    double_matched_bialgebra_verdicts,
    has_double_construction,
    induced_matched_pair,
    standard_form,
)
from prenovikov import algebras, bialgebra, core, labels, matched_double
from prenovikov.cli import run_command
from prenovikov.core import StructureConstants

from conftest import FIXTURES
from tensor_reference import zeros



F = Fraction


def test_standard_form_values():
    w = standard_form(2)
    assert w.w[2][0] == 1 and w.w[3][1] == 1  # w(e1*, e1) = w(e2*, e2) = 1
    assert w.w[0][2] == -1 and w.w[1][3] == -1
    for i in range(4):
        for j in range(4):
            if (i, j) not in ((0, 2), (1, 3), (2, 0), (3, 1)):
                assert w.w[i][j] == 0
            assert w.w[i][j] == -w.w[j][i]


def test_induced_matched_pair_passes(bialg2):
    mp = induced_matched_pair(bialg2)
    assert check_matched_pair(mp).passed
    # structural fact of this fixture: the dual-side left action vanishes
    assert all(m == zeros(2, 2) for m in mp.l_b)


def test_zero_matched_pair_passes():
    z = StructureConstants.zero(2)
    zm = (zeros(2, 2), zeros(2, 2))
    mp = MatchedPair(z, z, zm, zm, zm, zm)
    assert check_matched_pair(mp).passed


def test_zeroed_action_fails(bialg2):
    mp = induced_matched_pair(bialg2)
    zm = (zeros(2, 2), zeros(2, 2))
    broken = MatchedPair(mp.a_op, mp.b_op, zm, mp.r_a, mp.l_b, mp.r_b)
    report = check_matched_pair(broken)
    assert not report.passed
    assert "3.3" in {v.identity for v in report.all_violations()}


def test_direct_sum_reproduces_double_table(bialg2):
    mp = induced_matched_pair(bialg2)
    alg = direct_sum_algebra(mp)
    # e1 . e2* = e2 - e2*  and  e2* . e2 = e1*
    assert alg.op.c[0][3] == (F(0), F(1), F(0), F(-1))
    assert alg.op.c[3][1] == (F(0), F(0), F(1), F(0))
    # restriction to the first block recovers the first algebra
    for i in range(2):
        for j in range(2):
            assert alg.op.c[i][j][:2] == mp.a_op.c[i][j]
            assert alg.op.c[i][j][2:] == (F(0), F(0))


def test_direct_sum_zero_pair():
    z = StructureConstants.zero(2)
    zm = (zeros(2, 2), zeros(2, 2))
    alg = direct_sum_algebra(MatchedPair(z, z, zm, zm, zm, zm))
    assert alg.op.is_zero()


def test_direct_sum_refuses_invalid(bialg2):
    mp = induced_matched_pair(bialg2)
    zm = (zeros(2, 2), zeros(2, 2))
    broken = MatchedPair(mp.a_op, mp.b_op, zm, mp.r_a, mp.l_b, mp.r_b)
    with pytest.raises(RefusalError):
        direct_sum_algebra(broken)


def test_double_from_bialgebra(bialg2):
    double = double_from_bialgebra(bialg2)
    assert double.split_dim == 2
    assert double.labels == ("e1", "e2", "e1*", "e2*")
    assert double.form == standard_form(2)
    assert check_novikov(double.algebra.op).passed
    assert check_quasi_frobenius(double.algebra.op, double.form).passed
    assert double.report is not None and double.report.passed
    # the paper-transcribed fixture file holds the same table
    expected = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (0, 2): {2: -1}, (2, 0): {2: 1},
        (0, 3): {1: 1, 3: -1}, (3, 0): {3: 1},
        (1, 3): {2: -1}, (3, 1): {2: 1},
    }
    for i in range(4):
        for j in range(4):
            want = expected.get((i, j), {})
            for k in range(4):
                assert double.algebra.op.c[i][j][k] == F(want.get(k, 0))


def test_double_refuses_invalid_bialgebra(alg2, co2):
    negated_beta = tuple(tuple(tuple(-v for v in row) for row in t) for t in co2.beta)
    bad = PreNovikovBialgebra(alg2, PreNovikovCoalgebra(2, co2.alpha, negated_beta))
    with pytest.raises(RefusalError):
        double_from_bialgebra(bad)


def _mutate(data, which, i, j, k):
    alg, co = data
    if which in ("lhd", "rhd"):
        rows = [[list(r) for r in plane] for plane in getattr(alg, which).c]
        rows[i][j][k] += 1
        tbl = StructureConstants.from_rows(rows)
        alg = PreNovikovAlgebra(tbl, alg.rhd) if which == "lhd" else PreNovikovAlgebra(alg.lhd, tbl)
    else:
        maps = [[list(r) for r in t] for t in getattr(co, which)]
        maps[i][j][k] += 1
        new = tuple(tuple(map(tuple, t)) for t in maps)
        co = PreNovikovCoalgebra(
            2, new if which == "alpha" else co.alpha, new if which == "beta" else co.beta
        )
    return PreNovikovBialgebra(alg, co)


ALL_CELLS = [
    (which, i, j, k)
    for which in ("lhd", "rhd", "alpha", "beta")
    for i in range(2)
    for j in range(2)
    for k in range(2)
]
SURVIVING_CELLS = {("lhd", 0, 0, 1), ("rhd", 0, 1, 1)}


def test_three_verdicts_agree_on_all_mutations(alg2, co2):
    base = (alg2, co2)
    assert double_matched_bialgebra_verdicts(PreNovikovBialgebra(alg2, co2)) == (True,) * 3
    flipped = 0
    for cell in ALL_CELLS:
        verdicts = double_matched_bialgebra_verdicts(_mutate(base, *cell))
        assert len(set(verdicts)) == 1, cell
        if not verdicts[0]:
            flipped += 1
            assert cell not in SURVIVING_CELLS
        else:
            assert cell in SURVIVING_CELLS
    assert flipped == len(ALL_CELLS) - len(SURVIVING_CELLS)


def test_qf_splitting_round_trips_over_enumerated_doubles():
    """Every enumerated algebra paired with the zero coalgebra is a bialgebra;
    its double is quasi-Frobenius and the induced splitting recovers it."""
    from fractions import Fraction
    from prenovikov import enumerate_dim2_pre_novikov, pre_novikov_from_qf
    from conftest import derived_table
    import random

    rng = random.Random(41)
    algs = enumerate_dim2_pre_novikov()
    zero_co = PreNovikovCoalgebra(2, (zeros(2), zeros(2)), (zeros(2), zeros(2)))
    for alg in rng.sample(algs, 20):
        double = double_from_bialgebra(PreNovikovBialgebra(alg, zero_co))
        assert check_quasi_frobenius(double.algebra.op, double.form).passed
        induced = pre_novikov_from_qf(double.algebra.op, double.form)
        assert derived_table("o", induced) == double.algebra.op


def test_surviving_mutations_are_genuinely_valid(alg2, co2):
    """The two +1 mutations that do not break the structure really are valid
    bialgebras: all three independent verdict routes agree, the bialgebra
    checker passes, and the double construction goes through."""
    for cell in sorted(SURVIVING_CELLS):
        mutant = _mutate((alg2, co2), *cell)
        assert check_bialgebra(mutant.algebra, mutant.coalgebra).passed
        assert has_double_construction(mutant)
        assert check_matched_pair(induced_matched_pair(mutant)).passed
        double_from_bialgebra(mutant)  # must not raise


@pytest.mark.parametrize("name", ["dim2_bialgebra.json", "dim4_bialgebra.json"])
def test_one_quasi_frobenius_check_per_double(monkeypatch, name):
    """`prenovikov double` checks the double's form once: its second stage
    holds the one quasi-Frobenius tree, and the splitting that restricts it
    to the input tables reuses that verdict instead of re-checking it inside
    `pre_novikov_from_qf`."""
    calls = []
    tree = algebras._qf_tree

    def counted(*args, **kwargs):
        calls.append(1)
        return tree(*args, **kwargs)

    monkeypatch.setattr(algebras, "_qf_tree", counted)
    assert run_command(["double", str(FIXTURES / name)], out=io.StringIO()) == 0
    assert len(calls) == 1


def test_verdicts_build_the_induced_pair_once(monkeypatch, bialg2):
    calls = []
    build = matched_double._induced

    def counted(bialg):
        calls.append(1)
        return build(bialg)

    monkeypatch.setattr(matched_double, "_induced", counted)
    assert double_matched_bialgebra_verdicts(bialg2) == (True, True, True)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["dim2_bialgebra.json", "dim4_bialgebra.json"])
def test_one_dual_algebra_per_double(monkeypatch, name):
    """`prenovikov double` dualizes the coalgebra once: the coalgebra check,
    the induced matched pair and the block comparison share the tables, the
    derived operands <* and >* of the one kernel call that reads al and be."""
    runs = []
    run = core._Program.run

    def recorded(self, arrays, *args, **kwargs):
        runs.append((set(arrays), [key for _, _, key, _, derived, _ in self.code if derived]))
        return run(self, arrays, *args, **kwargs)

    monkeypatch.setattr(core._Program, "run", recorded)
    assert run_command(["double", str(FIXTURES / name)], out=io.StringIO()) == 0
    (derived,) = [derived for inputs, derived in runs if {"al", "be"} <= inputs]
    assert derived.count("<*") == derived.count(">*") == 1


def test_renamed_codes_read_no_derived_operand(monkeypatch, bialg2):
    """``check_matched_pair`` evaluates the Novikov and module identities of
    B by renaming ``o``, ``l`` and ``r`` in their specs.  A derived operand
    (``labels.OPERANDS``) would be derived from the tables before the
    rename, so those specs read only the renamed names, each a table of the
    pair, and the call derives only the operands its mixed identities read."""
    names = {name for code in labels.NOVIKOV + labels.NOVIKOV_REP for _, _, ns in labels.SPECS[code][1] for name in ns}
    assert names == {"o", "l", "r"}
    derived = []

    class Recording(dict):
        def __getitem__(self, name):
            derived.append(name)
            return super().__getitem__(name)

    mp = induced_matched_pair(bialg2)
    monkeypatch.setattr(labels, "OPERANDS", Recording(labels.OPERANDS))
    core._program.cache_clear()  # (derived operands are looked up when a call is compiled)
    assert check_matched_pair(mp).passed
    assert set(derived) == {"lA-rA", "lB-rB"}  # read by 3.1 and 3.3


def test_violations_come_in_code_then_witness_order():
    """``report.verify`` sorts nothing: every report of a tree lists its
    violations code by code ("2.9" before "2.10"; the quasi-Frobenius rows
    after 2.14, "nondegenerate" before "skew") and each code's witnesses in
    lexicographic order, shifted or not, which is the order a sort on
    (numeric code parts, witness index) gives."""
    def order(v):
        return tuple((0, int(p), "") if p.isdigit() else (1, 0, p) for p in v.identity.split(".")), v.witness_index

    rng = random.Random(7)

    def tables(*shape):
        return [[[Fraction(rng.choice((-1, 0, 1)), rng.choice((1, 2))) for _ in range(shape[2])]
                 for _ in range(shape[1])] for _ in range(shape[0])]

    op = StructureConstants.from_rows(tables(3, 3, 3))
    degenerate = FormMatrix(3, tuple(tuple(map(Fraction, row)) for row in ((1, 2, 0), (0, 0, 1), (1, 2, 1))))
    qf = check_quasi_frobenius(op, degenerate)
    assert {v.identity for v in qf.violations} == {"2.14", "nondegenerate", "skew"}
    alg = PreNovikovAlgebra(op, StructureConstants.from_rows(tables(3, 3, 3)))
    mp = MatchedPair(op, StructureConstants.from_rows(tables(2, 2, 2)), tables(3, 2, 2), tables(3, 2, 2),
                     tables(2, 3, 3), tables(2, 3, 3))
    reports = [qf, check_bialgebra(alg, PreNovikovCoalgebra(3, tables(3, 3, 3), tables(3, 3, 3))),
               check_matched_pair(mp)]
    checked = 0
    while reports:
        report = reports.pop()
        assert list(report.violations) == sorted(report.violations, key=order)
        checked += bool(report.violations)
        reports.extend(report.sections)
    assert checked >= 9
