"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value here is exact (rational arithmetic, tolerance zero).
Criterion 6's literal universal-flip clause is pinned separately as a strict
expected failure; see the notes ledger for the counterexample analysis.
"""

import itertools
import random
import time

from fractions import Fraction

import pytest

from prenovikov import (
    NovikovRep,
    PreNovikovAlgebra,
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    PreNovikovRep,
    adjoint_reps,
    associated_novikov,
    bialgebra_from_r,
    check_bialgebra,
    check_coalgebra,
    check_compatibility,
    check_matched_pair,
    check_novikov,
    check_o_operator_pre_novikov,
    check_pre_novikov,
    check_quasi_frobenius,
    co2_equivalence,
    coboundary_diagnostics,
    coboundary_maps,
    double_from_bialgebra,
    double_matched_bialgebra_verdicts,
    dual_novikov_rep,
    dual_pre_novikov_rep,
    enumerate_dim2_pre_novikov,
    induced_matched_pair,
    lift_o_operator,
    novikov_adjoint_rep,
    pre_novikov_from_qf,
    search_symmetric_ybe,
    verify_novikov_rep,
    verify_pre_novikov_rep,
    ybe_residual,
)
from prenovikov.core import (
    StructureConstants,
    mat_inverse,
    t3_is_zero,
)
from prenovikov.io import parse_bundle, serialize_bundle
from prenovikov.cli import run_command

from conftest import FIXTURES, derived_table, rand_invertible, rand_symmetric
from tensor_reference import mat_mul

F = Fraction


def _report(criterion: int, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: PASS{suffix}")


def test_criterion_01_fixture_checks(alg2, co2):
    t0 = time.perf_counter()
    reports = [
        check_pre_novikov(alg2.lhd, alg2.rhd),
        check_coalgebra(co2),
        check_compatibility(alg2, co2),
        check_bialgebra(alg2, co2),
    ]
    elapsed = time.perf_counter() - t0
    for r in reports:
        assert r.passed
        assert r.all_violations() == ()
    assert elapsed < 1.0
    _report(1, f"{elapsed:.3f}s")


def test_criterion_02_double_construction(bialg2):
    double = double_from_bialgebra(bialg2)
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
                assert double.algebra.op.c[i][j][k] == F(want.get(k, 0)), (i, j, k)
    w = double.form.w
    assert w[2][0] == 1 and w[3][1] == 1 and w[0][2] == -1 and w[1][3] == -1
    assert sum(1 for row in w for v in row if v) == 4  # all other entries zero
    assert check_quasi_frobenius(double.algebra.op, double.form).passed
    _report(2)


def test_criterion_03_operator_pipeline(alg2, shift_t):
    _, pre_rep = adjoint_reps(alg2)
    assert check_o_operator_pre_novikov(alg2, pre_rep, shift_t).passed

    semi = None
    dual = dual_pre_novikov_rep(pre_rep)
    from prenovikov import semidirect_pre_novikov

    semi = semidirect_pre_novikov(alg2, dual)
    exp_lhd = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (0, 2): {2: 1}, (1, 3): {2: 1}, (2, 0): {2: 1}, (3, 1): {2: 1},
        (0, 3): {3: 1}, (3, 0): {3: 1},
    }
    exp_rhd = {(0, 2): {2: -2}, (1, 3): {2: -2}, (0, 3): {3: -2}}
    for table, exp in ((semi.lhd, exp_lhd), (semi.rhd, exp_rhd)):
        for i in range(4):
            for j in range(4):
                want = exp.get((i, j), {})
                for k in range(4):
                    assert table.c[i][j][k] == F(want.get(k, 0)), (i, j, k)

    lifted, r = lift_o_operator(alg2, pre_rep, shift_t)
    assert lifted == semi
    expected_r = [[F(0)] * 4 for _ in range(4)]
    expected_r[1][2] = F(1)
    expected_r[2][1] = F(1)
    assert r == tuple(map(tuple, expected_r))
    assert t3_is_zero(ybe_residual(semi, r))

    co = coboundary_maps(semi, r)
    # alpha(e2*) = 2 e1* (x) e1* and every other co-operation value vanishes;
    # in particular beta is identically zero (the formulas cancel exactly on
    # this table; the once-quoted nonzero beta(e1) fails the bialgebra check
    # and is pinned as an erratum in test_yang_baxter).
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want = F(2) if (i, j, k) == (3, 2, 2) else F(0)
                assert co.alpha[i][j][k] == want, ("alpha", i, j, k)
                assert co.beta[i][j][k] == F(0), ("beta", i, j, k)
    assert check_bialgebra(semi, co).passed
    _report(3, "beta is identically zero; see ledger on the quoted value")


def test_criterion_04_operator_form_equivalence(alg2, alg4):
    vals = [F(-1), F(0), F(1)]
    count = 0
    for diag in itertools.product(vals, repeat=3):
        r = ((diag[0], diag[1]), (diag[1], diag[2]))
        verdicts = co2_equivalence(alg2, r)
        assert len(set(verdicts)) == 1, (r, verdicts)
        count += 1
    assert count == 27
    rng = random.Random(409)
    for _ in range(200):
        r = rand_symmetric(rng, 4)
        verdicts = co2_equivalence(alg4, r)
        assert len(set(verdicts)) == 1, (r, verdicts)
    _report(4, "27 + 200 candidates, zero disagreements")


def test_criterion_05_coboundary_from_solutions(alg2, alg4):
    sols2 = search_symmetric_ybe(alg2, [-1, 0, 1])
    t0 = time.perf_counter()
    sols4 = search_symmetric_ybe(alg4, [-1, 0, 1])
    search_time = time.perf_counter() - t0
    assert search_time < 10.0
    for alg, sols in ((alg2, sols2), (alg4, sols4)):
        for r in sols:
            bialg = bialgebra_from_r(alg, r)
            assert bialg.report is not None and bialg.report.passed
    _report(5, f"{len(sols2)} + {len(sols4)} solutions, dim-4 search {search_time:.2f}s")


def _mutated_bialgebras(alg2, co2):
    cells = [
        (which, i, j, k)
        for which in ("lhd", "rhd", "alpha", "beta")
        for i in range(2)
        for j in range(2)
        for k in range(2)
    ]

    def build(cell):
        which, i, j, k = cell
        alg, co = alg2, co2
        if which in ("lhd", "rhd"):
            rows = [[list(r) for r in plane] for plane in getattr(alg, which).c]
            rows[i][j][k] += 1
            tbl = StructureConstants.from_rows(rows)
            alg = (
                PreNovikovAlgebra(tbl, alg.rhd)
                if which == "lhd"
                else PreNovikovAlgebra(alg.lhd, tbl)
            )
        else:
            maps = [[list(r) for r in t] for t in getattr(co, which)]
            maps[i][j][k] += 1
            new = tuple(tuple(map(tuple, t)) for t in maps)
            co = PreNovikovCoalgebra(
                2, new if which == "alpha" else co.alpha, new if which == "beta" else co.beta
            )
        return PreNovikovBialgebra(alg, co)

    return cells, build


def test_criterion_06_closure_and_verdict_equivalence(bialg2, alg2, co2):
    double = double_from_bialgebra(bialg2)
    induced = pre_novikov_from_qf(double.algebra.op, double.form)
    assert check_pre_novikov(induced.lhd, induced.rhd).passed
    assert derived_table("o", induced) == double.algebra.op
    from prenovikov import coalgebra_to_dual_algebra

    lhd_star, rhd_star = coalgebra_to_dual_algebra(co2)
    blocks = (
        (0, induced.lhd, alg2.lhd), (0, induced.rhd, alg2.rhd),
        (2, induced.lhd, lhd_star), (2, induced.rhd, rhd_star),
    )
    for lo, big, small in blocks:
        for i in range(2):
            for j in range(2):
                for k in range(4):
                    inside = lo <= k < lo + 2
                    want = small.c[i][j][k - lo] if inside else F(0)
                    assert big.c[lo + i][lo + j][k] == want
    assert check_matched_pair(induced_matched_pair(bialg2)).passed

    cells, build = _mutated_bialgebras(alg2, co2)
    rng = random.Random(607)
    sampled = [rng.choice(cells) for _ in range(50)]
    flipping = 0
    for cell in cells + sampled:
        verdicts = double_matched_bialgebra_verdicts(build(cell))
        assert len(set(verdicts)) == 1, (cell, verdicts)  # equivalence, also on failures
        if not verdicts[0]:
            flipping += 1
    assert flipping >= 50  # the flip phenomenon is exhibited across the sample
    _report(6, f"{len(cells) + len(sampled)} mutations, zero equivalence disagreements")


@pytest.mark.xfail(
    strict=True,
    reason="two of the 32 single-entry +1 mutations (lhd[0][0][1], rhd[0][1][1]) "
    "leave the structure a valid bialgebra, so the universal claim is false; "
    "their validity is pinned in test_matched_double",
)
def test_criterion_06_universal_flip_clause_as_stated(alg2, co2):
    cells, build = _mutated_bialgebras(alg2, co2)
    for cell in cells:
        verdicts = double_matched_bialgebra_verdicts(build(cell))
        assert verdicts == (False, False, False), cell


def _extend_module(maps, m_extra):
    """Block-diagonal extension of module matrices by a zero block."""
    out = []
    for mtx in maps:
        m = len(mtx)
        big = [[F(0)] * (m + m_extra) for _ in range(m + m_extra)]
        for i in range(m):
            for j in range(m):
                big[i][j] = mtx[i][j]
        out.append(tuple(map(tuple, big)))
    return tuple(out)


def _conjugate(maps, p, pinv):
    return tuple(mat_mul(pinv, mat_mul(m, p)) for m in maps)


def test_criterion_07_dual_involutions(alg2):
    rng = random.Random(701)
    algs = enumerate_dim2_pre_novikov()
    checked = 0
    for trial in range(100):
        alg = algs[rng.randrange(len(algs))]
        nov = associated_novikov(alg)
        nov_rep, pre_rep = adjoint_reps(alg)
        adj = novikov_adjoint_rep(nov)
        extra = trial % 2  # alternate module dims (2,2) and (2,3)
        p = rand_invertible(rng, 2 + extra)
        pinv = mat_inverse(p)
        n_rep = verify_novikov_rep(
            NovikovRep(
                nov,
                _conjugate(_extend_module(adj.l, extra), p, pinv),
                _conjugate(_extend_module(adj.r, extra), p, pinv),
            )
        )
        d1 = dual_novikov_rep(n_rep)
        d2 = dual_novikov_rep(d1)
        assert (d2.l, d2.r) == (n_rep.l, n_rep.r)
        p_rep = verify_pre_novikov_rep(
            PreNovikovRep(
                alg,
                _conjugate(_extend_module(pre_rep.l_rhd, extra), p, pinv),
                _conjugate(_extend_module(pre_rep.r_rhd, extra), p, pinv),
                _conjugate(_extend_module(pre_rep.l_lhd, extra), p, pinv),
                _conjugate(_extend_module(pre_rep.r_lhd, extra), p, pinv),
            )
        )
        e1 = dual_pre_novikov_rep(p_rep)
        e2 = dual_pre_novikov_rep(e1)
        assert (e2.l_rhd, e2.r_rhd, e2.l_lhd, e2.r_lhd) == (
            p_rep.l_rhd,
            p_rep.r_rhd,
            p_rep.l_lhd,
            p_rep.r_lhd,
        )
        checked += 1
    assert checked == 100
    _report(7, "100 verified representations at module dims 2 and 3")


def test_criterion_08_enumeration_suite():
    t0 = time.perf_counter()
    algs = enumerate_dim2_pre_novikov()
    for alg in algs:
        nov = associated_novikov(alg)  # refuses if the pair is invalid
        assert check_novikov(nov.op).passed
        nov_rep, pre_rep = adjoint_reps(alg)
        assert nov_rep.verified and pre_rep.verified
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, f"{len(algs)} algebras, {elapsed:.1f}s")


def test_criterion_09_lemma_diagnostics(alg2, alg4):
    rng = random.Random(911)
    probes = 0
    for _ in range(900):
        d = coboundary_diagnostics(alg2, rand_symmetric(rng, 2))
        assert d.conditions_zero()
        probes += 1
    for _ in range(100):
        d = coboundary_diagnostics(alg4, rand_symmetric(rng, 4))
        assert d.conditions_zero()
        probes += 1
    assert probes == 1000
    for alg in (alg2, alg4):
        for r in search_symmetric_ybe(alg, [-1, 0, 1]):
            d = coboundary_diagnostics(alg, r)
            assert d.conditions_zero() and d.equations_zero() and d.r_tensors_zero()
    _report(9, "1000 symmetric probes + all found solutions")


def test_criterion_10_cli_round_trip(tmp_path):
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert len(fixtures) >= 14
    for path in fixtures:
        text = path.read_text()
        assert serialize_bundle(parse_bundle(text)) == text
    import io as _io

    def run(argv):
        out = _io.StringIO()
        return run_command(argv, out=out)

    assert run(["check", str(FIXTURES / "dim2_bialgebra.json")]) == 0
    assert run(["check", str(FIXTURES / "dim4_bialgebra.json")]) == 0
    assert run(["check", str(FIXTURES / "dim2_pre_novikov_broken.json")]) == 1
    bad = tmp_path / "malformed.json"
    bad.write_text('{"kind":"novikov","dim":2,"product":[["1/0"]]}')
    assert run(["check", str(bad)]) == 2
    _report(10, f"{len(fixtures)} fixtures round-trip byte-identically")
