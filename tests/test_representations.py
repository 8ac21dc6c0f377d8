import random
from dataclasses import replace
from fractions import Fraction

import pytest

from prenovikov import (
    NovikovAlgebra,
    NovikovRep,
    PreNovikovAlgebra,
    PreNovikovRep,
    RefusalError,
    adjoint_reps,
    associated_novikov,
    check_novikov_rep,
    check_pre_novikov_rep,
    double_from_bialgebra,
    dual_novikov_rep,
    dual_pre_novikov_rep,
    enumerate_dim2_pre_novikov,
    novikov_adjoint_rep,
    semidirect_pre_novikov,
    verify_novikov_rep,
    verify_pre_novikov_rep,
)
from prenovikov.core import (
    InputError,
    StructureConstants,
    mat_inverse,
)

from conftest import rand_invertible
from tensor_reference import mat_identity, mat_mul, mat_scale, zeros

F = Fraction


def _zero_maps(n, m):
    return tuple(zeros(m, m) for _ in range(n))


def test_check_novikov_rep_examples(alg2):
    nov = associated_novikov(alg2)
    adj = novikov_adjoint_rep(nov)
    assert adj.verified
    zero = NovikovRep(nov, _zero_maps(2, 3), _zero_maps(2, 3))
    assert check_novikov_rep(nov, zero).passed
    with pytest.raises(InputError):
        check_novikov_rep(NovikovAlgebra(StructureConstants.zero(3)), adj)


def test_rep_reports_label_module_vectors():
    """Witness v is a module vector: v = u0, u1 must be labeled u0, u1."""
    zero = StructureConstants.zero(1)
    ident = (mat_identity(2),)
    none = _zero_maps(1, 2)
    pre = check_pre_novikov_rep(
        PreNovikovAlgebra(zero, zero),
        PreNovikovRep(PreNovikovAlgebra(zero, zero), ident, none, none, ident),
        module_basis=("u0", "u1"),
    )
    for code in ("4.22", "4.25"):
        assert [v.witness for v in pre.violations if v.identity == code] == [
            ("e1", "e1", "u0"), ("e1", "e1", "u1")]
    nov = check_novikov_rep(NovikovAlgebra(zero), NovikovRep(NovikovAlgebra(zero), ident, ident),
                            module_basis=("u0", "u1"))
    assert [v.witness for v in nov.violations if v.identity == "2.5"] == [
        ("e1", "e1", "u0"), ("e1", "e1", "u1")]


def test_swapped_adjoint_fails_on_noncommutative(bialg2):
    double = double_from_bialgebra(bialg2)
    adj = novikov_adjoint_rep(double.algebra)
    swapped = NovikovRep(double.algebra, adj.r, adj.l)
    report = check_novikov_rep(double.algebra, swapped)
    assert not report.passed
    # the fixture's own algebra is commutative, so there the swap is a no-op
    nov2 = associated_novikov(bialg2.algebra)
    adj2 = novikov_adjoint_rep(nov2)
    assert adj2.l == adj2.r


def test_dual_novikov_rep_values_and_involution(alg2):
    nov = associated_novikov(alg2)
    adj = novikov_adjoint_rep(nov)
    dual = dual_novikov_rep(adj)
    assert dual.l[0] == mat_scale(F(-2), mat_identity(2))
    assert dual.r[0] == mat_identity(2)
    again = dual_novikov_rep(dual)
    assert again.l == adj.l and again.r == adj.r
    zero = verify_novikov_rep(NovikovRep(nov, _zero_maps(2, 2), _zero_maps(2, 2)))
    dz = dual_novikov_rep(zero)
    assert all(m == zeros(2, 2) for m in dz.l + dz.r)
    with pytest.raises(RefusalError):
        dual_novikov_rep(replace(adj, verified=False))


def test_check_pre_novikov_rep_examples(alg2):
    _, pre = adjoint_reps(alg2)
    assert pre.verified
    zero = PreNovikovRep(alg2, *(_zero_maps(2, 2),) * 4)
    assert check_pre_novikov_rep(alg2, zero).passed
    neg_rl = tuple(mat_scale(F(-1), m) for m in pre.r_lhd)
    rep = check_pre_novikov_rep(alg2, PreNovikovRep(alg2, pre.l_rhd, pre.r_rhd, pre.l_lhd, neg_rl))
    assert not rep.passed
    assert "4.27" in {v.identity for v in rep.violations}


def test_dual_pre_novikov_rep_values_and_involution(alg2):
    _, pre = adjoint_reps(alg2)
    dual = dual_pre_novikov_rep(pre)
    # reproduces e1 > e1* = -2 e1* in the semidirect table
    assert dual.l_rhd[0] == mat_scale(F(-2), mat_identity(2))
    again = dual_pre_novikov_rep(dual)
    assert (again.l_rhd, again.r_rhd, again.l_lhd, again.r_lhd) == (
        pre.l_rhd,
        pre.r_rhd,
        pre.l_lhd,
        pre.r_lhd,
    )
    with pytest.raises(RefusalError):
        dual_pre_novikov_rep(replace(pre, verified=False))


def test_adjoint_reps_values(alg2):
    nov_rep, pre_rep = adjoint_reps(alg2)
    assert all(m == zeros(2, 2) for m in nov_rep.l)  # L> = 0
    assert nov_rep.r[0] == mat_identity(2)  # R<(e1) = id
    assert nov_rep.verified and pre_rep.verified
    zero_alg = PreNovikovAlgebra(StructureConstants.zero(2), StructureConstants.zero(2))
    znov, zpre = adjoint_reps(zero_alg)
    assert all(m == zeros(2, 2) for m in znov.l + znov.r)
    assert all(m == zeros(2, 2) for m in zpre.l_rhd + zpre.r_rhd + zpre.l_lhd + zpre.r_lhd)


def test_semidirect_reproduces_fixture(alg2, alg4):
    _, pre = adjoint_reps(alg2)
    dual = dual_pre_novikov_rep(pre)
    semi = semidirect_pre_novikov(alg2, dual)
    assert semi == alg4
    # projection to the algebra block recovers the input tables
    for i in range(2):
        for j in range(2):
            assert semi.lhd.c[i][j][:2] == alg2.lhd.c[i][j]
            assert semi.rhd.c[i][j][:2] == alg2.rhd.c[i][j]


def test_semidirect_zero_rep_gives_null_ideal(alg2):
    zero = verify_pre_novikov_rep(PreNovikovRep(alg2, *(_zero_maps(2, 2),) * 4))
    semi = semidirect_pre_novikov(alg2, zero)
    for i in range(4):
        for j in range(4):
            if i >= 2 or j >= 2:
                assert all(v == 0 for v in semi.lhd.c[i][j])
                assert all(v == 0 for v in semi.rhd.c[i][j])


def test_semidirect_iff_rep(alg2):
    """Perturbing one matrix entry must break the rep check and the
    pre-Novikov check of the would-be semidirect product together."""
    _, pre = adjoint_reps(alg2)
    perturbed_maps = [list(map(list, m)) for m in pre.l_lhd]
    perturbed_maps[0][0][0] += 1
    bad = PreNovikovRep(
        alg2,
        pre.l_rhd,
        pre.r_rhd,
        tuple(tuple(map(tuple, m)) for m in perturbed_maps),
        pre.r_lhd,
    )
    assert not check_pre_novikov_rep(alg2, bad).passed
    with pytest.raises(RefusalError):
        semidirect_pre_novikov(alg2, bad)
    # build the product table anyway (bypassing verification) and check it fails
    forced = replace(bad, verified=True)
    with pytest.raises(Exception):
        semidirect_pre_novikov(alg2, forced)


def test_semidirect_refuses_unverified(alg2):
    _, pre = adjoint_reps(alg2)
    with pytest.raises(RefusalError):
        semidirect_pre_novikov(alg2, replace(pre, verified=False))


def _conjugate_rep_maps(maps, p, pinv):
    return tuple(mat_mul(pinv, mat_mul(m, p)) for m in maps)


def test_duals_over_conjugated_reps(alg2):
    """Module-basis changes preserve rep validity; duals stay valid and
    involutive across a seeded family."""
    rng = random.Random(23)
    nov = associated_novikov(alg2)
    adj = novikov_adjoint_rep(nov)
    _, pre = adjoint_reps(alg2)
    for _ in range(10):
        p = rand_invertible(rng, 2)
        pinv = mat_inverse(p)
        cn = NovikovRep(nov, _conjugate_rep_maps(adj.l, p, pinv), _conjugate_rep_maps(adj.r, p, pinv))
        cn = verify_novikov_rep(cn)
        dn = dual_novikov_rep(cn)
        assert dual_novikov_rep(dn).l == cn.l
        cp = PreNovikovRep(
            alg2,
            _conjugate_rep_maps(pre.l_rhd, p, pinv),
            _conjugate_rep_maps(pre.r_rhd, p, pinv),
            _conjugate_rep_maps(pre.l_lhd, p, pinv),
            _conjugate_rep_maps(pre.r_lhd, p, pinv),
        )
        cp = verify_pre_novikov_rep(cp)
        dp = dual_pre_novikov_rep(cp)
        assert dual_pre_novikov_rep(dp).l_lhd == cp.l_lhd


def test_enumerated_adjoints_pass(alg2):
    """Subset here; the full sweep lives in the acceptance suite."""
    algs = enumerate_dim2_pre_novikov()
    rng = random.Random(29)
    for alg in rng.sample(algs, 25):
        nov_rep, pre_rep = adjoint_reps(alg)
        assert nov_rep.verified and pre_rep.verified
