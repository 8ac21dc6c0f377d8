"""The block-built constructions and the fraction-free elimination against the
loop references in ``construction_oracles``, on every fixture and on seeded
random inputs, including inputs that hold Python ints."""

import random
from fractions import Fraction

import pytest

import construction_oracles as oracle
from conftest import FIXTURES, derived_table
from tensor_reference import mat_vec
from prenovikov import (
    MatchedPair,
    PreNovikovAlgebra,
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    adjoint_reps,
    coalgebra_to_dual_algebra,
    dual_pre_novikov_rep,
    induced_matched_pair,
    lift_o_operator,
    pre_novikov_from_qf,
    semidirect_pre_novikov,
    verify_pre_novikov_rep,
)
from prenovikov.core import (
    InputError,
    StructureConstants,
    direct_sum_table,
    exact_det,
    mat_inverse,
)
from prenovikov.io import bundle_to_objects, parse_bundle
from prenovikov.matched_double import _blocks_match, _induced, direct_sum_product, standard_form


def load(name):
    return bundle_to_objects(parse_bundle((FIXTURES / name).read_text()))


def entries(x):
    if isinstance(x, tuple):
        for v in x:
            yield from entries(v)
    else:
        yield x


def all_fractions(*tables) -> bool:
    """Every entry is a Fraction: not an int, and not a numpy scalar."""
    return all(type(x) is Fraction for t in tables for x in entries(t))


def rand_array(rng, shape, ints=False):
    """A nested tuple of small rationals (of Python ints when ``ints``)."""
    if not shape:
        v = rng.choice([0, 0, 1, -1, 2, -3])
        return v if ints else Fraction(v, rng.randint(1, 3))
    return tuple(rand_array(rng, shape[1:], ints) for _ in range(shape[0]))


def rand_matched_pair(rng, n, m, ints=False):
    return MatchedPair(
        StructureConstants(n, rand_array(rng, (n, n, n), ints)),
        StructureConstants(m, rand_array(rng, (m, m, m), ints)),
        rand_array(rng, (n, m, m), ints),
        rand_array(rng, (n, m, m), ints),
        rand_array(rng, (m, n, n), ints),
        rand_array(rng, (m, n, n), ints),
    )


BIALGEBRAS = ["dim2_bialgebra.json", "dim4_bialgebra.json"]
PRE_NOVIKOV = ["dim2_pre_novikov.json", "dim4_semidirect.json"]


@pytest.mark.parametrize("name", BIALGEBRAS)
def test_direct_sum_matches_loop_on_fixtures(name):
    mp = induced_matched_pair(load(name))
    got = direct_sum_product(mp)
    assert got == oracle.direct_sum_product(mp)
    assert all_fractions(got.c)


def test_direct_sum_matches_loop_on_random_pairs():
    rng = random.Random(11)
    for n, m in [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3)]:
        for ints in (False, True):
            mp = rand_matched_pair(rng, n, m, ints)
            got = direct_sum_product(mp)
            assert got == oracle.direct_sum_product(mp)
            assert all_fractions(got.c)


def verified_pre_reps():
    """Every verified pre-Novikov representation the fixtures give, with its
    algebra: the fixture rep, each adjoint quadruple, and their duals."""
    alg, rep = load("dim2_pre_rep.json")
    reps = [(alg, verify_pre_novikov_rep(rep))]
    for name in PRE_NOVIKOV:
        alg = load(name)
        reps.append((alg, adjoint_reps(alg)[1]))
    return reps + [(alg, dual_pre_novikov_rep(rep)) for alg, rep in reps]


def test_semidirect_matches_loop_on_fixtures():
    for alg, rep in verified_pre_reps():
        assert rep.verified
        n, m = alg.dim, rep.module_dim
        semi = semidirect_pre_novikov(alg, rep)
        assert semi.lhd == oracle.semidirect_table(n, m, alg.lhd, rep.l_lhd, rep.r_lhd)
        assert semi.rhd == oracle.semidirect_table(n, m, alg.rhd, rep.l_rhd, rep.r_rhd)
        assert all_fractions(semi.lhd.c, semi.rhd.c)


def test_semidirect_block_matches_loop_on_random_tables():
    rng = random.Random(12)
    for n, m in [(1, 2), (2, 1), (2, 2), (3, 2)]:
        for ints in (False, True):
            table = StructureConstants(n, rand_array(rng, (n, n, n), ints))
            lmaps, rmaps = rand_array(rng, (n, m, m), ints), rand_array(rng, (n, m, m), ints)
            got = direct_sum_table(n, m, {"o": table.c, "lA": lmaps, "rA": rmaps})
            assert got == oracle.semidirect_table(n, m, table, lmaps, rmaps)
            assert all_fractions(got.c)


def test_lifted_tensor_is_the_operator_block_and_its_flip():
    rng = random.Random(13)
    alg, rep, fixture_t = load("dim2_o_operator.json")
    for T in [fixture_t, rand_array(rng, (2, 2), ints=True), rand_array(rng, (2, 2))]:
        _, r = lift_o_operator(alg, rep, T)
        n = alg.dim
        want = tuple(
            tuple(
                T[i][j - n] if i < n <= j else T[j][i - n] if j < n <= i else 0
                for j in range(2 * n)
            )
            for i in range(2 * n)
        )
        assert r == want
        assert all_fractions(r)


def test_standard_form_entries_are_fractions():
    for n in (1, 2, 4):
        assert all_fractions(standard_form(n).w)


def test_dual_products_and_derived_ops_match_loops():
    rng = random.Random(14)
    for n in (1, 2, 3):
        for ints in (False, True):
            co = PreNovikovCoalgebra(n, rand_array(rng, (n, n, n), ints), rand_array(rng, (n, n, n), ints))
            got = coalgebra_to_dual_algebra(co)
            assert got == oracle.coalgebra_to_dual_algebra(co)
            assert all_fractions(got[0].c, got[1].c)
            lhd, rhd = got
            odot, star = (derived_table(name, PreNovikovAlgebra(lhd, rhd)) for name in ("(.)", "(*)"))
            idx = range(n)
            assert odot.c == tuple(tuple(tuple(
                rhd.c[i][j][k] + lhd.c[j][i][k] for k in idx) for j in idx) for i in idx)
            assert star.c == tuple(tuple(tuple(
                lhd.c[i][j][k] + rhd.c[i][j][k] + lhd.c[j][i][k] + rhd.c[j][i][k]
                for k in idx) for j in idx) for i in idx)


def bump(table: StructureConstants, i, j, k) -> StructureConstants:
    c = [[list(row) for row in plane] for plane in table.c]
    c[i][j][k] += 1
    return StructureConstants.from_rows(c)


@pytest.mark.parametrize("name", BIALGEBRAS)
def test_blocks_match_agrees_with_loop(name):
    bialg = load(name)
    n = bialg.algebra.dim
    stage = _induced(bialg)
    induced = pre_novikov_from_qf(direct_sum_product(induced_matched_pair(bialg)), standard_form(n))
    assert _blocks_match(bialg, stage, induced) and oracle.blocks_match(bialg, induced)
    # one entry in each kind of row: products within A, within A*, and mixed
    rows = [(0, n - 1), (n, 2 * n - 1), (0, n), (2 * n - 1, 0)]
    for i, j in rows:
        for k in (0, 2 * n - 1):
            for which in ("lhd", "rhd"):
                tables = {"lhd": induced.lhd, "rhd": induced.rhd}
                tables[which] = bump(tables[which], i, j, k)
                bent = PreNovikovAlgebra(tables["lhd"], tables["rhd"])
                verdict = _blocks_match(bialg, stage, bent)
                assert verdict == oracle.blocks_match(bialg, bent)
                assert verdict == ((i < n) != (j < n))  # mixed rows are unconstrained
    # a different coalgebra no longer matches the A* block
    co = bialg.coalgebra
    other = PreNovikovBialgebra(bialg.algebra, PreNovikovCoalgebra(n, co.beta, co.alpha))
    assert _blocks_match(other, _induced(other), induced) == oracle.blocks_match(other, induced)


def rand_matrix(rng, n, ints=False):
    return rand_array(rng, (n, n), ints)


def singular_matrix(rng, n):
    """A random matrix whose last row is a combination of the others."""
    rows = [list(r) for r in rand_matrix(rng, n)]
    coefs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n - 1)]
    rows[-1] = [sum((c * rows[i][j] for i, c in enumerate(coefs)), Fraction(0)) for j in range(n)]
    rng.shuffle(rows)
    return tuple(map(tuple, rows))


def test_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(15)
    for n in range(1, 9):
        for trial in range(10):
            m = rand_matrix(rng, n, ints=trial % 3 == 0)
            det = exact_det(m)
            assert det == oracle.fraction_det(m)
            assert type(det) is Fraction
            if det == 0:
                with pytest.raises(InputError, match="singular"):
                    mat_inverse(m)
                continue
            # the Fraction elimination divides ints into floats, so it gets
            # the matrix in Fractions
            exact = tuple(tuple(map(Fraction, row)) for row in m)
            inverse = mat_inverse(m)
            assert inverse == oracle.mat_inverse(exact)
            assert all_fractions(inverse)
            b = rand_array(rng, (n,))
            assert mat_vec(inverse, b) == oracle.solve_linear(exact, b)


def test_singular_matrices_are_refused():
    rng = random.Random(16)
    for n in range(2, 9):
        m = singular_matrix(rng, n)
        assert exact_det(m) == 0 == oracle.fraction_det(m)
        with pytest.raises(InputError, match="singular system"):
            mat_inverse(m)
    assert exact_det(()) == 1 and mat_inverse(()) == ()
    with pytest.raises(InputError, match="non-square"):
        exact_det(((Fraction(1), Fraction(2)),))
    with pytest.raises(InputError, match="non-square"):
        mat_inverse(((Fraction(1), Fraction(2)),))
