import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from prenovikov import (
    FormMatrix,
    PreNovikovAlgebra,
    RefusalError,
    associated_novikov,
    check_novikov,
    check_pre_novikov,
    check_quasi_frobenius,
    double_from_bialgebra,
    enumerate_dim2_pre_novikov,
    form_iso,
    pre_novikov_from_qf,
    standard_form,
)
from prenovikov.core import (
    Exact,
    InputError,
    InternalCheckError,
    StructureConstants,
    evaluate,
    sum_batched,
)
from prenovikov import algebras, core, labels, representations

from conftest import conjugate_table, derived_table, rand_invertible, table
from enumeration_oracle import enumerate_pairs
from tensor_reference import basis_vec, mat_identity, product

F = Fraction


def test_check_novikov_fixture_and_zero(alg2):
    circ = derived_table("o", alg2)
    assert check_novikov(circ).passed
    assert check_novikov(StructureConstants.zero(3)).passed


def _brute_novikov_violations(op):
    """Independent brute-force evaluation of both identities."""
    n = op.dim
    e, c = [basis_vec(n, i) for i in range(n)], op.c
    bad = set()
    for i, j, k in itertools.product(range(n), repeat=3):
        ab = product(c, e[i], e[j])
        lhs1 = tuple(
            x - y
            for x, y in zip(product(c, ab, e[k]), product(c, e[i], product(c, e[j], e[k])))
        )
        ba = product(c, e[j], e[i])
        rhs1 = tuple(
            x - y
            for x, y in zip(product(c, ba, e[k]), product(c, e[j], product(c, e[i], e[k])))
        )
        if lhs1 != rhs1:
            bad.add(("2.1", (i, j, k)))
        if product(c, ab, e[k]) != product(c, product(c, e[i], e[k]), e[j]):
            bad.add(("2.2", (i, j, k)))
    return bad


def test_check_novikov_mutated_table_matches_brute_force():
    op = table([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])  # e1oe1=e2, e2oe1=e1
    report = check_novikov(op)
    assert not report.passed
    got = {(v.identity, v.witness_index) for v in report.violations}
    assert got == _brute_novikov_violations(op)
    assert got  # nonempty


def test_check_pre_novikov_examples(alg2):
    assert check_pre_novikov(alg2.lhd, alg2.rhd).passed
    assert check_pre_novikov(StructureConstants.zero(2), StructureConstants.zero(2)).passed
    bad_rhd = table([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])  # e1>e1 = e1
    report = check_pre_novikov(alg2.lhd, bad_rhd)
    assert not report.passed
    with pytest.raises(InputError):
        check_pre_novikov(alg2.lhd, StructureConstants.zero(3))


def test_associated_novikov(alg2):
    nov = associated_novikov(alg2)
    expect = table([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert nov.op == expect
    zero = PreNovikovAlgebra(StructureConstants.zero(2), StructureConstants.zero(2))
    assert associated_novikov(zero).op.is_zero()
    bad = PreNovikovAlgebra(alg2.lhd, table([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    with pytest.raises(RefusalError) as err:
        associated_novikov(bad)
    assert err.value.report is not None and not err.value.report.passed


def test_associated_novikov_dim4(alg4):
    nov = associated_novikov(alg4)
    # e1 o e1* = e1 > e1* + e1 < e1* = -2 e1* + e1* = -e1*
    assert nov.op.c[0][2] == (F(0), F(0), F(-1), F(0))


def _derived_ops(alg):
    """The products (.) and (*) that ``derive`` writes, from its one call."""
    _, parts = representations._derive(alg)
    return tuple(StructureConstants(alg.dim, parts[name]) for name in ("odot", "star"))


def test_derived_ops(alg2):
    odot, star = _derived_ops(alg2)
    # e1 (.) e1 = e1>e1 + e1<e1 = e1
    assert odot.c[0][0] == (F(1), F(0))
    n = alg2.dim
    for i in range(n):
        for j in range(n):
            assert star.c[i][j] == star.c[j][i]
    zero = PreNovikovAlgebra(StructureConstants.zero(2), StructureConstants.zero(2))
    odot0, star0 = _derived_ops(zero)
    assert odot0.is_zero() and star0.is_zero()


def test_derived_odot_is_rhd_plus_flipped_lhd(alg4):
    odot, _ = _derived_ops(alg4)
    n = alg4.dim
    for i in range(n):
        for j in range(n):
            assert odot.c[i][j] == tuple(
                a + b for a, b in zip(alg4.rhd.c[i][j], alg4.lhd.c[j][i])
            )


def test_check_quasi_frobenius(bialg2):
    double = double_from_bialgebra(bialg2)
    assert check_quasi_frobenius(double.algebra.op, double.form).passed
    zero_form = FormMatrix(4, tuple((F(0),) * 4 for _ in range(4)))
    rep = check_quasi_frobenius(double.algebra.op, zero_form)
    assert not rep.passed
    assert any(v.identity == "nondegenerate" for v in rep.violations)
    ident = FormMatrix(4, mat_identity(4))
    rep = check_quasi_frobenius(double.algebra.op, ident)
    assert any(v.identity == "skew" for v in rep.violations)
    with pytest.raises(InputError):
        check_quasi_frobenius(double.algebra.op, FormMatrix(2, mat_identity(2)))


def test_form_iso_defining_relation():
    w = standard_form(2)
    t = form_iso(w)
    wm = FormMatrix(4, w.w)
    for j in range(4):
        tf = tuple(row[j] for row in t)
        for a in range(4):
            assert wm.pair(tf, basis_vec(4, a)) == (F(1) if a == j else F(0))
    w2 = FormMatrix(2, ((F(0), F(1)), (F(-1), F(0))))
    t2m = form_iso(w2)
    for j in range(2):
        tf = tuple(row[j] for row in t2m)
        for a in range(2):
            assert w2.pair(tf, basis_vec(2, a)) == (F(1) if a == j else F(0))
    with pytest.raises(InputError):
        form_iso(FormMatrix(2, ((F(0), F(0)), (F(0), F(0)))))


def test_pre_novikov_from_qf_on_double(bialg2, alg2, co2):
    double = double_from_bialgebra(bialg2)
    induced = pre_novikov_from_qf(double.algebra.op, double.form)
    assert check_pre_novikov(induced.lhd, induced.rhd).passed
    assert derived_table("o", induced) == double.algebra.op
    # restriction to the first block reproduces the input products
    n = 2
    for i in range(n):
        for j in range(n):
            for k in range(2 * n):
                want_l = alg2.lhd.c[i][j][k] if k < n else F(0)
                want_r = alg2.rhd.c[i][j][k] if k < n else F(0)
                assert induced.lhd.c[i][j][k] == want_l
                assert induced.rhd.c[i][j][k] == want_r


def test_split_qf_dual_transport_routes():
    """The dual-transport products a>b = T((Lo* + Ro*)(a) T^{-1} b) and
    a<b = T((-Ro*)(b) T^{-1} a) against the split's specs (``_SPLIT``, the
    values of ``_qf_stage``), on random o, w and T with no relation between
    them: the < routes are one sum after renaming letters, and the > routes
    agree exactly when w is skew."""
    rng = np.random.default_rng(14)
    direct = algebras._SPLIT
    transport = {
        ">": [(-1, "ty,ixy,jx->ijt", ("T", "Lo+Ro", "w"))],
        "<": [(1, "ty,jxy,ix->ijt", ("T", "Ro", "w"))],
    }
    differs = []
    for n in (2, 3):
        for _ in range(20):
            o, w, T = (Exact(rng.integers(-2, 3, size=shape), int(rng.integers(1, 4)))
                       for shape in ((n, n, n), (n, n), (n, n)))
            skew = Exact(w.num - w.num.T, w.den)
            for form, is_skew in ((skew, True), (w, w.T == Exact(-w.num, w.den))):
                tables = {"o": o, "w": form, "T": T}
                got, want = evaluate(direct, tables), evaluate(transport, tables)
                assert got["<"] == want["<"]
                if is_skew:
                    assert got[">"] == want[">"]
                else:
                    differs.append(got[">"] != want[">"])
    assert any(differs)


def test_split_qf_evaluates_two_specs(monkeypatch, bialg2):
    """The split products are the two values of the ``_qf_stage`` call; the
    checks that they sum to o and are pre-Novikov are one more call,
    ``_split_qf``'s, whose one value is o."""
    double = double_from_bialgebra(bialg2)
    calls = []
    spy = algebras.verify
    monkeypatch.setattr(algebras, "verify", lambda tree, tables: calls.append(sorted(tree.values)) or spy(tree, tables))
    stage = algebras._qf_stage(double.algebra.op, double.form, double.labels)
    algebras._split_qf(double.algebra.op, stage)
    assert calls == [["<", ">"], ["o"]]


def test_pre_novikov_from_qf_zero_algebra():
    w = standard_form(1)
    out = pre_novikov_from_qf(StructureConstants.zero(2), w)
    assert out.lhd.is_zero() and out.rhd.is_zero()


def test_pre_novikov_from_qf_refuses_non_qf(alg2):
    circ = derived_table("o", alg2)
    w = FormMatrix(2, ((F(0), F(1)), (F(-1), F(0))))
    rep = check_quasi_frobenius(circ, w)
    if rep.passed:  # pragma: no cover - fixture sanity
        pytest.skip("unexpectedly quasi-Frobenius")
    with pytest.raises(RefusalError):
        pre_novikov_from_qf(circ, w)


def test_verdicts_invariant_under_basis_change(alg2):
    rng = random.Random(11)
    circ = derived_table("o", alg2)
    bad = table([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    for _ in range(6):
        p = rand_invertible(rng, 2)
        assert check_novikov(conjugate_table(circ, p)).passed
        assert not check_novikov(conjugate_table(bad, p)).passed
        assert check_pre_novikov(
            conjugate_table(alg2.lhd, p), conjugate_table(alg2.rhd, p)
        ).passed


def test_enumeration_value_set_dedup_and_cap(monkeypatch):
    zero = PreNovikovAlgebra(StructureConstants.zero(2), StructureConstants.zero(2))
    assert enumerate_dim2_pre_novikov((0, 0)) == [zero]
    assert enumerate_dim2_pre_novikov((1, 0, F(1), 0)) == enumerate_dim2_pre_novikov((0, 1))
    with pytest.raises(InputError, match="nonempty"):
        enumerate_dim2_pre_novikov([])

    def no_tables(values):
        raise AssertionError("tables allocated before the cap was checked")

    monkeypatch.setattr(algebras, "_int_tables", no_tables)
    with pytest.raises(InputError, match="beyond the limit"):
        enumerate_dim2_pre_novikov(range(5))
    assert len(range(5)) ** 8 > algebras.ENUM_TABLE_LIMIT


def test_enumeration_values_are_exact_scalars():
    """Each value goes through ``core.frac``: a float, a bool (numpy's too)
    or an unparsable string is refused, and a string or a numpy integer is
    read as its integer."""
    for values in ((0.5, 0), (True, False), ("x",), np.array([True, False])):
        with pytest.raises(InputError, match="not an exact scalar"):
            enumerate_dim2_pre_novikov(values)
    assert enumerate_dim2_pre_novikov(("0", "1")) == enumerate_dim2_pre_novikov((0, 1))
    assert enumerate_dim2_pre_novikov(np.array([0, 1])) == enumerate_dim2_pre_novikov((0, 1))
    assert len(enumerate_dim2_pre_novikov(np.array([0, 1]))) == 42


def test_enumeration_refuses_a_text_or_a_non_collection_of_values():
    """A str or bytes is not read one character at a time ("101" would be
    the (0, 1) enumeration), and a bare number is an input error, not a
    ``TypeError``; a list of strings is still read value by value."""
    for values in ("101", b"01", "-1", 5, F(1), None):
        with pytest.raises(InputError, match="enumeration values must be a collection of exact scalars"):
            enumerate_dim2_pre_novikov(values)
    assert enumerate_dim2_pre_novikov(["1", "0", 1]) == enumerate_dim2_pre_novikov((0, 1))


def test_enumeration_is_memoized_per_value_set():
    first = enumerate_dim2_pre_novikov((0, 1))
    hits = algebras._enumerate.cache_info().hits
    again = enumerate_dim2_pre_novikov((1, 0, F(1)))
    assert algebras._enumerate.cache_info().hits == hits + 1
    assert again == first and again is not first
    again.clear()
    assert enumerate_dim2_pre_novikov((0, 1)) == first


def test_enumeration_beyond_int64_runs_on_python_ints():
    """Every identity is homogeneous of degree 2, so scaling the values by
    2**40 scales the solutions; their products no longer fit in int64."""
    big = 2**40

    def scaled(op):
        return StructureConstants(2, tuple(
            tuple(tuple(v * big for v in row) for row in plane) for plane in op.c))

    small = enumerate_dim2_pre_novikov((0, 1))
    assert len(small) == 42
    want = [PreNovikovAlgebra(scaled(a.lhd), scaled(a.rhd)) for a in small]
    assert enumerate_dim2_pre_novikov((0, big)) == want


def test_enumeration_stage_2_stays_within_the_byte_budget(monkeypatch):
    """Stage 2 on Python ints: with -2**40, 0, 2**40 no array that
    ``_row_pairs`` makes through the kernel (each its einsums and matrix
    products return or its kernel calls yield, int objects counted) passes
    ``core.BATCH_BYTES``, though its first block is sized at 8 bytes an
    entry; its slices run in shorter chunks, and 2.9 runs once per block,
    on each < table of stage 1 once: three blocks.  The 257 algebras of -1,
    0, 1 come back scaled, in the same order."""
    big, sizes, inside, members = 2**40, [], [], []
    einsum, matmul, run, row_pairs = np.einsum, np.matmul, core._Program.run, algebras._row_pairs
    batched = algebras.sum_batched

    def measured(array):
        if inside and isinstance(array, np.ndarray):
            sizes.append(array.nbytes + (sum(map(sys.getsizeof, array.ravel().tolist()))
                                         if array.dtype == object else 0))
        return array

    def recorded(self, *args):
        for key, num, deg in run(self, *args):
            yield key, measured(num), deg

    def stage_2(*args):
        inside.append(1)
        try:
            return row_pairs(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(core._Program, "run", recorded)
    def counted(specs, arrays, *args, **kwargs):
        if "2.9" in specs:
            members.append(len(arrays["<"]))
        return batched(specs, arrays, *args, **kwargs)

    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: measured(einsum(*args, **kwargs)))
    monkeypatch.setattr(np, "matmul", lambda *args: measured(matmul(*args)))
    monkeypatch.setattr(algebras, "_row_pairs", stage_2)
    monkeypatch.setattr(algebras, "sum_batched", counted)
    algebras._enumerate.cache_clear()
    got = enumerate_dim2_pre_novikov((-big, 0, big))
    assert core.BATCH_BYTES / 2 < max(sizes) <= core.BATCH_BYTES
    lhd_ok = 817  # < tables passing 2.11, 2 * 5 probe members each
    assert len(members) == 3 and sum(members) == 10 * lhd_ok
    want = enumerate_dim2_pre_novikov((-1, 0, 1))
    assert len(want) == 257
    assert got == [PreNovikovAlgebra(*(StructureConstants(2, Exact(op.table.num * big)) for op in (a.lhd, a.rhd)))
                   for a in want]


def test_enumeration_includes_fixture_and_agrees_with_checker(alg2):
    algs = enumerate_dim2_pre_novikov()
    assert alg2 in algs
    assert len(algs) == len(set(algs))
    # spot-check: a handful of random non-members really fail
    rng = random.Random(13)
    members = set(algs)
    rejected = 0
    while rejected < 10:
        lhd = table([[[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)] for _ in range(2)])
        rhd = table([[[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)] for _ in range(2)])
        cand = PreNovikovAlgebra(lhd, rhd)
        if cand in members:
            continue
        assert not check_pre_novikov(lhd, rhd).passed
        rejected += 1


@pytest.mark.parametrize("values", [(-1, 0, 1), (0, 1), (-1, 1), (0, 2), (0, 2**40)])
def test_enumeration_matches_full_pair_sweep(kernel_sums, values):
    """Same algebras in the same order as the sweep over every (<, >) pair;
    the kernel evaluates each of 2.8-2.11 on Python-int object arrays for
    (0, 2**40) and in int64 for the other value sets."""
    got = list(algebras._enumerate.__wrapped__(values))
    dtypes = {}
    for terms, _, dtype in kernel_sums:
        for code in labels.PRE_NOVIKOV:
            if terms == tuple(labels.SPECS[code][1]):
                dtypes.setdefault(code, set()).add(dtype)
    want = np.dtype(np.int64 if values != (0, 2**40) else object)
    assert dtypes == {code: {want} for code in labels.PRE_NOVIKOV}
    assert got == enumerate_dim2_pre_novikov(values) == list(enumerate_pairs(values))


def test_enumeration_in_one_member_chunks(monkeypatch):
    """A 1-byte batch budget, which makes every chunk of stages 1 and 3 and of
    the re-verification one member long and every stage-2 block one < table,
    gives the same algebras in the same order."""
    want = enumerate_dim2_pre_novikov((0, 1))
    monkeypatch.setattr(core, "BATCH_BYTES", 1)
    assert list(algebras._enumerate.__wrapped__((0, 1))) == want


@pytest.mark.parametrize("n", [2, 3])
def test_identity_2_9_witness_i_reads_only_row_i_of_rhd(n):
    """The premise of the row-by-row enumeration: the witness-i slice of the
    2.9 residual does not move when the other rows of > (and so of o) do."""
    rng = np.random.default_rng(29 + n)
    terms = labels.SPECS["2.9"][1]

    def residual(lhd, rhd):
        return sum_batched({"": terms}, {"<": lhd, ">": rhd})[""]

    moved_elsewhere = 0
    for _ in range(20):
        lhd, rhd = rng.integers(-3, 4, (2, n, n, n))
        res = residual(lhd, rhd)
        for i in range(n):
            other = rng.integers(-3, 4, (n, n, n))
            other[i] = rhd[i]
            changed = residual(lhd, other)
            assert np.array_equal(changed[i], res[i])
            moved_elsewhere += not np.array_equal(changed, res)
    assert moved_elsewhere  # the other slices do read the other rows


def test_enumeration_checks_2_10_and_2_8_on_the_2_9_pairs_only(kernel_sums):
    assert len(algebras._enumerate.__wrapped__((-1, 0, 1))) == 257
    sizes = {code: 0 for code in labels.PRE_NOVIKOV}
    for terms, shapes, _ in kernel_sums:  # a sum refused over the byte budget counts nothing
        for code in labels.PRE_NOVIKOV:
            sizes[code] += shapes["<"][0] if terms == tuple(labels.SPECS[code][1]) else 0
    assert sizes["2.11"] == 3**8
    assert sizes["2.9"] <= 2 * 817 * 3**4
    assert sizes["2.8"] <= sizes["2.10"] <= 8_041


def test_identity_2_8_is_not_implied_by_the_other_three():
    """Why stage 3 keeps its 2.8 filter: at dim 3, < = 0 with e1>e2 = e3 and
    e2>e3 = e3 satisfies 2.9-2.11 and fails 2.8 alone."""
    rhd = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    rhd[0][1][2] = rhd[1][2][2] = 1
    report = check_pre_novikov(StructureConstants.zero(3), table(rhd))
    assert {v.identity for v in report.violations} == {"2.8"}


def test_enumeration_reverification_catches_a_planted_pair(monkeypatch):
    """A stage 3 that passes every 2.9 pair, most of which fail 2.8, is caught
    by the regular-quadruple re-verification.  (On these pairs 2.10 already
    implies 2.8, so stage 3 must skip both filters to let a 2.8 failure
    through.)"""
    sweep = core.zero_members

    def planted(specs, size, members, fixed=None, keep=1):
        for arrays, ok in sweep(specs, size, members, fixed, keep):
            yield arrays, np.ones_like(ok) if {"2.10", "2.8"} & set(specs) else ok

    monkeypatch.setattr(core, "zero_members", planted)  # through core.zero_mask
    monkeypatch.setattr(algebras, "zero_members", planted)
    with pytest.raises(InternalCheckError, match="regular quadruple"):
        algebras._enumerate.__wrapped__((-1, 0, 1))


def _random_pairs(rng, n, count):
    return [tuple(rng.choice([-1, 0, 0, 1], size=(n, n, n)) for _ in "<>") for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3])
def test_regular_quadruple_verdict_matches_the_checker(n):
    """Seeded differential test of the enumeration's second route on mostly
    failing pairs: random tables, and one-entry mutations of pre-Novikov
    pairs (enumerated ones, padded by a zero row and column at dim 3)."""
    rng = np.random.default_rng(18 + n)
    valid = [(np.array(a.lhd.c, dtype=np.int64), np.array(a.rhd.c, dtype=np.int64))
             for a in enumerate_dim2_pre_novikov()[::8]]
    valid = [tuple(np.pad(t, (0, n - 2)) for t in pair) for pair in valid]
    mutants = []
    for lhd, rhd in valid:
        lhd, rhd = lhd.copy(), rhd.copy()
        (lhd, rhd)[rng.integers(2)][tuple(rng.integers(n, size=3))] += 1
        mutants.append((lhd, rhd))
    pairs = valid + mutants + _random_pairs(rng, n, 60)
    lhd, rhd = (np.stack(tables) for tables in zip(*pairs))
    got = algebras._regular_quadruple_ok(lhd, rhd)
    want = [check_pre_novikov(table(a.tolist()), table(b.tolist())).passed for a, b in pairs]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def test_enumeration_over_four_values():
    """(-2,-1,0,1) gives 548 algebras in lexicographic order, every one a
    pre-Novikov pair, and contains the sweeps over its subsets."""
    algs = enumerate_dim2_pre_novikov((-2, -1, 0, 1))
    assert len(algs) == 548
    keys = [(a.lhd.c, a.rhd.c) for a in algs]
    assert keys == sorted(keys) and len(set(keys)) == 548
    assert all(check_pre_novikov(a.lhd, a.rhd).passed for a in algs)
    for values in [(-1, 0, 1), (-2, 0), (-2, 1)]:
        assert set(enumerate_dim2_pre_novikov(values)) <= set(algs)
