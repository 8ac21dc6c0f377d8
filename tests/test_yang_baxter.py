import importlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from prenovikov import (
    PreNovikovAlgebra,
    PreNovikovCoalgebra,
    RefusalError,
    adjoint_reps,
    associated_novikov,
    bialgebra_from_r,
    check_bialgebra,
    check_o_operator_novikov,
    check_o_operator_pre_novikov,
    check_pre_novikov,
    co2_equivalence,
    enumerate_dim2_pre_novikov,
    coboundary_diagnostics,
    coboundary_maps,
    dual_novikov_rep,
    form_iso,
    lift_o_operator,
    novikov_adjoint_rep,
    o_operator_novikov,
    o_operator_pre_novikov,
    pre_novikov_from_o,
    search_symmetric_ybe,
    t_r_from_tensor,
    ybe_residual,
)
from prenovikov.core import (
    INT64_MAX,
    Exact,
    InputError,
    InternalCheckError,
    StructureConstants,
    evaluate,
    t3_is_zero,
)
from prenovikov import core, labels, yang_baxter
from prenovikov.io import bundle_to_objects, parse_bundle

from conftest import FIXTURES, conjugate_table, rand_invertible, rand_symmetric
from kernel_reference import derive, overflow_bound, reference
from search_oracles import search_exact, search_int64, upper_positions
from tensor_reference import (
    basis_vec, left_matrix, mat_add, mat_identity, right_matrix, t2, t2_apply_left, t2_apply_right, t2_scale,
    t2_sub, zeros,
)

F = Fraction


def _single(n, i, j, v=1):
    rows = [[F(0)] * n for _ in range(n)]
    rows[i][j] = F(v)
    return tuple(map(tuple, rows))


def test_ybe_residual_examples(alg2, alg4, sol4):
    assert t3_is_zero(ybe_residual(alg4, sol4))
    assert t3_is_zero(ybe_residual(alg2, zeros(2)))
    res = ybe_residual(alg2, _single(2, 0, 0))
    expected = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    expected[0][0][0] = F(1)
    assert res == tuple(tuple(map(tuple, p)) for p in expected)
    with pytest.raises(InputError):
        ybe_residual(alg2, zeros(3))


def test_coboundary_maps_values(alg4, sol4):
    co = coboundary_maps(alg4, sol4)
    nz_alpha = [
        (i, j, k, v)
        for i, t in enumerate(co.alpha)
        for j, row in enumerate(t)
        for k, v in enumerate(row)
        if v
    ]
    assert nz_alpha == [(3, 2, 2, F(2))]  # alpha(e2*) = 2 e1* (x) e1*
    assert all(not v for t in co.beta for row in t for v in row)  # beta = 0


def test_coboundary_maps_zero_and_transcription(alg4):
    co = coboundary_maps(alg4, zeros(4))
    assert all(not v for t in co.alpha + co.beta for row in t for v in row)
    # beta(a) always equals -(L>(a)(x)id + id(x)(Lo+Ro)(a)) r entrywise
    rng = random.Random(17)
    r = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(4)) for _ in range(4))
    co = coboundary_maps(alg4, r)
    circ = associated_novikov(alg4).op
    for i in range(4):
        a = basis_vec(4, i)
        expect = t2_scale(F(-1), t2_apply_left(left_matrix(alg4.rhd.c, a), r))
        expect = t2_sub(expect, t2_apply_right(mat_add(left_matrix(circ.c, a), right_matrix(circ.c, a)), r))
        assert co.beta[i] == expect


def test_claimed_beta_value_is_an_erratum(alg4, sol4):
    """The explicit nonzero beta(e1) sometimes quoted for this construction
    fails the bialgebra compatibility check; the coboundary formulas give
    beta = 0, which passes.  Pinned so the convention cannot silently drift."""
    co = coboundary_maps(alg4, sol4)
    assert check_bialgebra(alg4, co).passed
    claimed = [list(map(list, t)) for t in co.beta]
    claimed[0][1][2] = F(-1)  # beta(e1) = -e2 (x) e1*
    bad = PreNovikovCoalgebra(4, co.alpha, tuple(tuple(map(tuple, t)) for t in claimed))
    report = check_bialgebra(alg4, bad)
    assert not report.passed
    assert {"3.16", "3.18"} <= {v.identity for v in report.all_violations()}


def test_bialgebra_from_r(alg2, alg4, sol4):
    bi = bialgebra_from_r(alg4, sol4)
    assert bi.report is not None and bi.report.passed
    zero = bialgebra_from_r(alg2, zeros(2))
    assert zero.report.passed
    with pytest.raises(RefusalError, match="symmetric"):
        bialgebra_from_r(alg2, _single(2, 0, 1))
    with pytest.raises(RefusalError, match="residual"):
        bialgebra_from_r(alg2, _single(2, 0, 0))


def test_diagnostics_symmetric_collapse_and_solutions(alg2, alg4, sol4):
    rng = random.Random(31)
    for _ in range(25):
        d = coboundary_diagnostics(alg2, rand_symmetric(rng, 2))
        assert d.conditions_zero()
    d4 = coboundary_diagnostics(alg4, sol4)
    assert d4.conditions_zero() and d4.equations_zero() and d4.r_tensors_zero()
    dz = coboundary_diagnostics(alg2, zeros(2))
    assert dz.conditions_zero() and dz.equations_zero() and dz.r_tensors_zero()


def test_diagnostics_report_views_are_the_reference_values():
    """``condition_residuals``, ``r_tensors`` and ``equation_residuals`` map
    4.3-4.6, the seven R-tensors and 4.7-4.10 to nested Fractions, each the
    Fraction reference's value (not all zero), on random tables and r."""
    rng = random.Random(7)
    alg = PreNovikovAlgebra(*(StructureConstants.from_rows(
        [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)] for _ in range(2)]) for _ in "<>"))
    r = ((F(1), F(2)), (F(-1), F(1, 2)))
    d = coboundary_diagnostics(alg, r)
    codes = labels.COBOUNDARY_CONDITIONS + labels.COBOUNDARY_EQUATIONS
    read = {m for code in codes for _, _, ns in labels.SPECS[code][1] for m in ns}
    tables = derive(sorted(read - {"r"}), {"<": alg.lhd.c, ">": alg.rhd.c, "r": r})
    sections = [(d.condition_residuals, labels.COBOUNDARY_CONDITIONS, labels.SPECS),
                (d.r_tensors, labels.R_TENSORS, labels.OPERANDS),
                (d.equation_residuals, labels.COBOUNDARY_EQUATIONS, labels.SPECS)]
    for got, keys, source in sections:
        assert tuple(got) == keys
        for key in keys:
            terms = source[key][1] if source is labels.SPECS else source[key]
            want = reference(terms, tables)
            assert {idx: np.array(got[key], dtype=object)[idx] for idx in want} == want
            assert any(want.values()), key


def test_diagnostics_asymmetric_not_collapsed(alg2):
    d = coboundary_diagnostics(alg2, _single(2, 0, 1))
    assert not d.conditions_zero()


def test_diagnostics_nonsolution_symmetric(alg2):
    d = coboundary_diagnostics(alg2, _single(2, 0, 0))
    assert d.conditions_zero()  # symmetric kills the operator conditions
    assert not d.r_tensors_zero()  # but the named tensors see the failure


def test_t_r_from_tensor(alg4, sol4):
    t = t_r_from_tensor(sol4)
    n = 4
    for i in range(n):
        for j in range(n):
            # <e_i* (x) e_j*, r> = <e_i*, T(e_j*)>
            assert sol4[i][j] == t[i][j]
    assert t_r_from_tensor(zeros(3)) == zeros(3)
    assert t_r_from_tensor(mat_identity(3)) == mat_identity(3)


def test_t_r_from_tensor_reads_a_parsed_tensor():
    """A parsed ``tensor2`` bundle's entries, an ``Exact`` array, are read as
    they are; ragged, non-square and empty tensors are refused."""
    entries = parse_bundle((FIXTURES / "dim4_ybe_solution.json").read_text()).data["entries"]
    assert isinstance(entries, core.Exact)
    assert t_r_from_tensor(entries) == entries.nested == t_r_from_tensor(entries.nested)
    for bad in (((F(1), F(2)), (F(3),)), ((F(1), F(2)),), (), core.Exact(np.zeros((2, 3), np.int64))):
        with pytest.raises(InputError):
            t_r_from_tensor(bad)


def test_check_o_operator_novikov(alg2, shift_t):
    nov = associated_novikov(alg2)
    nov_rep, _ = adjoint_reps(alg2)
    zero_t = zeros(2)
    assert check_o_operator_novikov(nov, nov_rep, zero_t).passed
    assert check_o_operator_novikov(nov, nov_rep, shift_t).passed
    adj = novikov_adjoint_rep(nov)
    report = check_o_operator_novikov(nov, adj, mat_identity(2))
    assert not report.passed
    first = report.violations[0]
    assert first.witness == ("v1", "v1") and first.residual == ("-1", "0")


def test_check_o_operator_pre_novikov(alg2, shift_t):
    _, pre = adjoint_reps(alg2)
    assert check_o_operator_pre_novikov(alg2, pre, shift_t).passed
    assert check_o_operator_pre_novikov(alg2, pre, zeros(2)).passed
    report = check_o_operator_pre_novikov(alg2, pre, mat_identity(2))
    assert not report.passed
    assert "4.30" in {v.identity for v in report.violations}


def test_pre_novikov_from_o(alg2, shift_t):
    nov = associated_novikov(alg2)
    nov_rep, _ = adjoint_reps(alg2)
    oop = o_operator_novikov(nov, nov_rep, shift_t)
    out = pre_novikov_from_o(nov, nov_rep, oop)
    assert check_pre_novikov(out.lhd, out.rhd).passed
    # only nonzero product: e1 < e1 = e2
    nz = [
        (w, i, j, k)
        for w, tbl in (("lhd", out.lhd), ("rhd", out.rhd))
        for i in range(2)
        for j in range(2)
        for k in range(2)
        if tbl.c[i][j][k]
    ]
    assert nz == [("lhd", 0, 0, 1)]
    zero_op = o_operator_novikov(nov, nov_rep, zeros(2))
    z = pre_novikov_from_o(nov, nov_rep, zero_op)
    assert z.lhd.is_zero() and z.rhd.is_zero()


def test_o_operator_pre_novikov_certifies_or_refuses(alg2, shift_t):
    """The shift T is an operator of the adjoint quadruple and is certified,
    with its flavor and representation; the identity fails 4.30 and is
    refused with its report, and a pre-Novikov operator transports
    nothing."""
    nov_rep, pre_rep = adjoint_reps(alg2)
    oop = o_operator_pre_novikov(alg2, pre_rep, shift_t)
    assert (oop.t, oop.flavor, oop.rep, oop.verified) == (shift_t, "pre_novikov", pre_rep, True)
    with pytest.raises(RefusalError, match="^not an O-operator for this representation$") as refused:
        o_operator_pre_novikov(alg2, pre_rep, mat_identity(2))
    assert refused.value.report.name == "o_operator_pre_novikov"
    assert "4.30" in {v.identity for v in refused.value.report.violations}
    with pytest.raises(RefusalError, match="Novikov-flavor"):
        pre_novikov_from_o(nov_rep.algebra, nov_rep, oop)


def test_pre_novikov_from_o_refusals(alg2, shift_t):
    nov = associated_novikov(alg2)
    nov_rep, _ = adjoint_reps(alg2)
    adj = novikov_adjoint_rep(nov)
    with pytest.raises(RefusalError):
        o_operator_novikov(nov, adj, mat_identity(2))
    oop = o_operator_novikov(nov, nov_rep, shift_t)
    with pytest.raises(InputError):
        pre_novikov_from_o(nov, adj, oop)


def test_pre_novikov_from_o_builds_no_nested_view(monkeypatch):
    """``pre_novikov_from_o`` compares the operator's representation with the
    one it is given on their held ``Exact`` tables: on the ``dim2_rep.json``
    representation and the ``dim2_shift_t.json`` operator it builds no
    nested Fraction view, for the same representation and for the adjoint
    one it refuses."""
    alg, rep = bundle_to_objects(parse_bundle((FIXTURES / "dim2_rep.json").read_text()))
    oop = o_operator_novikov(alg, rep, parse_bundle((FIXTURES / "dim2_shift_t.json").read_text()).data["entries"])
    adj = novikov_adjoint_rep(alg)
    views, nested_fractions = [], core.nested_fractions
    monkeypatch.setattr(core, "nested_fractions", lambda *args: views.append(args[0].shape) or nested_fractions(*args))
    assert not pre_novikov_from_o(alg, rep, oop).lhd.is_zero()
    with pytest.raises(InputError, match="different representation"):
        pre_novikov_from_o(alg, adj, oop)
    assert views == []


def test_form_iso_is_o_operator_for_dual_rep(bialg2=None):
    """The inverse-transpose of a quasi-Frobenius form, seen as a map from the
    dual, intertwines the product with the dual adjoint actions: the route
    used to build the compatible splitting really is operator transport."""
    from prenovikov import double_from_bialgebra
    mk = t2

    lhd = StructureConstants.from_rows([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    alg = PreNovikovAlgebra(lhd, StructureConstants.zero(2))
    alpha = (mk([[0, 0], [0, 1]]), zeros(2))
    beta = (mk([[0, 0], [0, -1]]), zeros(2))
    from prenovikov import PreNovikovBialgebra

    double = double_from_bialgebra(PreNovikovBialgebra(alg, PreNovikovCoalgebra(2, alpha, beta)))
    T = form_iso(double.form)
    adj = novikov_adjoint_rep(double.algebra)
    dual = dual_novikov_rep(adj)
    assert check_o_operator_novikov(double.algebra, dual, T).passed


def test_co2_equivalence(alg2, alg4, sol4):
    assert co2_equivalence(alg4, sol4) == (True, True, True)
    assert co2_equivalence(alg2, zeros(2)) == (True, True, True)
    assert co2_equivalence(alg2, _single(2, 0, 0)) == (False, False, False)
    with pytest.raises(InputError):
        co2_equivalence(alg2, _single(2, 0, 1))


def test_lift_o_operator(alg2, shift_t, alg4, sol4):
    _, pre = adjoint_reps(alg2)
    semi, r = lift_o_operator(alg2, pre, shift_t)
    assert semi == alg4 and r == sol4
    semi0, r0 = lift_o_operator(alg2, pre, zeros(2))
    assert all(not v for row in r0 for v in row)
    assert t3_is_zero(ybe_residual(semi0, r0))
    # identity is not an operator; the biconditional must hold on the negative side
    semi_bad, r_bad = lift_o_operator(alg2, pre, mat_identity(2))
    assert not t3_is_zero(ybe_residual(semi_bad, r_bad))
    assert not check_o_operator_pre_novikov(alg2, pre, mat_identity(2)).passed


def test_search_examples(alg2, alg4, sol4):
    assert search_symmetric_ybe(alg2, [F(0)]) == [zeros(2)]
    sols = search_symmetric_ybe(alg2, [-1, 0, 1])
    assert zeros(2) in sols
    for s in sols:
        neg = tuple(tuple(-v for v in row) for row in s)
        assert neg in sols
    sols01 = search_symmetric_ybe(alg4, [0, 1])
    assert sol4 in sols01


def test_search_ordering_budget_and_fallback(alg2):
    sols = search_symmetric_ybe(alg2, [-1, 0, 1])
    keys = [tuple(s[i][j] for i, j in upper_positions(2)) for s in sols]
    assert keys == sorted(keys)
    with pytest.raises(InputError, match="candidates"):
        search_symmetric_ybe(alg2, [-1, 0, 1], max_candidates=10)
    exact = search_exact(alg2, [-1, 0, 1])
    assert sorted(exact) == sorted(sols)
    with pytest.raises(InputError):
        search_symmetric_ybe(alg2, [])


def test_search_values_are_exact_scalars(alg2):
    """Each value goes through ``core.frac``: a float, a bool (numpy's too)
    or an unparsable string is refused, a string is read as its rational,
    and a numpy integer as a Python int, so that lifting it to a common
    denominator cannot wrap around in int64."""
    for values in ([0.5, 0], [True, False], ["x"], np.array([True, False])):
        with pytest.raises(InputError, match="not an exact scalar"):
            search_symmetric_ybe(alg2, values)
    assert search_symmetric_ybe(alg2, ["-1/2", 0, "1/2"]) == search_symmetric_ybe(alg2, [F(-1, 2), 0, F(1, 2)])
    assert search_symmetric_ybe(alg2, np.arange(-1, 2)) == search_symmetric_ybe(alg2, [-1, 0, 1])
    assert search_symmetric_ybe(alg2, [np.int64(2**62), "1/4"]) == search_symmetric_ybe(alg2, [2**62, "1/4"])


def test_search_refuses_a_text_or_a_non_collection_of_values(alg2):
    """A str or bytes is not read one character at a time ("10" would search
    {0, 1}), and a bare number is an input error, not a ``TypeError``; a
    list of strings is still read value by value, and the space is counted
    over the distinct values."""
    zero = PreNovikovAlgebra(StructureConstants.zero(2), StructureConstants.zero(2))
    for values in ("10", b"10", "-1/2", 5, F(1, 2), None):
        with pytest.raises(InputError, match="value_set must be a collection of exact scalars"):
            search_symmetric_ybe(zero, values)
    assert search_symmetric_ybe(alg2, ["-1/2", 0]) == search_symmetric_ybe(alg2, [F(-1, 2), 0])
    assert len(search_symmetric_ybe(zero, [0, 1, "1", F(0)], max_candidates=8)) == 8


def test_search_with_fractional_values(alg2):
    sols = search_symmetric_ybe(alg2, [F(-1, 2), F(0), F(1, 2)])
    exact = search_exact(alg2, [F(-1, 2), F(0), F(1, 2)])
    assert sorted(sols) == sorted(exact)
    assert zeros(2) in sols


def test_search_chunks_bounded_in_bytes(monkeypatch, alg2):
    """Chunks of one candidate each, in the row search and in the
    re-verification, give the same solutions as the default byte budget.
    (A row chunk's batched operands are the cuts of r its boxes read.)"""
    alg3 = _block_diagonal_dim3(alg2)
    sols = search_symmetric_ybe(alg3, [-1, 0, 1])
    lengths = {"r": [], "T": []}
    sweep = core.zero_members

    def recorded(specs, size, members, fixed=None):
        for arrays, ok in sweep(specs, size, members, fixed):
            (name,) = {key[0] for key in arrays}
            lengths[name].append(len(ok))
            yield arrays, ok

    monkeypatch.setattr(core, "zero_members", recorded)  # the re-verification's
    monkeypatch.setattr(yang_baxter, "zero_members", recorded)  # the row search's
    monkeypatch.setattr(core, "BATCH_BYTES", 1)
    assert search_symmetric_ybe(alg3, [-1, 0, 1]) == sols
    assert set(lengths["r"]) == {1}
    assert lengths["T"] == [1] * len(sols)


def _record_rows(monkeypatch) -> list:
    """Each search row from here on, as its 4.13 specs and the operands of
    its first candidate with the cut tables, recorded by wrapping the row
    search's ``zero_members`` (the re-verification's is ``core``'s)."""
    rows, sweep = [], yang_baxter.zero_members

    def recorded(specs, size, members, fixed=None):
        rows.append((specs, {**fixed, **members(0, 1)}))
        yield from sweep(specs, size, members, fixed)

    monkeypatch.setattr(yang_baxter, "zero_members", recorded)
    return rows


def _entries(rows) -> list:
    """The residual entries each recorded row tests per candidate."""
    return [sum(res.size for res in core.sum_batched(specs, arrays, {n for n in arrays if n[0] == "r"}).values())
            for specs, arrays in rows]


def test_search_first_chunks_fit_the_program_peak(monkeypatch):
    """On the dim-4 zero algebra with -1, 0, 1 every candidate survives, and
    each row's first chunk is sized from the peak per member of its 4.13
    program: no chunk is rebuilt shorter, and the chunks past a row's first
    keep its length.  Row k evaluates only the two boxes of its shell, and
    its largest array, a pairwise step over one new witness, holds 4(k+1)
    entries per member: no row reaches the 4**3 of the whole residual."""
    runs = []
    run = core._Program.run

    def recorded(self, arrays, maxabs, budget=0):
        if budget:
            runs.append([self.peak, len(arrays[self.batch[0]]), "rebuilt"])
        yield from run(self, arrays, maxabs, budget)
        if budget:
            runs[-1][-1] = "ran"

    monkeypatch.setattr(core._Program, "run", recorded)
    zero = PreNovikovAlgebra(StructureConstants.zero(4), StructureConstants.zero(4))
    assert len(search_symmetric_ybe(zero, [-1, 0, 1])) == 3**10
    assert {state for *_, state in runs} == {"ran"}
    chunks, peaks = iter(runs), []
    for size in (3**4, 3**7, 3**9, 3**10):  # the candidates of rows 0-3
        peak, length, _ = next(chunks)
        peaks.append(peak)
        assert length == min(size, core.BATCH_BYTES // (8 * peak))
        size -= length
        while size:
            assert next(chunks)[:2] == [peak, min(size, length)]
            size -= min(size, length)
    assert peaks == [4 * (k + 1) for k in range(4)] and max(peaks) < 4**3


def _term_steps(program) -> list:
    """Per term of each sum of ``program``, the contraction steps that run
    before the step reading it into its sum (none when an earlier term
    computed its contraction)."""
    runs = []
    for steps, *_ in program.code:
        ops = []
        for _, _, _, op, _, _ in steps:
            if op is None:
                runs.append(ops)
                ops = []
            else:
                ops.append(op)
    return runs


def test_search_rows_follow_pairwise_paths_within_the_whole_peak(monkeypatch, alg4):
    """In a dim-4 search every batched three-operand 4.13 term of the row
    form ``labels.YBE_ROWS`` runs as the two pairwise steps of its path,
    each lowered to a matrix product (a ``core._lowered`` plan), on the cuts
    of each row's placed rows and tables that its boxes read; those steps
    run as ``np.matmul`` calls.  The program of each row peaks no higher
    than the 4.13 program on whole operands."""
    calls, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args: calls.append(1) or matmul(*args))
    rows = _record_rows(monkeypatch)
    assert search_symmetric_ybe(alg4, [-1, 0, 1])
    ints = yang_baxter._integer_tables(alg4)
    tables = {name: ints[name] for name in ("o", "(.)", "<")}
    r = np.zeros((5, 4, 4), dtype=np.int64)
    whole = core._compile({labels.YBE: labels.SPECS[labels.YBE][1]}, {**tables, "r": r}, {"r"}).peak
    assert len(rows) == 4
    lowered = 0
    for specs, arrays in rows:
        assert all(map(_row_form, specs.values()))
        program = core._compile(specs, arrays, {name for name in arrays if name[0] == "r"})
        runs = _term_steps(program)
        assert len(runs) == len(specs) * len(labels.YBE_ROWS) and {len(run) for run in runs} <= {0, 2}
        assert all(type(op) is tuple for run in runs for op in run) and any(runs)
        lowered += sum(map(len, runs))
        assert program.peak <= whole
    assert len(calls) >= lowered  # (a chunk or more per row)


def test_batched_ybe_takes_its_path_past_path_loop(monkeypatch, alg2):
    """A batched call runs each batched term along its planned path, from
    one program, whatever the batch length: a dim-2 4.13 term loops over
    2**5 index values per member, so 16 members stay within ``PATH_LOOP``
    and 17 pass it, and each of its three terms runs as two matrix
    products, with no einsum; every member equals its unbatched value."""
    ints = yang_baxter._integer_tables(alg2)
    fixed, spec = {name: ints[name] for name in ("o", "(.)", "<")}, {labels.YBE: labels.SPECS[labels.YBE][1]}
    calls, einsum, matmul = [], np.einsum, np.matmul
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append("einsum") or einsum(*args, **kwargs))
    monkeypatch.setattr(np, "matmul", lambda *args: calls.append("matmul") or matmul(*args))
    r = np.random.default_rng(13).integers(-2, 3, (64, 2, 2))
    for size in (1, 16, 17, 64):
        calls.clear()
        got = core.sum_batched(spec, {**fixed, "r": r[:size]}, batch={"r"})[labels.YBE]
        assert calls == ["matmul"] * 6
        for m in range(size):
            assert (got[m] == core.sum_batched(spec, {**fixed, "r": r[m]})[labels.YBE]).all()


def test_a_warm_batched_run_plans_nothing(monkeypatch, alg4):
    """A search on a warm cache of programs plans no contraction: it calls
    neither ``np.einsum_path`` nor ``np.einsum`` with ``optimize``, and its
    batched contractions run as ``np.matmul``."""
    search_symmetric_ybe(alg4, [-1, 0, 1])
    calls, einsum, einsum_path, matmul = [], np.einsum, np.einsum_path, np.matmul

    def spied(*args, **kwargs):
        calls.append("optimize" if "optimize" in kwargs else "einsum")
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spied)
    monkeypatch.setattr(np, "einsum_path", lambda *args, **kw: calls.append("einsum_path") or einsum_path(*args, **kw))
    monkeypatch.setattr(np, "matmul", lambda *args: calls.append("matmul") or matmul(*args))
    assert search_symmetric_ybe(alg4, [-1, 0, 1])
    assert "matmul" in calls and "optimize" not in calls and "einsum_path" not in calls


def test_a_second_dense_conjugate_compiles_no_program():
    """Programs are keyed by member shapes, not batch lengths: once a dense
    conjugate of the dim-4 semidirect fixture has been searched with -1, 0,
    1, another one, whose survivor counts give other chunk lengths, compiles
    no program."""
    semi = bundle_to_objects(parse_bundle((FIXTURES / "dim4_semidirect.json").read_text()))
    search_symmetric_ybe(_conjugate(semi, 1), [-1, 0, 1])
    misses = core._program.cache_info().misses
    search_symmetric_ybe(_conjugate(semi, 2), [-1, 0, 1])
    assert core._program.cache_info().misses == misses


@pytest.mark.parametrize("row", [1, 2])
def test_search_refuses_rows_beyond_the_survivor_bound(monkeypatch, row):
    """On the zero algebra every candidate survives: at dim 3 with -1,0,1
    row 1 keeps 3**3 = 27 candidates of one placed row, 3 int64 entries each
    (648 bytes), and row 2 keeps 3**5 = 243 of two rows (11,664 bytes).  A
    bound one byte short of a row's survivors refuses that row, by number,
    and no row before it."""
    zero = PreNovikovAlgebra(StructureConstants.zero(3), StructureConstants.zero(3))
    assert len(search_symmetric_ybe(zero, [-1, 0, 1])) == 3**6
    kept = {1: 3**3, 2: 3**5}[row]
    monkeypatch.setattr(yang_baxter, "SURVIVOR_BYTES", kept * row * 3 * 8 - 1)
    with pytest.raises(InputError, match=rf"search row {row} keeps {kept} candidates so far, beyond"):
        search_symmetric_ybe(zero, [-1, 0, 1])


def test_search_refuses_at_the_survivor_that_passes_the_bound(monkeypatch):
    """A row is refused at its first survivor past ``SURVIVOR_BYTES``,
    counted before its chunk's survivors are copied, whatever the chunk
    lengths: on the dim-4 zero algebra with -1, 0, 1, 2, row 3 (three placed
    rows, 96 bytes a candidate) at candidate 16 MiB // 96 + 1 = 174,763; at
    dim 3 with -1, 0, 1 and a bound of 100 candidates of row 2 and 5 bytes,
    at candidate 101, in one chunk and in chunks of one candidate."""
    zero = PreNovikovAlgebra(StructureConstants.zero(4), StructureConstants.zero(4))
    with pytest.raises(InputError, match=r"search row 3 keeps 174763 candidates so far, beyond"):
        search_symmetric_ybe(zero, [-1, 0, 1, 2])
    zero = PreNovikovAlgebra(StructureConstants.zero(3), StructureConstants.zero(3))
    monkeypatch.setattr(yang_baxter, "SURVIVOR_BYTES", 100 * 2 * 3 * 8 + 5)
    for budget in (core.BATCH_BYTES, 1):
        monkeypatch.setattr(core, "BATCH_BYTES", budget)
        with pytest.raises(InputError, match=r"search row 2 keeps 101 candidates so far, beyond"):
            search_symmetric_ybe(zero, [-1, 0, 1])


def test_search_object_values_keep_every_solution(monkeypatch, kernel_sums):
    """On the zero algebras of dims 2 and 3 with -2**40, 0, 2**40 the 4.13
    sums run on Python ints (in int64 only on a chunk whose entries are all
    0) and every symmetric tensor over the values is a solution, with the
    default byte budget and in chunks of one candidate.  (The bytes each
    chunk is charged are tested with ``core.zero_members``.)"""
    values = (-(2**40), 0, 2**40)
    for n in (2, 3):
        zero = PreNovikovAlgebra(StructureConstants.zero(n), StructureConstants.zero(n))
        want = []
        for upper in itertools.product(values, repeat=n * (n + 1) // 2):
            m = [[None] * n for _ in range(n)]
            for (i, j), v in zip(yang_baxter._upper_positions(n), upper):
                m[i][j] = m[j][i] = F(v)
            want.append(tuple(map(tuple, m)))
        assert search_symmetric_ybe(zero, values) == want
        with monkeypatch.context() as budget:
            budget.setattr(core, "BATCH_BYTES", 1)
            assert search_symmetric_ybe(zero, values) == want
    assert np.dtype(object) in {dtype for terms, _, dtype in kernel_sums if _row_form(terms)}


def _row_form(terms) -> bool:
    """Whether ``terms`` are ``labels.YBE_ROWS`` with their operands renamed
    to the cuts a search row reads (``yang_baxter._box``)."""
    return [(coef, subs) for coef, subs, _ in terms] == [(coef, subs) for coef, subs, _ in labels.YBE_ROWS]


def _counterexample(n: int) -> PreNovikovAlgebra:
    """At dim n >= 3: e1<e3 = -e2 and no other product, so > = 0."""
    lhd = np.zeros((n, n, n), dtype=np.int64)
    lhd[0, 2, 1] = -1
    return PreNovikovAlgebra(StructureConstants(n, Exact(lhd)), StructureConstants.zero(n))


def test_a_pre_novikov_algebra_whose_4_13_residual_is_not_mirrored():
    """The mirror R[a,b,c] = R[c,b,a] that lets a search row skip entries
    needs a commutative <, not the pre-Novikov axioms: ``_counterexample(3)``
    passes them, yet r = e1(x)e3 + e3(x)e1 has R[1,2,0] = -1 and R[0,2,1] =
    0.  So the two boxes are gated on < alone."""
    alg = _counterexample(3)
    assert check_pre_novikov(alg.lhd, alg.rhd).passed
    r = np.zeros((3, 3), dtype=np.int64)
    r[0, 2] = r[2, 0] = 1
    res = yang_baxter._ybe(alg, Exact(r))
    assert (res.num[1, 2, 0], res.num[0, 2, 1], res.den) == (-1, 0, 1)


def test_the_4_13_mirror_defect_is_the_commutator_of_lt():
    """Why a commutative < mirrors the residual: since x o y - x (.) y = x<y
    - y<x, for symmetric r R[a,b,c] - R[c,b,a] = sum_mn (r_bm r_cn D^a_mn -
    r_bm r_an D^c_mn - r_am r_cn D^b_mn), D^x_mn the e_x-coefficient of
    e_m<e_n - e_n<e_m.  Exactly, on random integer tables that are not
    pre-Novikov at dims 2-4 with random symmetric r; and the same tables
    with < made commutative give R[a,b,c] = R[c,b,a]."""
    rng = np.random.default_rng(4130)
    for n in (2, 3, 4):
        for _ in range(8):
            lt, gt = rng.integers(-2, 3, size=(2, n, n, n))
            m = rng.integers(-2, 3, size=(n, n))
            r = Exact(m + m.T)
            alg = PreNovikovAlgebra(*(StructureConstants(n, Exact(t)) for t in (lt, gt)))
            assert not check_pre_novikov(alg.lhd, alg.rhd).passed
            res, d = yang_baxter._ybe(alg, r), lt - lt.transpose(1, 0, 2)
            defect = (np.einsum("bm,cn,mna->abc", r.num, r.num, d) - np.einsum("bm,an,mnc->abc", r.num, r.num, d)
                      - np.einsum("am,cn,mnb->abc", r.num, r.num, d))
            assert res.den == 1 and (res.num - res.num.transpose(2, 1, 0) == defect).all()
            mirrored = PreNovikovAlgebra(StructureConstants(n, Exact(lt + lt.transpose(1, 0, 2))), alg.rhd)
            res = yang_baxter._ybe(mirrored, r)
            assert (res.num == res.num.transpose(2, 1, 0)).all()


def test_search_rows_test_two_boxes_only_when_lt_is_commutative(monkeypatch, alg4):
    """Row k tests the residual entries it makes final.  On the shipped
    dim-4 fixture, whose < is commutative, those are the boxes {c = k; a, b
    <= k} and {b = k; a, c < k}: 1, 5, 13 and 25 entries per candidate.  On
    ``_counterexample(4)``, whose < is not, each row tests its whole cube:
    1, 8, 27 and 64."""
    rows = _record_rows(monkeypatch)
    search_symmetric_ybe(alg4, [-1, 0, 1])
    assert _entries(rows) == [1, 5, 13, 25]
    rows.clear()
    search_symmetric_ybe(_counterexample(4), [-1, 0, 1])
    assert _entries(rows) == [1, 8, 27, 64]


def test_both_search_paths_match_the_oracles(monkeypatch):
    """The two-box path on two dense conjugates of the benchmark's search
    pool (the shipped fixture is ``test_search_matches_int64_oracle_dim4``'s),
    and the cube path on the 96 enumerated dim-2 algebras (of 257) whose <
    is not commutative and on ``_counterexample(3)``, each give the
    solutions of the brute-force references."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    workloads = importlib.import_module("workloads")
    rows = _record_rows(monkeypatch)
    for k in (0, 1):
        alg = bundle_to_objects(parse_bundle(json.dumps(workloads.search_case_bundle(k))))
        rows.clear()
        assert search_symmetric_ybe(alg, [-1, 0, 1]) == search_int64(alg, [-1, 0, 1])
        assert _entries(rows) == [1, 5, 13, 25]
    cube = [alg for alg in enumerate_dim2_pre_novikov()
            if not np.array_equal(lt := alg.lhd.table.num, lt.transpose(1, 0, 2))]
    assert len(cube) == 96
    for alg in [*cube, _counterexample(3)]:
        rows.clear()
        assert search_symmetric_ybe(alg, [-1, 0, 1]) == sorted(search_exact(alg, [-1, 0, 1]))
        assert _entries(rows) == [(k + 1) ** 3 for k in range(alg.dim)]


def _block_diagonal_dim3(alg2) -> PreNovikovAlgebra:
    """The dim-2 fixture plus a null line."""
    rows = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in itertools.product(range(2), repeat=3):
        rows[i][j][k] = alg2.lhd.c[i][j][k]
    return PreNovikovAlgebra(StructureConstants.from_rows(rows), StructureConstants.zero(3))


def _conjugate(alg: PreNovikovAlgebra, seed: int) -> PreNovikovAlgebra:
    p = rand_invertible(random.Random(seed), alg.dim)
    return PreNovikovAlgebra(conjugate_table(alg.lhd, p), conjugate_table(alg.rhd, p))


def test_search_block_diagonal_dim3(alg2):
    """Search over a 3-dim algebra (fixture plus a null line)."""
    alg3 = _block_diagonal_dim3(alg2)
    assert check_pre_novikov(alg3.lhd, alg3.rhd).passed
    sols = search_symmetric_ybe(alg3, [0, 1])
    exact = search_exact(alg3, [0, 1])
    assert sorted(sols) == sorted(exact)


def test_search_matches_fraction_oracle_dense_dim3(alg2):
    dense = _conjugate(_block_diagonal_dim3(alg2), 5)
    assert check_pre_novikov(dense.lhd, dense.rhd).passed
    sols = search_symmetric_ybe(dense, [-1, 0, 1])
    assert sols == sorted(search_exact(dense, [-1, 0, 1]))
    assert len(sols) > 1


def test_search_matches_int64_oracle_dim4(alg4):
    """The shipped semidirect algebra and a dense conjugate of it."""
    for alg in (alg4, _conjugate(alg4, 11)):
        sols = search_symmetric_ybe(alg, [-1, 0, 1])
        assert sols == search_int64(alg, [-1, 0, 1])
        assert len(sols) > 1


def test_search_object_path(alg2):
    """Entries of 2**40 square past int64, so the search runs on Python ints."""
    values = [0, 2**40]
    maxabs = {"r": 2**40, "o": 1, "(.)": 1, "<": 1}
    shapes = {"r": (2, 2), "o": (2, 2, 2), "(.)": (2, 2, 2), "<": (2, 2, 2)}
    assert overflow_bound(labels.SPECS[labels.YBE][1], shapes, maxabs) > INT64_MAX
    sols = search_symmetric_ybe(alg2, values)
    assert sols == sorted(search_exact(alg2, values))
    assert len(sols) > 1


def test_theorem_pipeline_over_search_output(alg2):
    for s in search_symmetric_ybe(alg2, [-1, 0, 1]):
        bi = bialgebra_from_r(alg2, s)
        assert bi.report.passed
        d = coboundary_diagnostics(alg2, s)
        assert d.equations_zero() and d.r_tensors_zero()


def test_lift_biconditional_random_maps(alg2):
    rng = random.Random(37)
    _, pre = adjoint_reps(alg2)
    for _ in range(30):
        t = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(2)) for _ in range(2))
        semi, r = lift_o_operator(alg2, pre, t)  # raises if the biconditional breaks
        assert tuple(zip(*r)) == r


def test_search_reverification_catches_a_planted_hit(monkeypatch, alg2):
    """A row search whose zero test keeps every candidate, non-solutions
    among them, is caught by the batched operator-form re-verification,
    which tests through ``core.zero_members`` itself."""
    sweep = yang_baxter.zero_members

    def planted(specs, size, members, fixed=None):
        for arrays, ok in sweep(specs, size, members, fixed):
            yield arrays, np.ones_like(ok)

    assert not t3_is_zero(ybe_residual(alg2, ((F(1), F(1)), (F(1), F(1)))))
    monkeypatch.setattr(yang_baxter, "zero_members", planted)
    with pytest.raises(InternalCheckError, match="non-solution"):
        search_symmetric_ybe(alg2, [-1, 0, 1])


def _random_algebra(rng, n):
    return PreNovikovAlgebra(*(
        StructureConstants.from_rows(rng.choice([-1, 0, 0, 1], size=(n, n, n)).tolist())
        for _ in "<>"))


def test_operator_form_verdict_matches_the_residual():
    """Seeded differential test of the search's second route: for symmetric
    r, identities 4.29/4.30 with the dual adjoint quadruple hold exactly when
    the 4.13 residual is zero, on enumerated pre-Novikov algebras and on
    random tables, which are almost never pre-Novikov."""
    rng = np.random.default_rng(413)
    every_r2 = [((a, b), (b, c)) for a, b, c in itertools.product((-1, 0, 1), repeat=3)]
    cases = [(alg, every_r2) for alg in enumerate_dim2_pre_novikov()[::7]]
    cases += [(_random_algebra(rng, 2), every_r2) for _ in range(12)]
    for _ in range(12):
        r = rng.choice([-1, 0, 0, 1], size=(20, 3, 3))
        cases.append((_random_algebra(rng, 3), r + r.transpose(0, 2, 1)))
    verdicts = []
    for alg, rs in cases:
        hits = np.array(rs, dtype=np.int64)
        got = yang_baxter._o_operator_ok(yang_baxter._integer_tables(alg), hits)
        want = [t3_is_zero(ybe_residual(alg, t2(r))) for r in hits.tolist()]
        assert got.tolist() == want
        verdicts += want
    assert 0 < sum(verdicts) < len(verdicts)


def test_operator_form_4_30_is_4_13_permuted():
    """Why the search's re-verification guards its staging and not the spec:
    for symmetric T = r and the dual adjoint quadruple, the 4.30 residual is
    exactly -4.13 with axes (a, c, b), on random tables with fractional
    entries, pre-Novikov or not."""
    rng = np.random.default_rng(430)
    for n in (2, 3, 4):
        for _ in range(10):
            tables = {name: Exact(rng.integers(-2, 3, size=(n, n, n)), int(rng.integers(1, 4))) for name in "<>"}
            r = rng.integers(-2, 3, size=(n, n))
            r = Exact(r + r.T, int(rng.integers(1, 4)))
            ybe = evaluate({"": labels.SPECS[labels.YBE][1]}, {**tables, "r": r})[""]
            maps = yang_baxter._DUAL_QUADRUPLE
            quadruple = evaluate({key: labels.OPERANDS[name] for key, name in maps.items()}, tables)
            got = evaluate({"": labels.SPECS["4.30"][1]}, {**tables, **quadruple, "T": r})[""]
            assert got == Exact(-np.einsum("abc->acb", ybe.num), ybe.den)


def test_the_row_form_of_4_13_is_4_13_on_symmetric_r(kernel_sums):
    """The search's row form ``labels.YBE_ROWS`` equals 4.13 exactly on
    symmetric r: at dims 1-4, on fractional tables and r, and on integer
    entries near 2**40, whose sums run on Python ints.  On r that are not
    symmetric the two forms differ."""
    rng = np.random.default_rng(1313)
    specs = {"4.13": labels.SPECS[labels.YBE][1], "rows": labels.YBE_ROWS}
    differ = []
    for n in (1, 2, 3, 4):
        for near in (0, 2**40):
            for _ in range(6):
                den = 1 if near else int(rng.integers(1, 5))
                tables = {name: Exact(rng.integers(-2, 3, size=(n, n, n)) * (near or 1)
                                      + rng.integers(-2, 3, size=(n, n, n)), den) for name in "<>"}
                m = rng.integers(-2, 3, size=(n, n)) * (near or 1) + rng.integers(-2, 3, size=(n, n))
                got = evaluate(specs, {**tables, "r": Exact(m + m.T, den)})
                assert got["rows"] == got["4.13"]
                got = evaluate(specs, {**tables, "r": Exact(m, den)})
                differ.append(got["rows"] != got["4.13"])
    assert any(differ)
    assert np.dtype(object) in {dtype for terms, _, dtype in kernel_sums if terms == tuple(labels.YBE_ROWS)}
