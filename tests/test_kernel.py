"""Differential tests of the exact contraction kernel against a pure-Python
reference evaluator (Fraction arithmetic, every index assignment looped)."""

import importlib
import inspect
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prenovikov import check_bialgebra, check_compatibility, cli, coboundary_diagnostics, core, labels
from prenovikov.cli import run_command
from prenovikov.core import INT64_MAX, contract, evaluate, sum_batched
from prenovikov.io import KINDS, bundle_to_objects, parse_bundle

from conftest import FIXTURES
from kernel_reference import derive, overflow_bound, reference, table_of

F = Fraction
LETTERS = "abcde"


def kernel_as_dicts(specs, tables):
    """One kernel call; key -> (index -> Fraction, dtype)."""
    return {
        key: ({idx: F(int(num[idx]), den) for idx in np.ndindex(num.shape)}, num.dtype)
        for key, (num, den) in contract(specs, tables).items()
    }


@st.composite
def problems(draw, huge=False):
    """Several random signed einsum term lists over shared random rational
    tables.  The terms of a list read one number of operands, so that they
    have one degree, as the kernel requires."""
    sizes = {c: draw(st.integers(1, 3)) for c in LETTERS}
    numerators = st.integers(-(2**70), 2**70) if huge else st.integers(-40, 40)
    scalars = st.builds(F, numerators, st.sampled_from((1, 1, 2, 3, 6)))
    specs, tables = {}, {}
    for key in range(draw(st.integers(1, 3))):
        out = "".join(draw(st.permutations(LETTERS))[: draw(st.integers(0, 3))])
        terms, width = [], draw(st.integers(1, 3))
        for t in range(draw(st.integers(1, 3))):
            operands = []
            for k in range(width):
                sub = "".join(draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3)))
                operands.append(sub)
            # every output letter must appear in some operand of the term
            operands[-1] += "".join(c for c in out if c not in "".join(operands))
            names = []
            for k, sub in enumerate(operands):
                shape = tuple(sizes[c] for c in sub)
                reuse = [n for n, tab in tables.items() if np.array(tab, dtype=object).shape == shape]
                if reuse and draw(st.booleans()):
                    names.append(draw(st.sampled_from(reuse)))
                    continue
                name = f"t{key}{t}{k}"
                count = int(np.prod(shape))
                entries = draw(st.lists(scalars, min_size=count, max_size=count))
                if huge:
                    # above INT64_MAX in lowest terms too
                    d = entries[0].denominator
                    entries[0] = F(2**64 * d + abs(entries[0].numerator), d)
                tables[name] = table_of(shape, iter(entries))
                names.append(name)
            coef = draw(st.integers(-3, 3).filter(bool))
            terms.append((coef, f"{','.join(operands)}->{out}", tuple(names)))
        specs[key] = terms
    return specs, tables


@settings(max_examples=150, deadline=None)
@given(problems())
def test_kernel_matches_reference_int64(problem):
    specs, tables = problem
    results = kernel_as_dicts(specs, tables)
    assert results.keys() == specs.keys()
    for key, (got, dtype) in results.items():
        assert dtype == np.int64
        assert got == reference(specs[key], tables)


@settings(max_examples=60, deadline=None)
@given(problems(huge=True))
def test_kernel_matches_reference_object(problem):
    specs, tables = problem
    results = kernel_as_dicts(specs, tables)
    assert results.keys() == specs.keys()
    for key, (got, dtype) in results.items():
        assert dtype == object
        assert got == reference(specs[key], tables)


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("excess", [-1, 0, 1])
def test_kernel_at_the_certified_bound(size, excess):
    """A sum of ``size`` products x * 7 lands just below, on (for size 1) or
    just above the int64 limit; beyond it the kernel must use Python ints."""
    step = 7 * size
    x = INT64_MAX // step + excess
    terms = [(1, "ij,j->i", ("A", "B"))]
    for sign in (1, -1):
        tables = {"A": ((F(sign * x),) * size,), "B": (F(7),) * size}
        num, _ = contract({"": terms}, tables)[""]
        assert num.dtype == (np.int64 if x * step <= INT64_MAX else object)
        assert evaluate({"": terms}, tables)[""].nested == (F(sign * x * step),)


@pytest.mark.parametrize("excess", [-1, 0, 1])
def test_batched_three_operand_term_at_the_certified_bound(excess):
    """A batched term is contracted pairwise along a planned path.  With all
    entries at their maxima its value is the certified bound, which is
    INT64_MAX itself for ``excess`` 0 (2**63 - 1 = 49 * 73 * 127 * x).  The
    operands come in int64; past the bound the kernel runs on Python ints."""
    terms = [(1, "ij,jk,k->i", ("A", "B", "C"))]
    x = INT64_MAX // (49 * 73 * 127) + excess
    shapes = {"A": (1, 7), "B": (7, 7), "C": (7,)}
    bound = overflow_bound(terms, shapes, {"A": x, "B": 73, "C": 127})
    rows = [[x] * 7, [-x] * 7, [(-1) ** j * x for j in range(7)]]
    arrays = {
        "A": np.array([[row] for row in rows], dtype=np.int64),  # batch axis N first
        "B": np.full((7, 7), 73, dtype=np.int64),
        "C": np.full(7, 127, dtype=np.int64),
    }
    got = sum_batched({"": terms}, arrays, batch={"A"})[""]
    assert (got.dtype == object) == (excess > 0) == (bound > INT64_MAX)
    assert [int(v) for v in got[:, 0]] == [bound, -bound, x * 7 * 73 * 127]


@pytest.mark.parametrize("scale", [1, 2**70], ids=["int64", "object"])
def test_batched_pairwise_steps_match_reference(scale):
    """Random batched terms of two and three operands on letters of sizes
    1-3, some operands batched, through ``sum_batched`` at batch lengths 1,
    2 and 17: every member is the reference value of the term on that
    member, in int64 and on Python ints (the first entry of each operand
    -3 * 2**70).  Their pairwise steps are lowered (``core._lowered``) to
    matrix products, or to broadcast products when they contract no
    letter, with size-1 letters among them; a step with a letter repeated
    in an operand or summed in one operand only runs as an einsum."""
    rng, seen = np.random.default_rng(36), set()
    for trial in range(80):
        sizes = dict(zip("abcd", rng.choice([1, 2, 3], 4).tolist()))
        groups = ["".join(rng.choice(list("abcd"), rng.integers(1, 4), replace=trial % 3 == 0))
                  for _ in range(2 + trial % 2)]
        letters = sorted(set("".join(groups)))
        out = "".join(rng.permutation(letters)[: rng.integers(0, len(letters) + 1)])
        names = tuple(f"t{k}" for k in range(len(groups)))
        batch = {name for name in names if rng.random() < 0.5} or {names[-1]}
        terms = [(int(rng.choice([-2, 1, 3])), f"{','.join(groups)}->{out}", names)]
        for length in (1, 2, 17):
            arrays = {}
            for name, g in zip(names, groups):
                shape = ((length,) if name in batch else ()) + tuple(sizes[c] for c in g)
                t = rng.integers(-3, 4, shape).astype(object)
                t.flat[0] = -3 * scale
                arrays[name] = core._fit(t.ravel().tolist()).reshape(t.shape)
            got = sum_batched({"": terms}, arrays, batch)[""]
            assert got.dtype == (np.int64 if scale == 1 else object) and got.shape[0] == length
            for m, row in enumerate(got.reshape(length, -1).tolist()):
                member = {name: (a[m] if name in batch else a).tolist() for name, a in arrays.items()}
                assert list(map(F, row)) == list(reference(terms, member).values())
        for steps, *_ in core._compile({"": terms}, arrays, batch).code:
            for _, _, _, op, _, _ in steps:
                if type(op) is tuple:
                    seen.update(["matmul" if op[4] else "multiply"] + ["size 1"] * (1 in sizes.values()))
                elif op is not None:
                    seen.add("einsum")
    assert seen == {"matmul", "multiply", "size 1", "einsum"}


@pytest.mark.parametrize("big", [2**61 - 1, 2**61])
def test_kernel_cancelling_terms_near_the_bound(big):
    """Partial sums count toward the bound even when the terms cancel."""
    terms = [(1, "i->i", ("A",)), (1, "i->i", ("A",)), (-2, "i->i", ("A",))]
    num, _ = contract({"": terms}, {"A": (F(big),)})[""]
    assert num.dtype == (np.int64 if 4 * big <= INT64_MAX else object)
    assert int(num[0]) == 0


@pytest.mark.parametrize("rhd, dtype", [(-(2**62 - 1), np.int64), (-(2**62), object)], ids=["int64", "object"])
def test_a_derived_operand_counts_at_its_propagated_bound(rhd, dtype):
    """A call's dtype is decided before its first sum runs, a derived
    operand counting at its own sum's bound rather than at its entries.
    With < = 2**62 and > = rhd, the bound of o = < + > is 2**62 + |rhd|:
    INT64_MAX itself in the first case (int64), one past it in the second,
    where o is all zero, so that the whole call, its sum on < alone
    included, runs on Python ints.  Both give the reference values, plain
    and batched."""
    n = 2
    tables = {"<": table_of((n,) * 3, iter([F(2**62)] * n**3)), ">": table_of((n,) * 3, iter([F(rhd)] * n**3))}
    specs = {"o": [(1, "ijk->ijk", ("o",))], "lhd": [(-1, "ijk->kji", ("<",))]}
    derived = derive(["o"], tables)
    for key, (got, got_dtype) in kernel_as_dicts(specs, tables).items():
        assert got_dtype == dtype
        assert got == reference(specs[key], derived)
    arrays = {"<": np.full((3, n, n, n), 2**62, np.int64), ">": np.full((3, n, n, n), rhd, np.int64)}
    got = sum_batched(specs, arrays, batch=arrays)
    assert [num.dtype for num in got.values()] == [np.dtype(dtype)] * 2
    assert (got["o"] == 2**62 + rhd).all() and (got["lhd"] == -(2**62)).all()


def test_an_object_batch_over_budget_runs_no_einsum(monkeypatch):
    """A batched call on Python ints is charged, once and before its first
    sum, a pointer plus the int object of its largest bound per entry of
    its ``peak``: one byte short of the whole batch it raises
    ``_OverBudget`` with the members that fit, and no einsum or matrix
    product has run; at the whole batch's charge its one matrix product
    runs."""
    terms = [(1, "ij,jk->ik", ("A", "B"))]
    arrays = {"A": np.full((5, 2, 2), 2**40, np.int64), "B": np.full((2, 2), 2**40, np.int64)}
    maxabs = {"A": 2**40, "B": 2**40}
    program = core._compile({"": terms}, arrays, {"A"})
    member = program.peak * (8 + sys.getsizeof(2 * 2**40 * 2**40))
    calls, einsum, matmul = [], np.einsum, np.matmul
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append("einsum") or einsum(*args, **kwargs))
    monkeypatch.setattr(np, "matmul", lambda *args: calls.append("matmul") or matmul(*args))
    with pytest.raises(core._OverBudget) as over:
        next(program.run(arrays, maxabs, 5 * member - 1))
    assert over.value.args == (4,) and calls == []
    ((_, num, _),) = program.run(arrays, maxabs, 5 * member)
    assert calls == ["matmul"] and num.dtype == object and (num == 2**81).all()


def test_the_certificate_spares_the_exact_bounds(monkeypatch):
    """A warm dim-4 ``check_bialgebra`` runs in int64 on its program's
    certificate alone, with no ``_bound`` call.  A batch of +-2**40 entries
    passes the certificate, so the exact bounds decide, and it runs on
    Python ints, charged as before: one byte short of the charge of
    ``test_an_object_batch_over_budget_runs_no_einsum`` it raises
    ``_OverBudget``, and at that charge it runs."""
    bialg = bundle_to_objects(parse_bundle((FIXTURES / "dim4_bialgebra.json").read_text()))
    assert check_bialgebra(bialg.algebra, bialg.coalgebra).passed
    calls, bound = [], core._bound
    monkeypatch.setattr(core, "_bound", lambda *args: calls.append(1) or bound(*args))
    assert check_bialgebra(bialg.algebra, bialg.coalgebra).passed and calls == []
    terms = [(1, "ij,jk->ik", ("A", "B"))]
    arrays = {"A": np.full((5, 2, 2), -(2**40), np.int64), "B": np.full((2, 2), 2**40, np.int64)}
    maxabs = {"A": 2**40, "B": 2**40}
    program = core._compile({"": terms}, arrays, {"A"})
    member = program.peak * (8 + sys.getsizeof(2 * 2**40 * 2**40))
    with pytest.raises(core._OverBudget) as over:
        next(program.run(arrays, maxabs, 5 * member - 1))
    assert over.value.args == (4,) and calls == [1]
    ((_, num, _),) = program.run(arrays, maxabs, 5 * member)
    assert num.dtype == object and (num == -(2**81)).all()


def test_every_fixture_command_runs_in_int64(kernel_sums):
    """The certificate is looser than a scan of each derived operand, but
    no kernel call of the CLI on the shipped fixtures misses it: ``check``,
    ``derive`` and ``double`` on every fixture, ``ybe``, ``coboundary`` and
    ``diag`` on the dim-4 semidirect algebra and its solution, and
    ``search`` on that algebra."""
    runs = [[command, str(path)] for path in sorted(FIXTURES.glob("*.json"))
            for command in ("check", "derive", "double")]
    pair = [str(FIXTURES / "dim4_semidirect.json"), str(FIXTURES / "dim4_ybe_solution.json")]
    runs += [[command, *pair] for command in ("ybe", "coboundary", "diag")] + [["search", pair[0]]]
    codes = [run_command(argv, out=io.StringIO()) for argv in runs]
    assert codes.count(0) >= 10
    assert len(kernel_sums) > 100 and {dtype for *_, dtype in kernel_sums} == {np.dtype(np.int64)}


@pytest.mark.parametrize("half", [1, F(1, 2)], ids=["int64", "lifted"])
@pytest.mark.parametrize("first, second, again", [("ii->i", "i->i", "ij->ji"), ("iij->ji", "ij->ij", "ijk->kji")])
def test_one_operand_first_term_leaves_its_operand_alone(half, first, second, again):
    """A one-operand einsum may return a view of its operand (a diagonal
    here).  A sum whose first such term is followed by another must not add
    into that view: the operand is read-only at lift factor 1, and at
    another factor (or in ``sum_batched``) a later sum would read the
    changed entries."""
    a = ((F(1), F(2)), (F(3), F(4)))
    if first == "iij->ji":
        a = tuple((row,) * 2 for row in a)
    b = (half, half) if second == "i->i" else ((half, half),) * 2
    specs = {"k": [(1, first, ("a",)), (1, second, ("b",))], "again": [(1, again, ("a",))]}
    tables = {"a": a, "b": b}
    want = {key: reference(terms, tables) for key, terms in specs.items()}
    for key, (got, _) in kernel_as_dicts(specs, tables).items():
        assert got == want[key]
    if half == 1:
        arrays = {name: np.array(t, dtype=np.int64) for name, t in tables.items()}
        for key, got in sum_batched(specs, arrays).items():
            assert {idx: F(int(got[idx])) for idx in np.ndindex(got.shape)} == want[key]


def test_exact_carries_its_largest_numerator():
    """``Exact.maxabs`` is the largest absolute numerator, for int64, object
    and empty arrays, and ``_lift`` scales it with the numerators."""
    arrays = [np.array([[3, -7], [0, 2]]), np.array([2**70, -(2**71), 5], dtype=object),
              np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=object)]
    for num in arrays:
        for den in (1, 6):
            e = core.Exact(num, den)
            assert e.maxabs == int(np.abs(e.num).max(initial=0))
    tables = {"a": core.Exact(arrays[0], 3), "b": core.Exact(arrays[1], 2), "c": core.Exact(arrays[2])}
    lifted, maxabs, den = core._lift(tables)
    assert den == 6
    assert maxabs == {name: int(np.abs(num).max(initial=0)) for name, num in lifted.items()} == {
        "a": 7 * 2, "b": 2**71 * 3, "c": 0}


def test_kernel_common_denominator_and_named_operands():
    lhd = ((((F(1, 2), F(0)), (F(0), F(1, 3))), ((F(0), F(1)), (F(0), F(0)))))
    rhd = ((((F(0), F(2, 5)), (F(1), F(0))), ((F(0), F(0)), (F(-1, 7), F(0)))))
    tables = {"<": lhd, ">": rhd}
    # "o" is derived through labels.OPERANDS as < + >
    got = evaluate({"": [(1, "ijm,mkt->ijkt", ("o", "o"))]}, tables)[""].nested
    o = {"o": tuple(tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                    for p1, p2 in zip(lhd, rhd))}
    want = reference([(1, "ijm,mkt->ijkt", ("o", "o"))], o)
    assert {idx: got[idx[0]][idx[1]][idx[2]][idx[3]] for idx in want} == want


def test_one_lift_per_kernel_call(monkeypatch, bialg2, alg4, sol4):
    """Each kernel call lifts its tables once: a report is one call however
    many identities it names, and so are the coboundary diagnostics."""
    lifts = []
    lift = core._lift
    monkeypatch.setattr(core, "_lift", lambda tables: lifts.append(1) or lift(tables))
    check_compatibility(bialg2.algebra, bialg2.coalgebra)
    assert len(lifts) == 1
    lifts.clear()
    coboundary_diagnostics(alg4, sol4)
    assert len(lifts) == 1


def test_only_the_kernel_decides_int64_or_python_ints():
    """No module but ``core`` names the int64 limit or an overflow bound, so
    the int64-or-object decision cannot spread out of the kernel again."""
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name != "core.py":
            text = path.read_text()
            assert "INT64_MAX" not in text and "overflow_bound" not in text, path.name


def test_every_internal_check_names_its_class():
    """Each ``raise InternalCheckError(`` in the package opens its message
    with its class: ``theorem (...)`` for a construction whose result must
    satisfy a theorem, ``staging (...)`` for a fast sweep's guard.  A check
    that evaluates the same sum twice belongs in a spec-level test instead,
    so the count of sites only changes with a reason."""
    sites = classified = 0
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        text = path.read_text()
        sites += text.count("raise InternalCheckError(")
        classified += len(re.findall(r'raise InternalCheckError\(\s*f?"(?:theorem|staging) \([^)]+\): ', text))
    assert sites == classified == 14


def test_only_the_cli_chooses_a_verifier():
    """``io`` declares the bundle format and nothing else: it imports no
    verifier and no dual rep, and every kind the commands read is one of
    its kinds."""
    text = (Path(core.__file__).parent / "io.py").read_text()
    assert not re.search(r"\b(check|dual)_\w+|yang_baxter", text)
    assert {kind for _, args, _ in cli._COMMANDS.values() for kinds in args.values() for kind in kinds} <= KINDS.keys()


def test_only_the_kernel_lifts_or_boxes():
    """No module but ``core`` calls ``_lift`` or ``nested_fractions``: tables
    are brought to a common denominator, and boxed into Fractions, in one
    place only."""
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name != "core.py":
            assert not re.search(r"\b(_lift|nested_fractions)\b", path.read_text()), path.name


def test_only_the_kernel_sizes_batches():
    """Every sweep chunks by one byte budget, ``core.BATCH_BYTES``, on one
    thread: no module names the retired thread pool, its knob or the
    per-caller chunk rules, and no module but ``core`` assigns a batch or
    chunk size."""
    retired = r"\b(ThreadPoolExecutor|PRENOVIKOV_WORKERS|ENUM_CHUNK|CHUNK_BYTES|sum_footprint)\b"
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert not re.search(retired, text), path.name
        sizes = re.findall(r"^\s*([A-Z_]*(?:BATCH_|CHUNK)[A-Z_]*)\s*=", text, re.M)
        assert sizes == (["BATCH_BYTES"] if path.name == "core.py" else []), path.name


def test_the_retired_tuple_helpers_stay_retired():
    """The kernel's einsum subscripts replaced the tuple helpers that nothing
    called, and the stages' derived operands the one-table helpers
    ``sum_table``, ``derived_ops`` and ``dual_adjoint_maps``: no module
    names them."""
    retired = (r"\b(mat_zero|mat_transpose|mat_vec|mat_mul|solve_linear|t2_zero|flip|permute3|dual_map"
               r"|apply_op|mult_matrix|placed_product|_contract1|sum_table|derived_ops|dual_adjoint_maps)\b")
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        assert not re.search(retired, path.read_text()), path.name
    assert not hasattr(core.StructureConstants, "add")


def test_the_kernel_takes_whole_operands():
    """A box of a residual is tested on operand slices its caller cuts (the
    row search's placed rows): the kernel's compiler, its programs and its
    zero tests take no ``where``."""
    for f in (core._compile, core._Program, core.zero_members, core.zero_mask):
        assert "where" not in inspect.signature(f).parameters, f.__name__


def test_only_the_report_module_builds_reports():
    """Every verifier makes its report through ``report.verify``: no module
    but ``report`` constructs a ``ReportBuilder``."""
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.name != "report.py":
            assert "ReportBuilder(" not in path.read_text(), path.name


def test_every_cache_is_bounded():
    """What the package keeps across calls is capped in memory: every
    ``functools.lru_cache`` has a finite ``maxsize``, ``functools.cache``
    wraps only a function of no arguments (``cli.build_parser``), and
    ``core`` keeps one cache, its compiled programs.  Each cache is a
    module-level name, so the caches a module's source makes are the cached
    objects it holds."""
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"from functools import [^\n]*\b(lru_cache|cache)\b", text), path.name
        made = len(re.findall(r"\bfunctools\.(lru_cache|cache)\b", text))
        if path.stem == "__main__":  # (importing it runs the CLI)
            assert not made
            continue
        module = importlib.import_module("prenovikov" + ("" if path.stem == "__init__" else f".{path.stem}"))
        caches = [obj for obj in vars(module).values()
                  if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]
        assert len(caches) == made, path.name
        for cached in caches:
            if cached.cache_info().maxsize is None:
                assert not inspect.signature(cached.__wrapped__).parameters, cached
        if path.name == "core.py":
            assert caches == [core._program]


def test_no_table_is_flattened_after_parse(monkeypatch):
    """Parsing builds every table's exact array: checking, doubling and the
    coboundary pipeline on the dim-4 fixtures flatten no nested table."""
    calls = []
    entries = core._entries
    monkeypatch.setattr(core, "_entries", lambda table: calls.append(1) or entries(table))
    fixture = {name: str(FIXTURES / f"dim4_{name}.json")
               for name in ("bialgebra", "coalgebra", "semidirect", "ybe_solution")}
    runs = [["check", fixture[name]] for name in ("bialgebra", "coalgebra", "semidirect")]
    runs += [["double", fixture["bialgebra"]], ["coboundary", fixture["semidirect"], fixture["ybe_solution"]]]
    for fmt in ("text", "machine"):
        for argv in runs:
            assert run_command(["--format", fmt, *argv], out=io.StringIO()) == 0
    assert calls == []
    core.exact(((F(1), F(2)),))  # the wrapper counts a flattening
    assert calls == [1]


def _plain_zero(specs, arrays, fixed):
    """The plain route: one ``sum_batched`` over the whole batch, reduced."""
    res = sum_batched(specs, {**fixed, **arrays}, batch=arrays)
    return ~np.any([(r != 0).reshape(len(r), -1).any(axis=1) for r in res.values()], axis=0)


@pytest.mark.parametrize("scale", [1, 2**40, 2**70], ids=["1", "2**40", "2**70"])
def test_zero_members_matches_the_full_batch(monkeypatch, scale):
    """``core.zero_members`` against one plain ``sum_batched`` over the whole
    batch, on sparse random tables whose later half is multiplied by
    ``scale``: int64 calls throughout, then Python-int calls on int64
    operands, then Python-int operands.  At the default budget, at 2 KiB
    and at 1 byte, the masks agree, and a 1-byte budget gives chunks of one
    member.  Every sum that runs on a chunk of more than one member forms no
    array past ``BATCH_BYTES``, charged 8 bytes per int64 entry and a pointer
    plus its int object otherwise (each array the kernel's einsums and
    matrix products return or its sums yield is measured): at 2 KiB the chunks that reach the
    scaled half must be rebuilt shorter."""
    rng = np.random.default_rng(11)
    size = 300

    def sparse(shape):
        t = rng.choice([-1, 0, 1], p=[0.05, 0.9, 0.05], size=shape).astype(object)
        t[size // 2 :] *= scale
        return core._fit(t.ravel().tolist()).reshape(shape)

    r = sparse((size, 3, 3))
    tables = {name: rng.integers(-1, 2, size=(3, 3, 3)) for name in ("o", "(.)", "<")}
    cases = [  # (specs, batched operands, fixed operands)
        ({code: labels.SPECS[code][1] for code in ("2.10", "2.11")},
         {"<": sparse((size, 2, 2, 2)), ">": sparse((size, 2, 2, 2))}, {}),
        ({labels.YBE: labels.SPECS[labels.YBE][1]}, {"r": r + r.transpose(0, 2, 1)}, tables),
    ]
    wants = [_plain_zero(*case).tolist() for case in cases]

    over, lengths, running = [], [], []
    run, einsum, matmul = core._Program.run, np.einsum, np.matmul

    def measured(array):
        size = array.nbytes + (sum(map(sys.getsizeof, array.ravel().tolist())) if array.dtype == object else 0)
        if running and running[-1] > 1 and size > core.BATCH_BYTES:
            over.append((running[-1], array.shape, array.dtype))
        return array

    def budgeted(self, arrays, maxabs, budget=0):
        running.append(len(arrays[self.batch[0]]) if budget else 0)
        try:
            for key, num, top in run(self, arrays, maxabs, budget):
                yield key, measured(num), top
        finally:
            running.pop()

    monkeypatch.setattr(core._Program, "run", budgeted)
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: measured(einsum(*args, **kwargs)))
    monkeypatch.setattr(np, "matmul", lambda *args: measured(matmul(*args)))
    default = core.BATCH_BYTES
    for (specs, arrays, fixed), want in zip(cases, wants):

        def members(lo, hi):
            return {name: a[lo:hi] for name, a in arrays.items()}

        for budget in (default, 2048, 1):
            monkeypatch.setattr(core, "BATCH_BYTES", budget)
            lengths.clear()
            got = []
            for chunk, ok in core.zero_members(specs, size, members, fixed):
                assert all(len(a) == len(ok) for a in chunk.values())
                lengths.append(len(ok))
                got += ok.tolist()
            assert got == want == core.zero_mask(specs, size, members, fixed).tolist()
            assert sum(lengths) == size and (budget > 1 or set(lengths) == {1})
    assert over == []
    assert all(0 < sum(want) < size for want in wants)
