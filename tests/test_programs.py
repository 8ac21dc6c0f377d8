"""The compiled programs of ``core``: one slot per distinct contraction of a
kernel call, read through its own transpose by every term that shares it,
checked against the Fraction reference of ``kernel_reference``; the program
cache; and the einsum calls of whole verifier runs."""

import io
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from prenovikov import algebras, check_bialgebra, coboundary_diagnostics, core, labels, search_symmetric_ybe
from prenovikov.cli import run_command
from prenovikov.core import contract, evaluate, sum_batched
from prenovikov.io import bundle_to_objects, parse_bundle

from conftest import FIXTURES
from kernel_reference import derive, reference, table_of

F = Fraction
HUGE = 2**62  # a coefficient that puts its sum past int64


# the identities on the tables <, > and the rank-2 tensor r
CODES = labels.PRE_NOVIKOV + labels.COBOUNDARY_CONDITIONS + labels.COBOUNDARY_EQUATIONS + (labels.YBE,)


def _pool(needed):
    """Every term of several operands in the specs ``CODES`` and the derived
    operands that reads a name in ``needed`` (directly or through a derived
    operand), and only what the tables of ``_tables`` give, by output rank
    and degree (an input has degree 1, a derived operand that of its terms),
    since the terms of a sum have one degree.  (A representation's map ``r``
    is no tensor: ``<T`` reads it next to ``T``, which no table gives.)"""
    def reads(name, among=needed, every=any):
        return name in among or (name in labels.OPERANDS and every(
            reads(m, among, every) for _, _, names in labels.OPERANDS[name] for m in names))

    def degree(name):
        return sum(map(degree, labels.OPERANDS[name][0][2])) if name in labels.OPERANDS else 1

    pool = {}
    for terms in [labels.SPECS[code][1] for code in CODES] + list(labels.OPERANDS.values()):
        for _, subs, names in terms:
            if len(names) > 1 and any(map(reads, names)) and all(reads(m, ("<", ">", "r"), all) for m in names):
                pool.setdefault((len(subs.split("->")[1]), sum(map(degree, names))), []).append((subs, names))
    return pool


POOL = _pool(("<", ">", "r"))
R_POOL = _pool(("r",))  # every term vanishes at r = 0


def _permuted(rng, subs):
    """The same contraction with its output axes in a random order, written
    with the output letters ``ABCD`` (the terms of one spec must share them)."""
    inputs, out = subs.split("->")
    rename = dict(zip(out, rng.sample("ABCD"[: len(out)], len(out))))
    return f"{''.join(rename.get(c, c) for c in inputs)}->{'ABCD'[: len(out)]}"


def _specs(rng, pool):
    """Two to four specs built to share contractions: one term with its
    outputs permuted in two specs, one of them scaled by ``HUGE`` so that
    the call runs on Python ints (which of the two comes first is random);
    maybe an R-tensor read whole next to one of its own terms, permuted; and
    random fillers."""
    rank, degree = rng.choice(sorted(key for key in pool if key[0] in (3, 4)))
    shared = rng.choice(pool[rank, degree])
    big = rng.randrange(2)

    def fill(key):
        return [(rng.choice((-2, -1, 1, 3)), _permuted(rng, subs), names)
                for subs, names in rng.sample(pool[key], min(len(pool[key]), rng.randint(0, 2)))]

    specs = {f"s{k}": [(HUGE if k == big else rng.choice((-1, 1, 2)), _permuted(rng, shared[0]), shared[1])]
             + fill((rank, degree)) for k in range(2)}
    if rank == 3 and rng.random() < 0.7:
        name = rng.choice(labels.R_TENSORS)
        _, subs, names = rng.choice(labels.OPERANDS[name])
        specs["whole"] = [(1, "ABC->ABC", (name,))]
        specs["term"] = [(rng.choice((-1, 1)), _permuted(rng, subs), names)] + fill((3, 3))
    return specs


def _tables(rng, n):
    def entry():
        return F(rng.randint(-3, 3), rng.choice((1, 1, 2)))

    return {"<": table_of((n, n, n), (entry() for _ in range(n**3))),
            ">": table_of((n, n, n), (entry() for _ in range(n**3))),
            "r": table_of((n, n), (entry() for _ in range(n**2)))}


def _want(terms, tables, defined=None):
    names = sorted({m for _, _, ns in terms for m in ns})
    return reference(terms, derive(names, tables, defined))


def _contractions(program):
    """The terms of a program's sums, derived operands' included, that read
    a contraction: each term has one step into its sum's register, which
    reads a register a contraction step set, unless the term permutes an
    operand."""
    steps = [(out, step) for steps, out, *_ in program.code for step in steps]
    computed = {to for out, (_, to, _, op, *_) in steps if op is not None}
    return sum(to == out and ins[0] in computed for out, (_, to, _, _, ins, _) in steps)


def test_shared_slots_match_reference():
    """On random spec dicts built to share contractions, every spec's value
    is the reference value, though the program computes fewer contractions
    than the specs name, and each first term summed in place reads a
    register no later step reads; one sum of each call is scaled past int64,
    so the whole call, the sums reading its slot in int64 range included,
    runs on Python ints."""
    rng = random.Random(14)
    for trial in range(30):
        n = 2 if trial % 5 else 3
        specs, tables = _specs(rng, POOL), _tables(rng, n)
        got = evaluate(specs, tables)
        for key, terms in specs.items():
            e = got[key]
            assert {idx: F(int(e.num[idx]), e.den) for idx in np.ndindex(e.shape)} == _want(terms, tables)
        arrays = {name: core.exact(t).num for name, t in tables.items()}
        program = core._compile(specs, arrays)
        assert program.slots < _contractions(program)
        _in_place_terms(program)
        assert {num.dtype for num, _ in contract(specs, tables).values()} == {np.dtype(object)}


# derived operands whose value is zero: the terms of C cancel, a term of Z has the coefficient 0
NULL = {"C": ((2, "ijk->ijk", ("<",)), (-2, "ijk->ijk", ("<",))),
        "Z": ((0, "ijk->ijk", (">",)), (1, "ijk->kji", (">",)))}


def _exact_bounds(program, maxabs) -> list:
    """Each sum's ``_bound``, taken in order, a derived operand counting at
    its own sum's bound: the exact rule the certificate stands for."""
    maxabs, bounds = dict(maxabs), []
    for key, factors, names, derived in program.bounds:
        bounds.append(core._bound(factors, [maxabs[name] for name in names]))
        if derived:
            maxabs[key] = bounds[-1]
    return bounds


def test_the_certificate_decides_as_the_exact_bounds():
    """On random specs of the pool, with random coefficients (0 and 2**62
    among them), half of them beside a spec that reads the derived operands
    of ``NULL``: each sum's exact ``_bound`` is at most the program's
    certificate for its degree, F * M**d, and the dtype the program runs in
    is the one the exact bounds decide, with every input at maxabs 0 (all
    zero), at random maxabs around 2**63 and 2**31, and just below, at, and
    just past the largest maxabs m at which the exact bounds fit int64, when
    every input is at m, and when each is at m shifted right by 0, 5 or 30
    bits (so that the certificate, which counts every input at m, fails
    where the exact bounds fit)."""
    rng = random.Random(35)
    near = [0, 1, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1]
    for trial in range(24):
        specs = {key: [(rng.choice((0, -3, HUGE) if rng.random() < 0.2 else (1, -1, 2)), subs, names)
                       for _, subs, names in terms] for key, terms in _specs(rng, POOL).items()}
        if trial % 2:
            specs["null"] = [(1, "ijk,kl->ijl", ("C", "r")), (-1, "ijk,kl->ijl", ("Z", "r"))]
        arrays = {name: core.exact(t).num for name, t in _tables(rng, 2).items()}
        program = core._compile(specs, arrays, (), NULL if trial % 2 else None)
        certificate = dict(program.certificate)

        def decides(maxabs):
            """Whether the exact bounds fit int64; checks the certificate and the dtype the program runs in."""
            bounds, m = _exact_bounds(program, maxabs), max(1, *maxabs.values())
            for bound, (*_, deg, _, _) in zip(bounds, program.code):
                assert bound <= certificate[deg] * m**deg
            fits = max(0, *maxabs.values(), *bounds) <= core.INT64_MAX
            assert {num.dtype for _, num, _ in program.run(arrays, maxabs)} == {np.dtype(np.int64 if fits else object)}
            return fits

        decides(dict.fromkeys(arrays, 0))
        for _ in range(3):
            decides({name: rng.choice(near) for name in arrays})
        for shift in (dict.fromkeys(arrays, 0), {name: rng.choice((0, 5, 30)) for name in arrays}):
            def at(m):  # each input's maxabs: m shifted right by its shift
                return {name: m >> shift[name] for name in arrays}

            lo, hi = -1, 2**64  # the exact bounds fit at(lo) (-1: at none), not at(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if max(_exact_bounds(program, at(mid)) + [*at(mid).values()]) <= core.INT64_MAX:
                    lo = mid
                else:
                    hi = mid
            fits = [decides(at(m)) for m in (lo - 1, lo, hi) if m >= 0]
            assert fits == [True] * (len(fits) - 1) + [False]


@pytest.mark.parametrize("budget", [None, 1])
def test_batched_shared_slots_match_reference(monkeypatch, budget):
    """The same on a batch of r (two of them zero) with fixed integer < and
    >, every term reading r: each member of ``sum_batched`` is the reference
    value on that member, each first term summed in place reads a register
    no later step reads, and ``zero_mask`` (at the default budget and at 1
    byte, one member per chunk) keeps the members whose every residual is
    zero."""
    if budget:
        monkeypatch.setattr(core, "BATCH_BYTES", budget)
    rng = random.Random(41)
    n, size = 2, 5
    for _ in range(6):
        specs = _specs(rng, R_POOL)
        fixed = {name: np.array([[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(n)])
                 for name in "<>"}
        r = np.array([[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(size)])
        r[1] = r[3] = 0
        got = sum_batched(specs, {**fixed, "r": r}, batch={"r"})
        _in_place_terms(core._compile(specs, {**fixed, "r": r}, {"r"}))
        zero = []
        for m in range(size):
            tables = {name: a.tolist() for name, a in {**fixed, "r": r[m]}.items()}
            wants = {key: _want(terms, tables) for key, terms in specs.items()}
            for key, want in wants.items():
                assert {idx: F(int(got[key][m][idx])) for idx in want} == want
            zero.append(not any(v for want in wants.values() for v in want.values()))
        mask = core.zero_mask(specs, size, lambda lo, hi: {"r": r[lo:hi]}, fixed)
        assert mask.tolist() == zero and zero[1] and zero[3]


def test_program_cache_is_a_bounded_lru(bialg2):
    """The programs are the kernel's one cache, an LRU of ``PLAN_CACHE``
    entries: a repeated call compiles nothing; past the bound the cache
    stays at its maxsize and the least recently used program is dropped
    first."""
    check_bialgebra(bialg2.algebra, bialg2.coalgebra)
    misses = core._program.cache_info().misses
    check_bialgebra(bialg2.algebra, bialg2.coalgebra)
    assert core._program.cache_info().misses == misses
    assert core._program.cache_info().maxsize == core.PLAN_CACHE
    a = np.arange(4, dtype=np.int64)

    def call(coef):
        assert int(sum_batched({"": [(coef, "i->", ("a",))]}, {"a": a})[""]) == 6 * coef
        return core._program.cache_info()

    first = call(1)
    for coef in range(2, core.PLAN_CACHE + 50):
        last = call(coef)
    assert last.currsize == core.PLAN_CACHE
    assert call(core.PLAN_CACHE + 49).misses == last.misses  # the most recent is kept
    assert call(1).misses == last.misses + 1 > first.misses  # the oldest was dropped


def _load(name):
    return bundle_to_objects(parse_bundle((FIXTURES / name).read_text()))


def _einsum_calls(monkeypatch, run) -> tuple[int, list]:
    """The number of einsum calls ``run`` makes, and the slots of each
    program it runs."""
    calls, slots = [], []
    einsum, compile_ = np.einsum, core._compile

    def compiled(*args):
        program = compile_(*args)
        slots.append(program.slots)
        return program

    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(1) or einsum(*args, **kwargs))
    monkeypatch.setattr(core, "_compile", compiled)
    run()
    return len(calls), slots


def test_dim4_runs_evaluate_each_contraction_once(monkeypatch):
    """``check_bialgebra`` on the dim-4 bialgebra fixture and
    ``coboundary_diagnostics`` on the dim-4 semidirect algebra with its
    solution stay within their einsum calls (63 and 150 when every term
    made its own), and each runs one program whose slot count is pinned
    (41 and 51), so a contraction that stops being shared fails."""
    bialg = _load("dim4_bialgebra.json")
    alg, r = _load("dim4_semidirect.json"), _load("dim4_ybe_solution.json")
    calls, slots = _einsum_calls(monkeypatch, lambda: check_bialgebra(bialg.algebra, bialg.coalgebra))
    assert calls <= 45 and slots == [41]
    calls, slots = _einsum_calls(monkeypatch, lambda: coboundary_diagnostics(alg, r))
    assert calls <= 98 and slots == [51]


def test_every_program_has_a_peak_and_these_may_only_fall(monkeypatch):
    """``peak`` is counted on every program, batched or not: the unbatched
    dim-4 ``check_bialgebra`` program has one.  The enumeration's ``2.11``
    (stage 1) and ``2.8`` (stage 3) programs hold, per member, 32 and 56
    entries while their second term runs: the array it forms, the copy it
    is summed into and the contraction both terms read.  Their peaks are
    those totals, so a slot read twice in one sum cannot go uncounted.  The
    peaks of the dim-4 search's row programs are pinned as values that may
    only fall (4, 8, 12 and 16), so that a slot or derived operand counted
    past its last reader fails."""
    bialg = _load("dim4_bialgebra.json")
    (checked, *_), = _recorded(monkeypatch, lambda: check_bialgebra(bialg.algebra, bialg.coalgebra))
    assert not checked.batch and checked.peak > 0
    member = np.zeros((1, 2, 2, 2), np.int64)
    stage_1 = core._compile(algebras._specs("2.11"), {"<": member}, {"<"})
    stage_3 = core._compile(algebras._specs("2.8"), {"<": member, ">": member}, {"<", ">"})
    assert (stage_1.peak, stage_3.peak) == (32, 56)
    searched = _recorded(monkeypatch, lambda: search_symmetric_ybe(_load("dim4_semidirect.json"), [-1, 0, 1]))
    rows = [program.peak for program, specs, *_ in searched if all(type(key) is tuple for key in specs)]
    assert len(rows) == 4 and all(0 < peak <= pin for peak, pin in zip(rows, (4, 8, 12, 16)))


def test_each_register_is_dropped_after_its_last_reader(monkeypatch):
    """In the programs of the dim-4 ``check_bialgebra`` and
    ``coboundary_diagnostics``, every register a step writes (no input's) is
    dropped once, when the last sum whose steps read it ends (the sum that
    writes it, if no step reads it), and a run holds no spec's value once it
    has yielded the next."""
    programs, run = [], core._Program.run
    monkeypatch.setattr(core._Program, "run", lambda self, *args: programs.append((self, args)) or run(self, *args))
    bialg = _load("dim4_bialgebra.json")
    check_bialgebra(bialg.algebra, bialg.coalgebra)
    coboundary_diagnostics(_load("dim4_semidirect.json"), _load("dim4_ybe_solution.json"))
    for program, args in programs:
        last, dropped = {}, []
        for s, (steps, *_, frees) in enumerate(program.code):
            for _, to, _, _, ins, _ in steps:
                last.update(dict.fromkeys((to, *ins), s))
            dropped += [(k, s) for k in frees]
        written = {to for steps, *_ in program.code for _, to, *_ in steps}
        assert min(written) >= len(program.names)
        assert sorted(dropped) == sorted((k, last[k]) for k in written)
        refs = []
        for _, num, _ in run(program, *args):
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(num))
            del num


def _recorded(monkeypatch, run) -> list:
    """Each distinct program ``run`` compiles, with the specs, arrays, batch
    and derived operands of its first compile."""
    programs, compile_ = {}, core._compile

    def compiled(specs, arrays, batch=(), derived=None):
        program = compile_(specs, arrays, batch, derived)
        programs.setdefault(id(program), (program, dict(specs), dict(arrays), set(batch), derived or {}))
        return program

    with monkeypatch.context() as patch:
        patch.setattr(core, "_compile", compiled)
        run()
    return list(programs.values())


def _in_place_terms(program) -> int:
    """How many first terms of the program's sums take their array in place
    (``_SET`` of no op), each asserted to read a register that no later
    step reads."""
    later, count = set(), 0
    for act, _, _, op, ins, _ in reversed([step for steps, *_ in program.code for step in steps]):
        if act == core._SET and op is None:
            assert ins[0] not in later
            count += 1
        later.update(ins)
    return count


def test_in_place_first_terms_read_registers_no_later_step_reads(monkeypatch):
    """In every program the dim-4 CLI commands compile, a first term summed
    in place reads a register that no later step reads, so that no later
    term or sum reads the array it adds into (random pool specs get the same
    check in the two ``shared_slots`` tests).  The values of the programs of
    ``check`` (the dim-4 bialgebra and coalgebra), ``search``, ``ybe`` and
    ``coboundary`` (on the semidirect pair) are ``reference``'s, whole or on
    the first and last member of a batch; ``derive``, ``double`` and
    ``diag``, whose reference loops take seconds, are checked for the first
    part only (their outputs are pinned by ``test_cli_golden``)."""
    pair = [str(FIXTURES / "dim4_semidirect.json"), str(FIXTURES / "dim4_ybe_solution.json")]
    runs = [["check", str(FIXTURES / name)] for name in ("dim4_bialgebra.json", "dim4_coalgebra.json")]
    runs += [["search", pair[0]], ["ybe", *pair], ["coboundary", *pair]]
    programs = _recorded(monkeypatch, lambda: [run_command(argv, out=io.StringIO()) for argv in runs])
    in_place = 0
    for program, specs, arrays, batch, derived in programs:
        in_place += _in_place_terms(program)
        got = {key: num for key, num, _ in program.run(arrays, {name: core._maxabs(a) for name, a in arrays.items()})}
        for m in {0, len(arrays[min(batch)]) - 1} if batch else {None}:
            tables = {name: (a if m is None or name not in batch else a[m]).tolist() for name, a in arrays.items()}
            for key, terms in specs.items():
                want, num = _want(terms, tables, derived), got[key] if m is None else got[key][m]
                assert {idx: F(int(num[idx])) for idx in want} == want
    runs = [["derive", pair[0]], ["double", str(FIXTURES / "dim4_bialgebra.json")], ["diag", *pair]]
    shaped = _recorded(monkeypatch, lambda: [run_command(argv, out=io.StringIO()) for argv in runs])
    in_place += sum(_in_place_terms(program) for program, *_ in shaped)
    assert in_place > len(programs) + len(shaped)


def test_one_program_per_member_shape(monkeypatch):
    """A program is keyed by its inputs' member shapes, not by the batch
    length: ``sum_batched`` of one spec at batch lengths 3 and 5 compiles
    once, and a ``zero_members`` sweep whose chunks have two lengths (3 and
    2) compiles one program, which sizes its first chunk and runs all."""
    core._program.cache_clear()
    terms = [(1, "ij,jk->ik", ("m", "v")), (-1, "ij,jk->ik", ("v", "m"))]
    fixed = {"v": np.eye(2, dtype=np.int64)}
    for size in (3, 5):
        got = sum_batched({"": terms}, {**fixed, "m": np.ones((size, 2, 2), np.int64)}, batch={"m"})[""]
        assert got.shape == (size, 2, 2) and not got.any()
    assert core._program.cache_info().misses == 1

    core._program.cache_clear()
    r = np.arange(20, dtype=np.int64).reshape(5, 2, 2) % 3
    program = core._compile({"": terms}, {**fixed, "m": r[:1]}, {"m"})
    monkeypatch.setattr(core, "BATCH_BYTES", 8 * program.peak * 3)  # 3 members a chunk
    chunks = [len(ops["m"]) for ops, _ in core.zero_members({"": terms}, 5, lambda lo, hi: {"m": r[lo:hi]}, fixed)]
    assert chunks == [3, 2] and core._program.cache_info().misses == 1
