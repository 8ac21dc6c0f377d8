"""The compiled contraction plans of ``core``: their overflow bound, their
cache, their pathed branch at dimension 8, and the boxing of report
residuals."""

import itertools
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings

from prenovikov import check_bialgebra, core, labels
from prenovikov.algebras import check_pre_novikov
from prenovikov.core import StructureConstants, contract
from prenovikov.report import ReportBuilder

from kernel_reference import derive, overflow_bound, reference, table_of
from test_kernel import problems

F = Fraction
TERM_LISTS = [spec[1] for spec in labels.SPECS.values()] + list(labels.OPERANDS.values())


def test_plan_bound_is_overflow_bound_of_degree_scaled_terms():
    """For every spec and operand term list, the plan's per-call bound equals
    ``overflow_bound`` of the terms with each coefficient scaled to the top
    degree."""
    rng = random.Random(9)
    for terms, n in itertools.product(TERM_LISTS, (1, 2, 3, 4)):
        names = core._names(tuple(terms))
        ranks = {name: len(letters) for _, subs, ns in terms
                 for letters, name in zip(subs.split("->")[0].split(","), ns)}
        shapes = {name: (n,) * ranks[name] for name in names}
        degrees = {name: rng.randint(1, 3) for name in names}
        for _ in range(3):
            maxabs = {name: rng.choice((0, 1, rng.randint(2, 50), rng.randint(1, 2**40)))
                      for name in names}
            den = rng.choice((1, 2, rng.randint(3, 60)))
            plan = core._plan(tuple(terms), tuple(shapes[m] for m in names),
                              tuple(degrees[m] for m in names), frozenset())
            own = [sum(degrees[m] for m in ns) for _, _, ns in terms]
            scaled = [(coef * den ** (max(own) - d), subs, ns)
                      for (coef, subs, ns), d in zip(terms, own)]
            assert plan.top == max(own)
            assert plan.bound([maxabs[m] for m in names], den) == overflow_bound(scaled, shapes, maxabs)


def test_repeated_call_compiles_no_plan(bialg2):
    check_bialgebra(bialg2.algebra, bialg2.coalgebra)
    misses = core._plan.cache_info().misses
    check_bialgebra(bialg2.algebra, bialg2.coalgebra)
    assert core._plan.cache_info().misses == misses


def test_plan_cache_is_bounded():
    """More distinct term lists than the cache holds leave it at its maxsize."""
    maxsize = core._plan.cache_info().maxsize
    assert maxsize == core.PLAN_CACHE
    a = np.arange(4, dtype=np.int64)
    for coef in range(1, maxsize + 50):
        assert int(core.sum_batched({"": [(coef, "i->", ("a",))]}, {"a": a})[""]) == 6 * coef
    assert core._plan.cache_info().currsize == maxsize


@settings(max_examples=25, deadline=None)
@given(problems())
def test_plan_cache_stays_bounded_under_random_specs(problem):
    specs, tables = problem
    contract(specs, tables)
    info = core._plan.cache_info()
    assert info.currsize <= info.maxsize


def _block(rng, n, huge):
    def entry():
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    tables = {
        "<": table_of((n, n, n), (entry() for _ in range(n**3))),
        ">": table_of((n, n, n), (entry() for _ in range(n**3))),
        "r": table_of((n, n), (entry() for _ in range(n**2))),
    }
    if huge:  # above INT64_MAX once lifted, so every sum runs on Python ints
        c = [[list(row) for row in plane] for plane in tables["<"]]
        c[0][1][2] = F(2**64 + 5, 3)
        tables["<"] = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return tables


def _embed(block, n, offset):
    """A block table placed at ``offset`` along every axis of a zero table of
    size ``n``, as nested tuples."""
    src = np.array(block, dtype=object)
    out = np.full((n,) * src.ndim, F(0), dtype=object)
    out[(slice(offset, offset + src.shape[0]),) * src.ndim] = src
    return out.tolist()


def test_dim8_lemma_equations_along_paths_match_reference(monkeypatch):
    """4.7-4.9 at dimension 8, where every term of three or more operands
    runs pairwise along its path, in int64 and on Python ints.

    The tables are one random dimension-3 block placed on the diagonal of
    zero tables (every term is connected through shared letters, so an
    entry is nonzero only inside the block).  The reference runs on the
    block alone: at dimension 8 its loops over 8**7 index values per term
    would take minutes.
    """
    pathed, steps = [], core._steps

    def recording(*args):
        out = steps(*args)
        pathed.append(len(out[0]) > 1)
        return out

    monkeypatch.setattr(core, "_steps", recording)
    codes = ("4.7", "4.8", "4.9")
    rng = random.Random(48)
    for huge, offset in ((False, 5), (True, 0)):
        core._plan.cache_clear()
        block = _block(rng, 3, huge)
        got = contract({code: labels.SPECS[code][1] for code in codes},
                       {name: _embed(t, 8, offset) for name, t in block.items()})
        operands = {m for code in codes for _, _, ns in labels.SPECS[code][1] for m in ns}
        ref_tables = derive(sorted(operands), block)
        for code in codes:
            num, den = got[code]
            assert num.dtype == (object if huge else np.int64)
            want = reference(labels.SPECS[code][1], ref_tables)
            inside = np.zeros(num.shape, dtype=bool)
            inside[(slice(offset, offset + 3),) * num.ndim] = True
            assert not num[~inside].any()
            for idx, value in want.items():
                assert F(int(num[tuple(i + offset for i in idx)]), den) == value
    assert any(pathed)


def test_report_boxes_one_fraction_per_distinct_residual(monkeypatch):
    """Every nonzero witness is still recorded through ``residual``; equal
    residual values of one identity share one Fraction object."""
    rng = random.Random(3)
    rows = [[[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    lhd, rhd = StructureConstants.from_rows(rows), StructureConstants.from_rows(rows[::-1])
    seen = []
    residual = ReportBuilder.residual
    monkeypatch.setattr(ReportBuilder, "residual",
                        lambda self, code, w, value: seen.append((code, value)) or residual(self, code, w, value))
    report = check_pre_novikov(lhd, rhd)
    assert len(seen) == len(report.violations) > 0
    for code in labels.PRE_NOVIKOV:
        boxes = {}
        for x in (x for c, value in seen if c == code for x in value):
            assert boxes.setdefault(x, x) is x
