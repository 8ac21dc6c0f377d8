"""The compiled kernel programs of ``core``: their per-sum overflow bound,
their cache under random specs, their pathed branch at dimension 8, and the
residual strings and violation views of reports."""

import itertools
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings

from prenovikov import core, labels
from prenovikov.algebras import PreNovikovAlgebra, check_pre_novikov
from prenovikov.bialgebra import PreNovikovCoalgebra, check_bialgebra
from prenovikov.core import StructureConstants, contract
from prenovikov.io import render_report
from prenovikov.report import ReportBuilder

from kernel_reference import derive, overflow_bound, reference, table_of
from test_kernel import problems

F = Fraction
TERM_LISTS = [spec[1] for spec in labels.SPECS.values()] + list(labels.OPERANDS.values())


def _inputs(terms, leaves):
    """The ranks of the tables a term list is compiled on: its operands, or
    (``leaves``) the tables its derived operands are derived from."""
    ranks = {}
    for _, subs, names in terms:
        for letters, name in zip(subs.split("->")[0].split(","), names):
            if leaves and name in labels.OPERANDS:
                ranks.update(_inputs(labels.OPERANDS[name], True))
            else:
                ranks[name] = len(letters)
    return ranks


def test_plan_bound_is_overflow_bound_of_degree_scaled_terms():
    """For every spec and operand term list, compiled on its operands and on
    the tables its derived operands come from, the terms of each sum have
    one degree, the sum's (an input has degree 1, a derived operand the
    degree of its own sum), and its ``_bound`` equals ``overflow_bound`` of
    its terms.  On their operands, the term lists whose terms read
    different numbers of them (4.7-4.9, whose R-tensors are then inputs)
    mix degrees, and are refused."""
    rng = random.Random(9)
    for terms, n, leaves in itertools.product(TERM_LISTS, (1, 2, 3, 4), (False, True)):
        inputs = tuple((name, (n,) * rank) for name, rank in _inputs(terms, leaves).items())
        shapes, degrees = dict(inputs), {name: 1 for name, _ in inputs}
        try:
            program = core._Program((("spec", tuple(terms)),), inputs, frozenset())
        except core.InputError:
            assert not leaves and len({len(ns) for _, _, ns in terms}) > 1
            continue
        for (key, factors, names, derived), (*_, top, _, _) in zip(program.bounds, program.code):
            own_terms = labels.OPERANDS[key] if derived else terms
            assert {sum(degrees[m] for m in ns) for _, _, ns in own_terms} == {top}
            if derived:
                shapes[key], degrees[key] = (n,) * len(own_terms[0][1].split("->")[1]), top
            for _ in range(3):
                maxabs = {name: rng.choice((0, 1, rng.randint(2, 50), rng.randint(1, 2**40)))
                          for name in names}
                assert core._bound(factors, [maxabs[m] for m in names]) == overflow_bound(own_terms, shapes, maxabs)


@settings(max_examples=25, deadline=None)
@given(problems())
def test_plan_cache_stays_bounded_under_random_specs(problem):
    specs, tables = problem
    contract(specs, tables)
    info = core._program.cache_info()
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
        core._program.cache_clear()
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


def test_report_boxes_one_fraction_per_distinct_residual():
    """Every nonzero witness is listed, with its residual; equal residual
    values of one identity share one string object."""
    rng = random.Random(3)
    rows = [[[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    lhd, rhd = StructureConstants.from_rows(rows), StructureConstants.from_rows(rows[::-1])
    report = check_pre_novikov(lhd, rhd)
    operands = {m for code in labels.PRE_NOVIKOV for _, _, ns in labels.SPECS[code][1] for m in ns}
    tables = derive(sorted(operands), {"<": lhd.c, ">": rhd.c})
    want = {}
    for code in labels.PRE_NOVIKOV:
        witness = len(labels.SPECS[code][0])
        for idx, value in sorted(reference(labels.SPECS[code][1], tables).items()):
            want.setdefault((code, idx[:witness]), []).append(str(value))
    want = {key: tuple(value) for key, value in want.items() if set(value) != {"0"}}
    assert {(v.identity, v.witness_index): v.residual for v in report.violations} == want
    assert len(report.violations) == len(want) > 0
    for code in labels.PRE_NOVIKOV:
        boxes = {}
        for x in (x for v in report.violations if v.identity == code for x in v.residual):
            assert boxes.setdefault(x, x) is x


def test_passed_makes_no_violation_view(monkeypatch):
    """``passed`` and both renderings of a failing bialgebra report read the
    held residual arrays: no violation view is made through
    ``ReportBuilder.residual`` until the violations are read, and then one
    per violation."""
    made = []
    residual = ReportBuilder.residual
    monkeypatch.setattr(ReportBuilder, "residual", lambda *fields: made.append(fields) or residual(*fields))
    rng = random.Random(5)
    tables = [[[[rng.choice((-1, 0, 1)) for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(4)]
    lhd, rhd, alpha, beta = map(StructureConstants.from_rows, tables)
    report = check_bialgebra(PreNovikovAlgebra(lhd, rhd), PreNovikovCoalgebra(2, alpha.c, beta.c))
    assert not report.passed
    render_report(report, "text"), render_report(report, "machine")
    assert made == []
    assert len(report.all_violations()) == len(made) > 0
