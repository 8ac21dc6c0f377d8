"""The report writers of ``io.render_report`` against the reference writers
of ``report_reference``, on the report of every checker: random fractional
tables at dimensions 1-4, passing and failing, nested sections, residuals on
Python ints (entries near 2**40) and hostile basis labels."""

import json
import math
import random
from fractions import Fraction

import pytest

from prenovikov import (
    FormMatrix,
    MatchedPair,
    NovikovAlgebra,
    NovikovRep,
    PreNovikovAlgebra,
    PreNovikovCoalgebra,
    PreNovikovRep,
    check_bialgebra,
    check_coalgebra,
    check_compatibility,
    check_matched_pair,
    check_novikov,
    check_novikov_rep,
    check_o_operator_novikov,
    check_o_operator_pre_novikov,
    check_pre_novikov,
    check_pre_novikov_rep,
    check_quasi_frobenius,
)
from prenovikov.core import StructureConstants
from prenovikov.io import parse_report, render_report
from prenovikov.report import Report

from kernel_reference import table_of
from report_reference import report_doc, report_lines

# label pieces that need escaping in JSON, or are not ASCII
HOSTILE = ("é", "∂", '"', "\\", "\x00", "\t", "\n", "\x1f", "/", "e", "*", "😀")


def _table(rng: random.Random, shape: tuple, density: float, huge: bool):
    """Nested rational tuples of ``shape``, each entry nonzero with
    probability ``density`` and, when ``huge``, near +-2**40."""
    values = []
    for _ in range(math.prod(shape)):
        v = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
        v += 2**40 * rng.choice((1, -1)) if huge else 0
        values.append(v if rng.random() < density else Fraction(0))
    return table_of(shape, iter(values))


def _labels(rng: random.Random, n: int, prefix: str) -> tuple[str, ...]:
    return tuple(prefix + "".join(rng.choice(HOSTILE) for _ in range(rng.randint(0, 3))) + str(i) for i in range(n))


def _reports(rng: random.Random, n: int, density: float, huge: bool) -> list:
    m = rng.randint(1, 3)

    def t(*shape):
        return _table(rng, shape, density, huge)

    a, b = StructureConstants(n, t(n, n, n)), StructureConstants(n, t(n, n, n))
    pre, nov = PreNovikovAlgebra(a, b), NovikovAlgebra(a)
    co = PreNovikovCoalgebra(n, t(n, n, n), t(n, n, n))
    basis, module = _labels(rng, n, "e"), _labels(rng, m, "v")
    nrep = NovikovRep(nov, t(n, m, m), t(n, m, m))
    prep = PreNovikovRep(pre, t(n, m, m), t(n, m, m), t(n, m, m), t(n, m, m))
    mp = MatchedPair(a, StructureConstants(m, t(m, m, m)), t(n, m, m), t(n, m, m), t(m, n, n), t(m, n, n))
    reports = [
        check_novikov(a, basis=basis),
        check_pre_novikov(a, b, basis=basis),
        check_quasi_frobenius(a, FormMatrix(n, t(n, n)), basis=basis),
        check_coalgebra(co, basis=basis),
        check_compatibility(pre, co, basis=basis),
        check_bialgebra(pre, co, basis=basis),
        check_matched_pair(mp, basis_a=basis, basis_b=module),
        check_novikov_rep(nov, nrep, basis=basis, module_basis=module),
        check_pre_novikov_rep(pre, prep, basis=basis, module_basis=module),
        check_o_operator_novikov(nov, nrep, t(n, m), module_basis=module),
        check_o_operator_pre_novikov(pre, prep, t(n, m), module_basis=module),
    ]
    return reports + [Report("composite", sections=tuple(reports[5:7]))]


@pytest.mark.parametrize("huge", [False, True])
@pytest.mark.parametrize("density", [0.0, 0.15, 0.6, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_writers_match_the_reference(n, density, huge):
    """Machine output is ``json.dumps`` of the reference document, text output
    the reference lines, and a parsed machine report equals the report and
    renders to the same bytes in both formats."""
    rng = random.Random(f"{n}:{density}:{huge}")
    verdicts = set()
    for report in _reports(rng, n, density, huge):
        machine, text = render_report(report, "machine"), render_report(report, "text")
        assert machine == json.dumps(report_doc(report), sort_keys=True, indent=2) + "\n"
        assert text == "\n".join(report_lines(report)) + "\n"
        back = parse_report(machine)
        assert back == report
        assert (render_report(back, "machine"), render_report(back, "text")) == (machine, text)
        verdicts.add(report.passed)
    assert False in verdicts and (density or True in verdicts)
