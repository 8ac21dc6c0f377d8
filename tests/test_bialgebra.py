from fractions import Fraction

import numpy as np
import pytest

from prenovikov import (
    PreNovikovAlgebra,
    PreNovikovBialgebra,
    PreNovikovCoalgebra,
    check_bialgebra,
    check_coalgebra,
    check_compatibility,
    check_pre_novikov,
    check_matched_pair,
    coalgebra_to_dual_algebra,
    induced_matched_pair,
)
from prenovikov import algebras, bialgebra, core, labels, representations
from prenovikov.core import Exact, InputError, StructureConstants, contract

from tensor_reference import zeros


F = Fraction


def test_dual_algebra_values(co2):
    lhd_star, rhd_star = coalgebra_to_dual_algebra(co2)
    # alpha(e1) = e2 (x) e2 induces e2* <* e2* = e1*
    assert lhd_star.c[1][1] == (F(1), F(0))
    # beta(e1) = -e2 (x) e2 induces e2* >* e2* = -e1*
    assert rhd_star.c[1][1] == (F(-1), F(0))
    nonzero_l = [(p, q) for p in range(2) for q in range(2) if any(lhd_star.c[p][q])]
    nonzero_r = [(p, q) for p in range(2) for q in range(2) if any(rhd_star.c[p][q])]
    assert nonzero_l == [(1, 1)] and nonzero_r == [(1, 1)]
    zero_co = PreNovikovCoalgebra(2, (zeros(2), zeros(2)), (zeros(2), zeros(2)))
    zl, zr = coalgebra_to_dual_algebra(zero_co)
    assert zl.is_zero() and zr.is_zero()


def test_dual_algebra_of_fixture_is_pre_novikov(co2):
    lhd_star, rhd_star = coalgebra_to_dual_algebra(co2)
    assert check_pre_novikov(lhd_star, rhd_star).passed


def test_check_coalgebra_examples(co2):
    assert check_coalgebra(co2).passed
    zero_co = PreNovikovCoalgebra(2, (zeros(2), zeros(2)), (zeros(2), zeros(2)))
    assert check_coalgebra(zero_co).passed


def test_alpha_e1_tensor_e1_is_actually_valid():
    """Pinned: this candidate satisfies every co-identity (its double
    products collapse), so it is a positive case, not a failing one."""
    alpha = (((F(1), F(0)), (F(0), F(0))), zeros(2))
    co = PreNovikovCoalgebra(2, alpha, (zeros(2), zeros(2)))
    assert check_coalgebra(co).passed


def test_failing_coalgebra_and_dual_route_consistency():
    ones = tuple(tuple(F(-1) for _ in range(2)) for _ in range(2))
    co = PreNovikovCoalgebra(2, (ones, zeros(2)), (ones, zeros(2)))
    report = check_coalgebra(co)
    assert not report.passed
    ids = {v.identity for v in report.violations}
    assert {"3.11", "3.13"} <= ids
    # the nested section is the dual-algebra route's report
    assert report.sections == (_dual_route(co, ("e1", "e2")),)
    assert not report.sections[0].passed


def _dual_route(co, lab):
    """The nested section as the dual-algebra route gives it: the pre-Novikov
    check of the dual products."""
    return check_pre_novikov(*coalgebra_to_dual_algebra(co), basis=tuple(f"{b}*" for b in lab))


def test_dual_route_agreement_over_mutations(co2):
    """For every single-entry mutation the nested section equals the
    dual-algebra route's report, and the two verdicts agree."""
    for which in ("alpha", "beta"):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    maps = getattr(co2, which)
                    mutated = [
                        [list(row) for row in t2] for t2 in maps
                    ]
                    mutated[i][j][k] += 1
                    new = tuple(tuple(map(tuple, t)) for t in mutated)
                    co = PreNovikovCoalgebra(
                        2,
                        new if which == "alpha" else co2.alpha,
                        new if which == "beta" else co2.beta,
                    )
                    report = check_coalgebra(co)
                    dual = _dual_route(co, ("e1", "e2"))
                    assert report.sections == (dual,)
                    assert (not report.violations) == dual.passed


def test_check_compatibility_examples(alg2, co2):
    assert check_compatibility(alg2, co2).passed
    zero_co = PreNovikovCoalgebra(2, (zeros(2), zeros(2)), (zeros(2), zeros(2)))
    assert check_compatibility(alg2, zero_co).passed
    negated_beta = tuple(
        tuple(tuple(-v for v in row) for row in t) for t in co2.beta
    )
    report = check_compatibility(alg2, PreNovikovCoalgebra(2, co2.alpha, negated_beta))
    assert not report.passed
    first = report.violations[0]
    assert first.identity == "3.16" and first.witness == ("e1", "e1")
    with pytest.raises(InputError):
        check_compatibility(alg2, PreNovikovCoalgebra(3, (zeros(3),) * 3, (zeros(3),) * 3))


def test_check_bialgebra(alg2, co2, alg4):
    assert check_bialgebra(alg2, co2).passed
    zero_alg = PreNovikovAlgebra(StructureConstants.zero(2), StructureConstants.zero(2))
    zero_co = PreNovikovCoalgebra(2, (zeros(2), zeros(2)), (zeros(2), zeros(2)))
    assert check_bialgebra(zero_alg, zero_co).passed
    # the four-dimensional fixture bialgebra: alpha(e2*) = 2 e1* (x) e1*, beta = 0
    a4 = [[[F(0)] * 4 for _ in range(4)] for _ in range(4)]
    a4[3][2][2] = F(2)
    co4 = PreNovikovCoalgebra(
        4,
        tuple(tuple(map(tuple, p)) for p in a4),
        tuple(zeros(4) for _ in range(4)),
    )
    assert check_bialgebra(alg4, co4).passed


@pytest.mark.parametrize("n", [2, 3])
def test_dual_map_matches_the_dual_algebra_route(n):
    """``labels.DUAL_PRE_NOVIKOV`` read on the co-identity residuals gives,
    exactly and entry by entry, the pre-Novikov residuals of the dual
    products, and ``check_coalgebra``'s nested section is their report, on
    random co-operations with fractional entries."""
    rng = np.random.default_rng(n)
    lab = tuple(f"e{i + 1}" for i in range(n))
    for _ in range(25):
        al, be = (Exact(rng.choice([-2, -1, 0, 0, 1, 2], size=(n, n, n)), int(rng.choice([1, 2, 3])))
                  for _ in "ab")
        co = PreNovikovCoalgebra(n, al, be)
        direct = contract({code: labels.SPECS[code][1] for code in labels.COALGEBRA}, co.tables)
        lhd_star, rhd_star = coalgebra_to_dual_algebra(co)
        dual = contract({code: labels.SPECS[code][1] for code in labels.PRE_NOVIKOV},
                        {"<": lhd_star.table, ">": rhd_star.table})
        for code, (source, sign, subs) in labels.DUAL_PRE_NOVIKOV.items():
            num, den = direct[source]
            assert Exact(sign * np.einsum(subs, num), den) == Exact(*dual[code])
        report = check_coalgebra(co)
        dual_lab = tuple(f"{b}*" for b in lab)
        assert report.sections == (check_pre_novikov(*coalgebra_to_dual_algebra(co), basis=dual_lab),)
        assert report.sections[0].violations


def test_check_coalgebra_is_one_kernel_call(monkeypatch, alg2, co2):
    """The nested section is read off the co-identity residuals: one kernel
    call, and neither the dual products nor the pre-Novikov check.  The
    composite verifiers evaluate their whole report tree in one call too:
    ``check_bialgebra`` and ``check_matched_pair`` call no section checker."""
    ones = tuple(tuple(F(-1) for _ in range(2)) for _ in range(2))
    coalgebras = (PreNovikovCoalgebra(2, co2.alpha, co2.beta),
                  PreNovikovCoalgebra(2, (ones, zeros(2)), (ones, zeros(2))))
    pairs = [induced_matched_pair(PreNovikovBialgebra(alg2, co)) for co in coalgebras]
    calls = []
    run = core._Program.run
    monkeypatch.setattr(core._Program, "run", lambda self, *a, **k: calls.append(1) or run(self, *a, **k))

    def forbidden(*args, **kwargs):
        raise AssertionError("second route evaluated")

    monkeypatch.setattr(bialgebra, "coalgebra_to_dual_algebra", forbidden)
    for module, name in ((algebras, "check_pre_novikov"), (algebras, "check_novikov"),
                         (bialgebra, "check_coalgebra"), (bialgebra, "check_compatibility"),
                         (representations, "check_novikov_rep")):
        monkeypatch.setattr(module, name, forbidden)
    for co, mp in zip(coalgebras, pairs):
        calls.clear()
        report = check_coalgebra(co)
        assert len(calls) == 1 and len(report.sections) == 1
        calls.clear()
        report = check_bialgebra(alg2, co)
        assert len(calls) == 1 and [s.name for s in report.sections] == ["pre_novikov", "coalgebra", "compatibility"]
        calls.clear()
        report = check_matched_pair(mp)
        assert len(calls) == 1 and len(report.sections) == 4
