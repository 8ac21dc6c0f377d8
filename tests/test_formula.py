"""The operands and identities that run from their texts: the operator,
co-operation and dual-map texts of ``labels.VALUES`` against loop
definitions of left and right multiplication, ``tau.`` and the dual, for
every operand of ``labels.OPERANDS`` they define and every name of the four
dual-map dicts; ``labels.identity`` against loop definitions of products,
maps and forms on basis vectors, and of co-operation values, slot maps and
placed products on tensors, one text per construct; every text parsed
whether or not a command reads it; and the term lists those define, and the
Fraction reference that reads them."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prenovikov import labels, representations, yang_baxter
from prenovikov.core import InputError, evaluate

from kernel_reference import derive, reference, table_of
from tensor_reference import (basis_vec, co_at, co_left, co_right, dual_product, family_at, left_matrix, mat_add,
                              mat_scale, mat_vec, placed, product, right_matrix, swap_first, t2_add, t2_apply_left,
                              t2_apply_right, t2_sub, t3_add, t3_apply, outer, transpose)
from tensor_reference import dual_family as star
from tensor_reference import left_family as L
from tensor_reference import right_family as R
from tensor_reference import swap_last as tau

ROOT = Path(__file__).resolve().parent.parent

# the tables an operand name reads: the products, the representation maps
# and the co-operations
NAMES = ("o", "<", ">", "(.)", "(*)", "l", "r", "l>", "r>", "l<", "r<", "lA", "rA", "lB", "rB", "al", "be")


def _operands(t):
    """Each operator and co-operation of ``labels.OPERANDS``, as (coef,
    table) pairs of the loop definitions on the tables ``t``."""
    return {
        "Lo": [(1, L(t["o"]))],
        "Ro": [(1, R(t["o"]))],
        "L>": [(1, L(t[">"]))],
        "R>": [(1, R(t[">"]))],
        "L<": [(1, L(t["<"]))],
        "R<": [(1, R(t["<"]))],
        "L(.)": [(1, L(t["(.)"]))],
        "L(*)": [(1, L(t["(*)"]))],
        "L>+R<": [(1, L(t[">"])), (1, R(t["<"]))],
        "L>+2R<": [(1, L(t[">"])), (2, R(t["<"]))],
        "2L>+R<": [(2, L(t[">"])), (1, R(t["<"]))],
        "R>+L<": [(1, R(t[">"])), (1, L(t["<"]))],
        "Lo+Ro": [(1, L(t["o"])), (1, R(t["o"]))],
        "2Lo+Ro": [(2, L(t["o"])), (1, R(t["o"]))],
        "l>+l<": [(1, t["l>"]), (1, t["l<"])],
        "r>+r<": [(1, t["r>"]), (1, t["r<"])],
        "lA-rA": [(1, t["lA"]), (-1, t["rA"])],
        "lB-rB": [(1, t["lB"]), (-1, t["rB"])],
        "tau.al": [(1, tau(t["al"]))],
        "al+be": [(1, t["al"]), (1, t["be"])],
        "tau.al+be": [(1, tau(t["al"])), (1, t["be"])],
        "2tau.al+be": [(2, tau(t["al"])), (1, t["be"])],
        "al+tau.be": [(1, t["al"]), (1, tau(t["be"]))],
        "tau.al+tau.be": [(1, tau(t["al"])), (1, tau(t["be"]))],
        "al+be-tau.al-tau.be": [(1, t["al"]), (1, t["be"]), (-1, tau(t["al"])), (-1, tau(t["be"]))],
        "<*": [(1, dual_product(t["al"]))],
        ">*": [(1, dual_product(t["be"]))],
    }


def _dual_specs(t):
    """The four dual-map dicts of operand names, each map as (coef, table)
    pairs of the loop definitions on the tables ``t``."""
    dual_adjoint = {"l": [(1, star(L(t[">"]))), (1, star(R(t["<"])))], "r": [(-1, star(R(t["<"])))]}
    dual_quadruple = {
        "l>": [(1, star(L(t[">"]))), (1, star(L(t["<"]))), (1, star(R(t[">"]))), (1, star(R(t["<"])))],
        "r>": [(1, star(R(t[">"])))],
        "l<": [(-1, star(R(t[">"]))), (-1, star(L(t["<"])))],
        "r<": [(-1, star(R(t[">"]))), (-1, star(R(t["<"])))],
    }
    return [
        (representations._DUAL_NOVIKOV_MAPS, {"l": [(1, star(t["l"])), (1, star(t["r"]))], "r": [(-1, star(t["r"]))]}),
        (representations._DUAL_PRE_NOVIKOV_MAPS, {
            "l>": [(1, star(t["l>"])), (1, star(t["l<"])), (1, star(t["r>"])), (1, star(t["r<"]))],
            "r>": [(1, star(t["r>"]))],
            "l<": [(-1, star(t["r>"])), (-1, star(t["l<"]))],
            "r<": [(-1, star(t["r>"])), (-1, star(t["r<"]))],
        }),
        (representations._DUAL_ADJOINT_MAPS, dual_adjoint),
        (yang_baxter._DUAL_QUADRUPLE, dual_quadruple),
    ]


def _entries(parts):
    """sum of coef * table over (coef, table) pairs, as index -> value."""
    n = len(parts[0][1])
    return {(a, j, k): sum(coef * table[a][j][k] for coef, table in parts)
            for a in range(n) for j in range(n) for k in range(n)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_formula_operands_and_dual_specs_match_loop_definitions(n):
    """On random rational tables of dimension n, every operator and
    co-operation of ``labels.OPERANDS``, the dual products ``<*`` and ``>*``
    and every operand that the four dual-map dicts name equals its loop
    definition; the other operands are the products ``o``, ``(.)``, ``(*)``,
    ``s``, the R-tensors and those reading r or T (``alpha``, ``beta``,
    ``<T``, ``>T``)."""
    rng = random.Random(n)
    for _ in range(3):
        tables = {name: table_of((n,) * 3, (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                            for _ in range(n**3))) for name in NAMES}
        want = _operands(tables)
        duals = {name for spec, _ in _dual_specs(tables) for name in spec.values()}
        others = {"o", "(.)", "(*)", "s", "alpha", "beta", "<T", ">T", *labels.R_TENSORS}
        assert set(labels.OPERANDS) - set(want) - duals == others
        for name, parts in want.items():
            assert reference(labels.OPERANDS[name], tables) == _entries(parts), name
        for spec, maps in _dual_specs(tables):
            assert spec.keys() == maps.keys()
            for key, parts in maps.items():
                assert reference(labels.OPERANDS[spec[key]], tables) == _entries(parts), key


@pytest.mark.parametrize("name", ["", "+L>", "L>+", "L>R<", "2", "L>++R<", "Lx", "tau.", "L>**"])
def test_a_malformed_formula_is_refused(name):
    """An operand name that no ``VALUES`` text defines is no ``OPERANDS``
    key, however it is looked up, and the kernel refuses a spec that reads
    it."""
    assert name not in labels.OPERANDS and name not in list(labels.OPERANDS)
    with pytest.raises(KeyError):
        labels.OPERANDS[name]
    with pytest.raises(InputError, match="is neither an input nor derived$"):
        evaluate({"x": [(1, "ijk->ijk", (name,))]}, {"<": [[[1]]]})


def _vector_sum(vectors):
    return tuple(map(sum, zip(*vectors)))


def _neg(v):
    return tuple(-x for x in v)


def _loops(t):
    """Per code, (witness spaces, residual function): the residual of one
    element-notation text on coordinate vectors by loops on the tables ``t``,
    its left side minus its right side.  The texts cover a nested product
    (2.9), maps X(p)q (2.4), a distributed sum in an argument (2.3), a map
    sum (4.21), two algebras at once (3.1), T (4.29) and the form w (2.14)."""
    def prod_(op):
        return lambda p, q: product(t[op], p, q)

    def map_(name):
        return lambda p, q: mat_vec(family_at(t[name], p), q)

    lt, gt = prod_("<"), prod_(">")
    ln, rn, lp, rp, ll, rl = map(map_, ("l", "r", "l>", "r>", "l<", "r<"))
    la, ra, lb, rb = map(map_, ("lA", "rA", "lB", "rB"))

    def o(p, q):
        return _vector_sum((lt(p, q), gt(p, q)))

    def dot(p, q):  # p (*) q
        return _vector_sum((o(p, q), o(q, p)))

    def T(p):
        return mat_vec(t["T"], p)

    def w(p, q):
        return sum(x * y for x, y in zip(p, mat_vec(t["w"], q)))

    def minus(v, u):
        return _vector_sum((v, _neg(u)))

    return {
        "2.9": ("AAA", lambda a, b, c: _vector_sum((gt(a, lt(b, c)), _neg(lt(gt(a, b), c)), _neg(lt(b, o(a, c))),
                                                      lt(lt(b, a), c)))),
        "2.4": ("AAM", lambda a, b, v: _vector_sum((ln(a, rn(b, v)), _neg(rn(b, ln(a, v))), _neg(rn(o(a, b), v)),
                                                      rn(b, rn(a, v))))),
        "2.3": ("AAM", lambda a, b, v: _vector_sum((ln(minus(o(a, b), o(b, a)), v), _neg(ln(a, ln(b, v))),
                                                      ln(b, ln(a, v))))),
        "4.21": ("AAM", lambda a, b, v: _vector_sum((rp(lt(a, b), v), _neg(rl(b, rp(a, v))),
                                                       _neg(ll(a, _vector_sum((rp(b, v), rl(b, v))))),
                                                       rl(b, ll(a, v))))),
        "3.1": ("MAA", lambda x, a, b: _vector_sum((lb(x, o(a, b)), lb(minus(la(a, x), ra(a, x)), b),
                                                      _neg(o(minus(lb(x, a), rb(x, a)), b)), _neg(rb(ra(b, x), a)),
                                                      _neg(o(a, lb(x, b)))))),
        "4.29": ("MM", lambda u, v: _vector_sum((gt(T(u), T(v)), _neg(T(lp(T(u), v))), _neg(T(rp(T(v), u)))))),
        "2.14": ("AAA", lambda a, b, c: w(o(a, b), c) - w(dot(a, c), b) + w(o(c, b), a)),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identities_match_loop_definitions(n):
    """On random rational tables, with an algebra A of dimension n and a
    module M (or second algebra) of dimension 4 - n, the term list each text
    of ``_loops`` gives equals its loop residual at every basis witness.  The
    loops form products and map sums from the tables ``<``, ``>`` and the
    families themselves; only the spec reads the derived operands."""
    rng = random.Random(n)
    dims = {"A": n, "M": 4 - n}
    shapes = {"<": "AAA", ">": "AAA", "l": "AMM", "r": "AMM", "l>": "AMM", "r>": "AMM", "l<": "AMM", "r<": "AMM",
              "lA": "AMM", "rA": "AMM", "lB": "MAA", "rB": "MAA", "T": "AM", "w": "AA"}
    for _ in range(2):
        tables = {name: table_of(tuple(dims[s] for s in shape),
                                 (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(27)))
                  for name, shape in shapes.items()}
        tables = derive(["o", "(*)", "r>+r<", "lA-rA", "lB-rB"], tables)
        for code, (spaces, residual) in _loops(tables).items():
            want = {}
            for idx in itertools.product(*(range(dims[s]) for s in spaces)):
                value = residual(*(basis_vec(dims[s], i) for s, i in zip(spaces, idx)))
                want.update({idx: value} if isinstance(value, Fraction) else
                            {idx + (k,): x for k, x in enumerate(value)})
            assert reference(labels.SPECS[code][1], tables) == want, code


def _tensor_loops(t):
    """Per spec, (witness count, residual function): one tensor-notation
    text by loops on the tables ``t``, left side minus right side, as
    (coef, tensor) pairs.  The texts cover co-operations in slots with
    ``tau(x)id`` (3.11), a sum of slot maps and a co-operation of a product
    (3.16), composed slot-map sums on ``s`` (4.3-4.6), a family map on a
    slot of an R-tensor (4.10), placed products with each product (the seven
    R-tensors, 4.13 and the row form) and ``tau(r)`` (alpha and beta of
    ``coboundary_maps``); and 4.7-4.9, whose corrections sum over the
    components x_p (x) y_p of r (``sum_p``)."""
    lt, gt, al, be, r, n = t["<"], t[">"], t["al"], t["be"], t["r"], len(t["<"])
    o = t3_add(lt, gt)
    dot = tuple(tuple(tuple(gt[i][j][k] + lt[j][i][k] for k in range(n)) for j in range(n)) for i in range(n))
    star = tuple(tuple(tuple(o[i][j][k] + o[j][i][k] for k in range(n)) for j in range(n)) for i in range(n))
    s = t2_sub(transpose(r), r)

    def lo(p):
        return left_matrix(o, p)

    def lgt_rlt(p, k=1):  # (L> + kR<)(p)
        return mat_add(left_matrix(gt, p), mat_scale(k, right_matrix(lt, p)))

    def lo_ro(p):  # (Lo+Ro)(p)
        return mat_add(lo(p), right_matrix(o, p))

    def p_of(p):  # (Lo(p)(x)id + id(x)(L>+R<)(p))s
        return t2_add(t2_apply_left(lo(p), s), t2_apply_right(lgt_rlt(p), s))

    def r3(*terms):  # signed placed products (sign, product, first slots, second slots)
        return [(sign, placed(r, c, x, y)) for sign, c, x, y in terms]

    def placed_sum(pairs):
        return tuple(tuple(tuple(sum(c * x[i][j][k] for c, x in pairs) for k in range(n)) for j in range(n))
                     for i in range(n))

    rt = {  # the seven R-tensors, as signed placed products
        "R11": ((1, o, (2, 1), (3, 1)), (-1, o, (2, 1), (3, 2)), (-1, dot, (3, 1), (3, 2)), (1, gt, (2, 1), (2, 3)),
                (1, star, (3, 1), (2, 3))),
        "R12": ((-1, o, (2, 1), (3, 1)), (-1, dot, (2, 3), (3, 1)), (1, lt, (2, 1), (3, 2))),
        "R13": ((1, o, (3, 1), (2, 1)), (1, dot, (3, 2), (2, 1)), (1, gt, (2, 3), (3, 1)), (-1, lt, (3, 1), (2, 3)),
                (1, gt, (3, 2), (2, 1)), (1, star, (3, 1), (2, 1))),
        "R21": ((1, gt, (2, 1), (1, 3)), (1, gt, (1, 2), (2, 3)), (1, star, (1, 3), (2, 3))),
        "R22": ((1, o, (1, 3), (2, 1)), (1, dot, (2, 3), (2, 1)), (-1, gt, (1, 3), (1, 2)), (-1, star, (2, 3), (1, 2)),
                (-1, o, (2, 3), (1, 2)), (-1, dot, (1, 3), (1, 2)), (1, gt, (2, 3), (2, 1)), (1, star, (1, 3), (2, 1)),
                (1, o, (2, 3), (1, 3)), (-1, o, (1, 3), (2, 3))),
        "R31": ((-1, o, (1, 3), (2, 3)), (1, o, (1, 3), (2, 1)), (1, dot, (2, 3), (2, 1)), (-1, gt, (1, 3), (1, 2)),
                (-1, star, (2, 3), (1, 2))),
        "R41": ((-1, o, (3, 1), (2, 1)), (-1, dot, (3, 2), (2, 1)), (1, lt, (3, 1), (2, 3))),
    }
    big = {name: placed_sum(r3(*terms)) for name, terms in rt.items()}  # (the R-tensors as tensors)
    xy = [(r[p][q], basis_vec(n, p), basis_vec(n, q)) for p in range(n) for q in range(n)]  # r = sum w x (x) y

    def lg(p):
        return left_matrix(gt, p)

    def ld(p):
        return left_matrix(dot, p)

    def l2r(p):  # (2L>+R<)(p)
        return mat_add(lg(p), lgt_rlt(p))

    def corrections(a, prod, m, k, sign, first):  # sign sum_p of y_p and (m(a prod x_p)(x)id)s, (id(x)k(..))s
        return [(sign * w, outer(y, t) if first else outer(t, y)) for w, x, y in xy
                for t in (t2_apply_left(m(product(prod, a, x)), s), t2_apply_right(k(product(prod, a, x)), s))]

    tau_al_be = t3_add(tau(al), be)
    return {
        "3.11": (1, lambda a: [
            (1, co_left(al, co_at(al, a))), (1, swap_first(co_right(al, co_at(be, a)))),
            (-1, co_right(t3_add(al, be), co_at(al, a))), (-1, swap_first(co_left(be, co_at(al, a))))]),
        "3.16": (2, lambda a, b: [
            (1, co_at(tau_al_be, product(o, a, b))),
            (-1, t2_apply_left(lgt_rlt(a, 2), co_at(tau_al_be, b))), (-1, t2_apply_right(lo(a), co_at(tau_al_be, b))),
            (-1, t2_apply_right(right_matrix(o, b), co_at(t3_add(tau(al), tau_al_be), a))),
            (1, t2_apply_left(right_matrix(lt, b), co_at(tau(al), a)))]),
        "4.3": (2, lambda a, b: [
            (1, t2_apply_left(lgt_rlt(a, 2), p_of(b))), (1, t2_apply_right(lgt_rlt(a), p_of(b))),
            (-1, t2_apply_left(left_matrix(lt, b), p_of(a))), (-1, p_of(product(dot, a, b)))]),
        "4.4": (2, lambda a, b: [
            (1, t2_apply_right(right_matrix(lt, a), p_of(b))),
            (1, t2_apply_left(right_matrix(lt, a), t2_add(t2_apply_left(lo_ro(b), s),
                                                          t2_apply_right(left_matrix(gt, b), s)))),
            (-1, t2_apply_left(left_matrix(lt, b), t2_sub(t2_apply_right(right_matrix(lt, a), s),
                                                          t2_apply_left(right_matrix(o, a), s)))),
            (-1, t2_apply_left(mat_add(lo(product(lt, b, a)), lo_ro(product(lt, b, a))), s)),
            (-1, t2_apply_right(mat_add(left_matrix(gt, product(lt, b, a)), lgt_rlt(product(lt, b, a))), s))]),
        "4.5": (2, lambda a, b: [
            (1, t2_apply_left(mat_add(right_matrix(gt, b), left_matrix(lt, b)), p_of(a))),
            (-1, t2_apply_right(lgt_rlt(a), t2_add(t2_apply_right(left_matrix(gt, b), s), t2_apply_left(lo_ro(b), s)))),
            (-1, t2_apply_left(lgt_rlt(a), p_of(b)))]),
        "4.6": (2, lambda a, b: [(1, t2_apply_left(right_matrix(lt, a), p_of(b))), (-1, p_of(product(lt, b, a)))]),
        "4.7": (1, lambda a: [(1, t3_apply(lo(a), big["R11"], 0)), (1, t3_apply(lg(a), big["R12"], 1)),
                              (1, t3_apply(ld(a), big["R13"], 2)), *corrections(a, dot, lg, ld, -1, True)]),
        "4.8": (1, lambda a: [(1, t3_apply(lg(a), big["R21"], 0)), (-1, t3_apply(lg(a), big["R21"], 1)),
                              (1, t3_apply(left_matrix(star, a), big["R22"], 2)),
                              *corrections(a, gt, l2r, l2r, 1, False)]),
        "4.9": (1, lambda a: [(-1, t3_apply(ld(a), big["R21"], 1)), (1, t3_apply(left_matrix(star, a), big["R31"], 2)),
                              *corrections(a, gt, lg, ld, 1, False)]),
        "4.10": (1, lambda a: [(-1, t3_apply(ld(a), big["R12"], 1)), (1, t3_apply(ld(a), big["R41"], 2))]),
        "4.13": (0, lambda: r3((1, o, (1, 2), (1, 3)), (1, dot, (2, 3), (1, 3)), (-1, lt, (1, 2), (2, 3)))),
        "rows": (0, lambda: r3((1, o, (2, 1), (3, 1)), (1, dot, (2, 3), (1, 3)), (-1, lt, (1, 2), (3, 2)))),
        **{name: (0, lambda terms=terms: r3(*terms)) for name, terms in rt.items()},
        "alpha": (1, lambda a: [(1, t2_apply_left(lo(a), transpose(r))),
                                (1, t2_apply_right(lgt_rlt(a), transpose(r)))]),
        "beta": (1, lambda a: [(-1, t2_apply_left(left_matrix(gt, a), r)), (-1, t2_apply_right(lo_ro(a), r))]),
    }


def _flat(value, prefix=()):
    """A nested tuple as index -> entry."""
    if isinstance(value, tuple):
        return {k: x for i, v in enumerate(value) for k, x in _flat(v, prefix + (i,)).items()}
    return {prefix: value}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_identities_match_loop_definitions(n):
    """On random rational tables and a random r that is not symmetric (so
    r12 and r21 differ), the term list of each text of ``_tensor_loops``
    equals its loop residual at every basis witness.  The loops form every
    product, map sum, co-operation value, slot map and placed product from
    ``<``, ``>``, ``al``, ``be`` and ``r``; only the specs read derived
    operands."""
    rng = random.Random(n)
    specs = {**{code: labels.SPECS[code][1] for code in (*labels.COALGEBRA[:1], "3.16", *labels.COBOUNDARY_CONDITIONS,
                                                         *labels.COBOUNDARY_EQUATIONS, labels.YBE)},
             **{name: labels.OPERANDS[name] for name in labels.R_TENSORS}, "rows": labels.YBE_ROWS,
             **{name: labels.OPERANDS[name] for name in ("alpha", "beta")}}
    for _ in range(2):
        tables = {name: table_of((n,) * 3, (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                            for _ in range(n**3))) for name in ("<", ">", "al", "be")}
        tables["r"] = table_of((n, n), (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n * n)))
        assert n == 1 or tables["r"] != transpose(tables["r"])
        derived = derive(sorted({m for terms in specs.values() for *_, ns in terms for m in ns} - set(tables)), tables)
        for key, (witnesses, residual) in _tensor_loops(tables).items():
            want = {}
            for idx in itertools.product(range(n), repeat=witnesses):
                for coef, value in residual(*(basis_vec(n, i) for i in idx)):
                    for k, x in _flat(value).items():
                        want[idx + k] = want.get(idx + k, 0) + coef * x
            assert reference(specs[key], derived) == want, key


# the rank of each spec's value where it is no vector
RANKS = {"2.14": 0, **dict.fromkeys(labels.COALGEBRA + labels.COBOUNDARY_EQUATIONS + (labels.YBE,), 3),
         **dict.fromkeys(labels.COMPATIBILITY + labels.COBOUNDARY_CONDITIONS, 2)}


def test_the_element_notation_specs_run_from_their_texts():
    """No ``IDENTITIES`` row carries a written term list: every spec row is
    ``(formula, witness)``, its spec what ``identity`` makes of them, on the
    output axes of its witness letters, then one letter per slot of its
    value (none for the scalar 2.14).  Every operand of ``OPERANDS`` is what
    ``identity`` makes of its text in ``VALUES``, and ``YBE_ROWS`` is the
    row form's text."""
    assert all(len(row) <= 2 for row in labels.IDENTITIES.values())
    for code, (witness, terms) in labels.SPECS.items():
        assert len(labels.IDENTITIES[code]) == 2 and labels.IDENTITIES[code][1] == witness
        assert terms == labels.identity(*labels.IDENTITIES[code])
        assert {subs.split("->")[1] for _, subs, _ in terms} == {witness + "twz"[: RANKS.get(code, 1)]}
    assert set(labels.VALUES) == set(labels.OPERANDS)
    for name, terms in labels.OPERANDS.items():
        text, witness = labels.VALUES[name]
        assert terms == labels.identity(f"{text} = 0", witness), name
    assert labels.YBE_ROWS == labels.identity("r21 o r31 + r23 (.) r13 - r12 < r32 = 0", "")


def test_every_text_parses():
    """The tables parse a text when it is first read, so a broken one would
    otherwise wait for the first command that reads it: every
    ``IDENTITIES`` row, every ``VALUES`` entry and the row form parse here,
    and every name of the four dual-map dicts is a ``VALUES`` key."""
    rows = [row for row in labels.IDENTITIES.values() if len(row) > 1]
    values = list(labels.VALUES.values())
    for text, witness in rows + [(f"{text} = 0", witness) for text, witness in values]:
        assert labels.identity(text, witness), text
    assert labels.YBE_ROWS
    for spec in (representations._DUAL_NOVIKOV_MAPS, representations._DUAL_PRE_NOVIKOV_MAPS,
                 representations._DUAL_ADJOINT_MAPS, yang_baxter._DUAL_QUADRUPLE):
        assert set(spec.values()) <= set(labels.VALUES)


# counts the calls of ``labels.identity`` while the package is imported, then
# while ``check`` reads a bundle, in a fresh interpreter
_COUNT_PARSES = """
import io, sys
calls = []
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code.co_name == "identity"
               and frame.f_globals["__name__"] == "prenovikov.labels" and calls.append(1))
import prenovikov, prenovikov.cli
imported = len(calls)
code = prenovikov.cli.run_command(["check", sys.argv[1]], out=io.StringIO())
print(imported, len(calls) - imported, code)
"""


def test_import_parses_nothing_and_check_parses_what_it_reads():
    """Importing the package and its CLI parses no text; a fresh ``check``
    parses each text it evaluates once: of the dim-4 bialgebra, its 16
    codes (2.8-2.11, 3.11-3.14, 3.16-3.23) and the 16 operands they read; of
    the dim-4 coalgebra, 3.11-3.14 and the operand al+be they read, and not
    2.8-2.11, which its dual section reads off 3.11-3.14 (their witness
    letters come from ``labels.IDENTITIES``)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for fixture, parsed in (("dim4_bialgebra.json", "32"), ("dim4_coalgebra.json", "5")):
        done = subprocess.run([sys.executable, "-c", _COUNT_PARSES, str(ROOT / "fixtures" / fixture)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["0", parsed, "0"], done.stderr


# the tables a caller passes in, by name
INPUTS = {"o", "<", ">", ".", "l", "r", "l>", "r>", "l<", "r<", "lA", "rA", "lB", "rB", "al", "be", "r", "T", "w"}


def test_every_named_operand_is_an_input_or_derived():
    """Each operand a term list of ``SPECS``, ``YBE_ROWS`` or ``OPERANDS``
    names is an input table or an ``OPERANDS`` key, so a misspelled map sum
    in a text fails here and not as an input error at its first call."""
    lists = [terms for _, terms in labels.SPECS.values()] + [labels.YBE_ROWS] + list(labels.OPERANDS.values())
    named = {name for terms in lists for _, _, names in terms for name in names}
    assert named - set(labels.OPERANDS) <= INPUTS


@pytest.mark.parametrize("text", ["a o b o c = 0", "l(a = b", "a = ", "a = b = c", "Q(a)v = 0", "(a o b)>c",
                                  "a o b = w(a, b)", "a o c = c o a", "0 = 0"])
def test_a_malformed_identity_is_refused(text):
    with pytest.raises(ValueError, match="not an identity"):
        labels.identity(text, "abc")


@pytest.mark.parametrize("text,witness", [
    ("(id(x)tau)al(a) = 0", "a"),  # a slot map of three slots on a rank-2 value
    ("r14 o r12 = 0", ""), ("r11 o r23 = 0", ""), ("r12 o r34 = 0", ""),
    ("al(a) = (al(x)id)al(a)", "a"),  # a rank-2 side equated to a rank-3 side
    ("(id(x)id)(id(x)id) = 0", ""), ("al(a) o b = 0", "ab"), ("tau(R11) = 0", ""), ("(id(x)T(a))r = 0", "a"),
    ("a o x_p = 0", "a"), ("y_p (x) r = 0", ""),  # x_p, y_p outside a sum_p
    ("sum_p x_p (x) (sum_p x_p (x) y_p) = 0", ""),  # a nested sum_p
    ("sum_p a o x_p = 0", "a"), ("sum_p x_p (x) x_p (x) y_p = 0", ""),  # x_p and y_p not each read once
    ("sum_p y_p (x) L>(a)(x)id = 0", "a"),  # (x) between a value and a slot map
    ("2 3 a o b = 0", "ab"), ("w(a, b) = 0", "abt"), ("a o b = 0", "atbt")])  # a repeated coefficient; slot letters
def test_a_malformed_tensor_text_is_refused(text, witness):
    with pytest.raises(ValueError, match="^not an identity"):
        labels.identity(text, witness)


def test_sum_p_reads_r_by_its_components():
    """sum_p x_p (x) y_p is r itself: the difference cancels."""
    assert set(reference(labels.identity("sum_p x_p (x) y_p - r = 0", ""), {"r": ((1, 2), (3, 4))}).values()) == {0}


def test_the_reference_reads_each_term_at_its_own_output_letters():
    """Two terms that name or order their output letters differently are
    each read at their own, as the kernel reads them."""
    a = {"a": ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))}
    transposed = [(1, "ij->ij", ("a",)), (1, "ij->ji", ("a",))]
    assert reference(transposed, a) == {(0, 0): 2, (0, 1): 5, (1, 0): 5, (1, 1): 8}
    assert evaluate({"": transposed}, a)[""].nested == ((2, 5), (5, 8))
    renamed = [(1, "ij->ij", ("a",)), (1, "kl->kl", ("a",))]
    assert reference(renamed, a) == {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}
