"""The operands named by their formula and the identities that run from
their texts: ``labels.formula`` against loop definitions of left and right
multiplication, ``tau.`` and the dual, for every operand of
``labels.OPERANDS`` it defines and every dual-map spec; ``labels.identity``
against loop definitions of products, maps and forms on basis vectors, one
text per construct; and the term lists those define, and the Fraction
reference that reads them."""

import itertools
import random
from fractions import Fraction

import pytest

from prenovikov import labels, representations, yang_baxter
from prenovikov.core import evaluate

from kernel_reference import derive, reference, table_of
from tensor_reference import basis_vec, family_at, mat_vec, product
from tensor_reference import dual_family as star
from tensor_reference import left_family as L
from tensor_reference import right_family as R
from tensor_reference import swap_last as tau

# the tables an operand name reads: the products, the representation maps
# and the co-operations
NAMES = ("o", "<", ">", "(.)", "(*)", "l", "r", "l>", "r>", "l<", "r<", "lA", "rA", "lB", "rB", "al", "be")


def _operands(t):
    """Each operand ``formula`` defines in ``labels.OPERANDS``, as (coef,
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
    }


def _dual_specs(t):
    """The four dual-map specs, each map as (coef, table) pairs of the loop
    definitions on the tables ``t``."""
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
    """On random rational tables of dimension n, every operand that
    ``labels.formula`` defines and every map of the four dual specs equals
    its loop definition; the operands it does not define are the products
    ``o``, ``(.)``, ``(*)``, ``s`` and the R-tensors."""
    rng = random.Random(n)
    for _ in range(3):
        tables = {name: table_of((n,) * 3, (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                            for _ in range(n**3))) for name in NAMES}
        want = _operands(tables)
        assert set(labels.OPERANDS) - set(want) == {"o", "(.)", "(*)", "s", *labels.R_TENSORS}
        for name, parts in want.items():
            assert reference(labels.OPERANDS[name], tables) == _entries(parts), name
        for spec, maps in _dual_specs(tables):
            assert spec.keys() == maps.keys()
            for key, parts in maps.items():
                assert reference(spec[key], tables) == _entries(parts), key


@pytest.mark.parametrize("name", ["", "+L>", "L>+", "L>R<", "2", "L>++R<", "Lx", "tau.", "L>**"])
def test_a_malformed_formula_is_refused(name):
    with pytest.raises(ValueError, match="not an operand formula"):
        labels.formula(name)


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


def test_the_element_notation_specs_run_from_their_texts():
    """The codes whose row still carries a written-out term list are the 21
    in tensor notation, which ``identity`` cannot read yet; every other spec
    row is ``(formula, witness)``, and its spec is what ``identity`` makes of
    them, with the output axes its witness letters, then ``t`` (none for the
    scalar 2.14)."""
    written = {code for code, row in labels.IDENTITIES.items() if len(row) == 3}
    assert written == {"3.11", "3.12", "3.13", "3.14", *(f"3.{k}" for k in range(16, 24)),
                       *(f"4.{k}" for k in range(3, 11)), "4.13"}
    for code, (witness, terms) in labels.SPECS.items():
        if code not in written:
            assert len(labels.IDENTITIES[code]) == 2 and labels.IDENTITIES[code][1] == witness
            assert terms == labels.identity(*labels.IDENTITIES[code])
            assert {subs.split("->")[1] for _, subs, _ in terms} == {witness + ("t" if code != "2.14" else "")}


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


def test_the_reference_reads_each_term_at_its_own_output_letters():
    """Two terms that name or order their output letters differently are
    each read at their own, as the kernel reads them."""
    a = {"a": ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))}
    transposed = [(1, "ij->ij", ("a",)), (1, "ij->ji", ("a",))]
    assert reference(transposed, a) == {(0, 0): 2, (0, 1): 5, (1, 0): 5, (1, 1): 8}
    assert evaluate({"": transposed}, a)[""].nested == ((2, 5), (5, 8))
    renamed = [(1, "ij->ij", ("a",)), (1, "kl->kl", ("a",))]
    assert reference(renamed, a) == {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}
