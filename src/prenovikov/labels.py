"""The frozen identity-label table, with an executable spec beside each formula.

Every identity a verifier can evaluate has a short numeric code used in
reports ("Eq (2.2) violated at (e1, e2, e1): ...").  The codes are fixed here,
in one place, together with the formula each one stands for and the spec that
evaluates it; nothing else in the package hardcodes them.  Products: ``o`` is
the Novikov product, ``<`` and ``>`` the two pre-Novikov products (with
a o b = a<b + a>b), ``.`` a second algebra's product, ``(.)`` and ``(*)`` the
derived products a(.)b = a>b + b<a and a(*)b = a o b + b o a.

A spec is ``(witness, terms)``.  Each term is ``(integer coefficient, einsum
subscripts, operand names)``, and the residual of the identity is the sum of
the terms (left side minus right side).  The output axes of every term start
with the ``witness`` letters: one violation is reported per witness index
whose remaining axes, the residual, are not all zero.  ``core.contract``
evaluates a dict of term lists exactly, in one call over shared tables.

Operand layouts (entries are the coefficients of basis vectors):

* a product table ``c[i][j][k]``: e_i * e_j = sum_k c[i][j][k] e_k;
* an operator family ``M[a][k][j]``: the matrix of M(e_a), column j the image
  of e_j (``Lo``, ``R<``, ``L>+R<``, ..., and representation maps such as
  ``l``, ``r>``, ``lA``);
* a co-operation ``al[i][j][k]``: the coefficient of e_j (x) e_k in al(e_i);
* a rank-2 tensor ``r[i][j]``, a form ``w[i][j]``, a linear map ``T[i][p]``.

Operands not passed in by the caller are looked up in ``OPERANDS``, where the
operators and co-operations (``L>+2R<``, ``tau.al+be``, ...) are defined by
their names (``formula``), and the rest by term lists of their own.

The identities in element notation run from their texts (``identity``), on
their witness letters then ``t`` (none when both sides are scalars): basis
elements ``abcuvxy``; infix products, a nested one in parentheses; ``X(p)q``,
the map X(p) of a family X (``l``, ``r>``, ``lB``, ...) or of a sum of
families that ``OPERANDS`` names (``(r>+r<)``) applied to q; the linear map
``T(p)``; the form ``w(p, q)``; sums, distributed to one term per product of
basis elements.  Those in tensor notation keep written-out term lists.
"""

from __future__ import annotations

import itertools
import re

NOVIKOV = ("2.1", "2.2")
NOVIKOV_REP = ("2.3", "2.4", "2.5", "2.6")
PRE_NOVIKOV = ("2.8", "2.9", "2.10", "2.11")
O_OPERATOR_NOVIKOV = "2.13"
QF_SKEW = "skew"
QF_NONDEGENERATE = "nondegenerate"
QF_COCYCLE = "2.14"
MATCHED_PAIR = ("3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8")
COALGEBRA = ("3.11", "3.12", "3.13", "3.14")
# The pre-Novikov residuals of a coalgebra's dual products as signed axis
# permutations of co-identity residuals C[t,a,b,c]: code -> (code, sign, subs).
DUAL_PRE_NOVIKOV = {
    "2.8": ("3.12", 1, "tabc->abct"),
    "2.9": ("3.11", 1, "tbac->abct"),
    "2.10": ("3.13", -1, "tabc->abct"),
    "2.11": ("3.14", -1, "tabc->abct"),
}
COMPATIBILITY = ("3.16", "3.17", "3.18", "3.19", "3.20", "3.21", "3.22", "3.23")
COBOUNDARY_CONDITIONS = ("4.3", "4.4", "4.5", "4.6")
COBOUNDARY_EQUATIONS = ("4.7", "4.8", "4.9", "4.10")
YBE = "4.13"
# 4.13 for a symmetric r, with each r read by the row of a witness letter
# (r[p][b] = r[b][p], r[s][c] = r[c][s]): residual entry (a, b, c) reads rows
# a, b and c of r, and each table only at a witness letter on its last axis.
YBE_ROWS = [
    (1, "bp,cs,psa->abc", ("r", "r", "o")),
    (1, "bq,au,quc->abc", ("r", "r", "(.)")),
    (-1, "aq,cs,qsb->abc", ("r", "r", "<")),
]
PRE_NOVIKOV_REP = tuple(f"4.{k}" for k in range(18, 28))
O_OPERATOR_PRE_NOVIKOV = ("4.29", "4.30")


# one term of ``formula``: sign, factor, tau., side and product or family, dual
_TERM = re.compile(r"([+-]?)(\d*)(tau\.)?(?:([LR])(o|<|>|\(\.\)|\(\*\))|([a-z]+[<>AB]?))(\*?)")
_SWAP = str.maketrans("jk", "kj")


def formula(name: str) -> list:
    """The term list that ``name``, a sum of terms ``[±][k][tau.]X[*]`` of
    rank-3 tables M[i][j][k], defines.  ``LP`` and ``RP``, M(a)b = a P b and
    b P a for a product P (``o``, ``<``, ``>``, ``(.)``, ``(*)``), read P's
    table as ``ikj`` and ``kij``; any other X, a family or co-operation, as
    itself.  ``tau.`` swaps the last two axes; ``*``, the dual M(a)* =
    -M(a)^T, swaps them and negates.  Anything else is a ``ValueError``."""
    terms, at = [], 0
    while at < len(name) or not terms:
        m = _TERM.match(name, at)
        if not m or m[1] not in (("+", "-") if terms else ("", "-")):
            raise ValueError(f"not an operand formula: {name!r}")
        sign, k, tau, side, product, family, star = m.groups()
        src = {"L": "ikj", "R": "kij", None: "ijk"}[side]
        if bool(tau) != bool(star):
            src = src.translate(_SWAP)
        coef = int(k or 1) * (-1 if (sign == "-") != bool(star) else 1)
        terms.append((coef, f"{src}->ijk", (product or family,)))
        at = m.end()
    return terms


# one token of ``identity``: a map with the parenthesis opening its argument,
# a product, a basis element, a mark, or any other character
_TOKEN = re.compile(r"(?P<map>(?:\((?:[lr][<>AB]?[+-])+[lr][<>AB]?\)|[lr][<>AB]?|[Tw])\()"
                    r"|(?P<product>[o<>.]|\([.*]\))|(?P<basis>[abcuvxy])|(?P<mark>[(),=+0-])|(?P<other>\S)")
_FREE = "mnpqrsdefghijklowz"  # a term's contracted letters: no basis letter, nor t, nor the batch axis N


def identity(text: str, witness: str) -> list:
    """The term list of ``text``, an identity in element notation (see the
    module docstring).  Each term reads each ``witness`` letter once and
    lists its operands in the order their values are formed: the argument,
    the map, the element it acts on.  Anything else is a ``ValueError``."""
    bad, fresh = f"not an identity: {text!r}", itertools.count()
    tokens = [(None, None)] + [(m.lastgroup, m[0]) for m in _TOKEN.finditer(text)][::-1]  # bottom: the end

    # a part is a list of (coef, factors, output letter) terms, each factor a
    # (name, letters) pair, with the basis letters and fresh ints for the rest
    def part():  # [+|-]product {+|- product}
        terms, sign = [], 1
        while True:
            if tokens[-1][1] in ("+", "-"):
                sign = 1 if tokens.pop()[1] == "+" else -1
            terms += [(sign * c, f, o) for c, f, o in product()]
            if tokens[-1][1] not in ("+", "-"):
                return terms

    def upto(end):  # a part and the token that ends it
        terms = part()
        if tokens.pop()[1] != end:
            raise ValueError(bad)
        return terms

    def product():
        left = unit()
        if tokens[-1][0] != "product":
            return left
        op, right, k = tokens.pop()[1], unit(), next(fresh)
        if tokens[-1][0] == "product":
            raise ValueError(f"{bad}: a nested product is parenthesized")
        return [(c * d, f + g + ((op, (p, q, k)),), k) for c, f, p in left for d, g, q in right]

    def unit():
        kind, token = tokens.pop()
        if kind == "basis":
            return [(1, (), token)]
        if token in ("0", "("):
            return upto(")") if token == "(" else []
        if kind != "map":
            raise ValueError(bad)
        token = token.strip("()")
        if token == "w":
            arg, other = upto(","), upto(")")
            return [(c * d, f + g + (("w", (p, q)),), None) for c, f, p in arg for d, g, q in other]
        arg, k = upto(")"), next(fresh)
        if token == "T":
            return [(c, f + (("T", (k, p)),), k) for c, f, p in arg]
        element = unit()
        return [(c * d, f + ((token, (p, k, q)),) + g, k) for c, f, p in arg for d, g, q in element]

    terms = upto("=") + [(-c, f, o) for c, f, o in part()]
    if len(tokens) > 1 or len({o is None for *_, o in terms}) != 1:
        raise ValueError(bad)
    out, spec = witness + ("" if terms[0][2] is None else "t"), []
    for coef, factors, o in terms:
        letters = [x for _, group in factors for x in group]
        if None in letters or sorted(x for x in letters if isinstance(x, str)) != sorted(witness):
            raise ValueError(f"{bad}: a term reads no scalar, and each letter of {witness!r} once")
        rename = {**dict(zip(dict.fromkeys(x for x in letters if isinstance(x, int) and x != o), _FREE)), o: "t"}
        subs = ",".join("".join(rename.get(x, x) for x in group) for _, group in factors)
        spec.append((coef, f"{subs}->{out}", tuple(name for name, _ in factors)))
    return spec


OPERANDS = {
    # products
    "o": [(1, "ijk->ijk", ("<",)), (1, "ijk->ijk", (">",))],
    "(.)": [(1, "ijk->ijk", (">",)), (1, "jik->ijk", ("<",))],
    "(*)": [(1, "ijk->ijk", ("o",)), (1, "jik->ijk", ("o",))],
    # multiplication operators, sums of representation maps, co-operations
    **{name: formula(name) for name in (
        "Lo", "Ro", "L>", "R>", "L<", "R<", "L(.)", "L(*)", "L>+R<", "L>+2R<", "2L>+R<", "R>+L<", "Lo+Ro",
        "2Lo+Ro", "l>+l<", "r>+r<", "lA-rA", "lB-rB", "tau.al", "al+be", "tau.al+be", "2tau.al+be",
        "al+tau.be", "tau.al+tau.be", "al+be-tau.al-tau.be")},
    # s = tau(r) - r
    "s": [(1, "ba->ab", ("r",)), (-1, "ab->ab", ("r",))],
    # the seven R-tensors: signed placed products r_pq * r_st in three slots
    "R11": [
        (1, "bp,cq,pqa->abc", ("r", "r", "o")),
        (-1, "pa,cq,pqb->abc", ("r", "r", "o")),
        (-1, "pa,qb,pqc->abc", ("r", "r", "(.)")),
        (1, "pa,qc,pqb->abc", ("r", "r", ">")),
        (1, "pa,bq,pqc->abc", ("r", "r", "(*)")),
    ],
    "R12": [
        (-1, "bp,cq,pqa->abc", ("r", "r", "o")),
        (-1, "bp,qa,pqc->abc", ("r", "r", "(.)")),
        (1, "pa,cq,pqb->abc", ("r", "r", "<")),
    ],
    "R13": [
        (1, "cp,bq,pqa->abc", ("r", "r", "o")),
        (1, "cp,qa,pqb->abc", ("r", "r", "(.)")),
        (1, "bp,qa,pqc->abc", ("r", "r", ">")),
        (-1, "pa,bq,pqc->abc", ("r", "r", "<")),
        (1, "cp,qa,pqb->abc", ("r", "r", ">")),
        (1, "cp,bq,pqa->abc", ("r", "r", "(*)")),
    ],
    "R21": [
        (1, "bp,qc,pqa->abc", ("r", "r", ">")),
        (1, "ap,qc,pqb->abc", ("r", "r", ">")),
        (1, "ap,bq,pqc->abc", ("r", "r", "(*)")),
    ],
    "R22": [
        (1, "pc,bq,pqa->abc", ("r", "r", "o")),
        (1, "pc,qa,pqb->abc", ("r", "r", "(.)")),
        (-1, "pc,qb,pqa->abc", ("r", "r", ">")),
        (-1, "pc,aq,pqb->abc", ("r", "r", "(*)")),
        (-1, "pc,aq,pqb->abc", ("r", "r", "o")),
        (-1, "pc,qb,pqa->abc", ("r", "r", "(.)")),
        (1, "pc,qa,pqb->abc", ("r", "r", ">")),
        (1, "pc,bq,pqa->abc", ("r", "r", "(*)")),
        (1, "bp,aq,pqc->abc", ("r", "r", "o")),
        (-1, "ap,bq,pqc->abc", ("r", "r", "o")),
    ],
    "R31": [
        (-1, "ap,bq,pqc->abc", ("r", "r", "o")),
        (1, "pc,bq,pqa->abc", ("r", "r", "o")),
        (1, "pc,qa,pqb->abc", ("r", "r", "(.)")),
        (-1, "pc,qb,pqa->abc", ("r", "r", ">")),
        (-1, "pc,aq,pqb->abc", ("r", "r", "(*)")),
    ],
    "R41": [
        (-1, "cp,bq,pqa->abc", ("r", "r", "o")),
        (-1, "cp,qa,pqb->abc", ("r", "r", "(.)")),
        (1, "pa,bq,pqc->abc", ("r", "r", "<")),
    ],
}
R_TENSORS = ("R11", "R12", "R13", "R21", "R22", "R31", "R41")

# code -> (formula, witness letters), with the terms written out after them in
# tensor notation; the two non-residual flags carry only their formula.
IDENTITIES = {
    "2.1": ("(a o b) o c - a o (b o c) = (b o a) o c - b o (a o c)", "abc"),
    "2.2": ("(a o b) o c = (a o c) o b", "abc"),
    "2.3": ("l(a o b - b o a) v = l(a) l(b) v - l(b) l(a) v", "abv"),
    "2.4": ("l(a) r(b) v - r(b) l(a) v = r(a o b) v - r(b) r(a) v", "abv"),
    "2.5": ("l(a o b) v = r(b) l(a) v", "abv"),
    "2.6": ("r(a) r(b) v = r(b) r(a) v", "abv"),
    "2.8": ("a>(b>c) = (a o b)>c + b>(a>c) - (b o a)>c", "abc"),
    "2.9": ("a>(b<c) = (a>b)<c + b<(a o c) - (b<a)<c", "abc"),
    "2.10": ("(a o b)>c = (a>c)<b", "abc"),
    "2.11": ("(a<b)<c = (a<c)<b", "abc"),
    "2.13": ("T(u) o T(v) = T(l(T(u)) v) + T(r(T(v)) u)", "uv"),
    "skew": ("w(a, b) = -w(b, a)",),
    "nondegenerate": ("det w != 0",),
    "2.14": ("w(a o b, c) - w(a (*) c, b) + w(c o b, a) = 0", "abc"),
    # matched pair: a, b in A (product o); x, y in B (product .)
    "3.1": ("lB(x)(a o b) = -lB((lA-rA)(a)x)b + ((lB-rB)(x)a) o b + rB(rA(b)x)a + a o (lB(x)b)", "xab"),
    "3.2": ("rB(x)(a o b - b o a) = rB(lA(b)x)a - rB(lA(a)x)b + a o (rB(x)b) - b o (rB(x)a)", "xab"),
    "3.3": ("lA(a)(x . y) = -lA((lB-rB)(x)a)y + ((lA-rA)(a)x) . y + rA(rB(y)a)x + x . (lA(a)y)", "axy"),
    "3.4": ("rA(a)(x . y - y . x) = rA(lB(y)a)x - rA(lB(x)a)y + x . (rA(a)y) - y . (rA(a)x)", "axy"),
    "3.5": ("(lB(x)a) o b + lB(rA(a)x)b = (lB(x)b) o a + lB(rA(b)x)a", "xab"),
    "3.6": ("(rB(x)a) o b + lB(lA(a)x)b = rB(x)(a o b)", "xab"),
    "3.7": ("lA(rB(x)a)y + (lA(a)x) . y = lA(rB(y)a)x + (lA(a)y) . x", "axy"),
    "3.8": ("lA(lB(x)a)y + (rA(a)x) . y = rA(a)(x . y)", "axy"),
    # coalgebra: the witness is the basis element e_i the co-operations act on
    "3.11": ("(al(x)id)al + (tau(x)id)(id(x)al)be - (id(x)(al+be))al - (tau(x)id)(be(x)id)al = 0", "i", [
        (1, "iuc,uab->iabc", ("al", "al")),
        (1, "ibv,vac->iabc", ("be", "al")),
        (-1, "iav,vbc->iabc", ("al", "al+be")),
        (-1, "iuc,uba->iabc", ("al", "be")),
    ]),
    "3.12": ("(id(x)be)be + (tau(x)id)((al+be)(x)id)be - ((al+be)(x)id)be - (tau(x)id)(id(x)be)be = 0", "i", [
        (1, "iav,vbc->iabc", ("be", "be")),
        (1, "iuc,uba->iabc", ("be", "al+be")),
        (-1, "iuc,uab->iabc", ("be", "al+be")),
        (-1, "ibv,vac->iabc", ("be", "be")),
    ]),
    "3.13": ("(id(x)tau)(be(x)id)al - ((al+be)(x)id)be = 0", "i", [
        (1, "iub,uac->iabc", ("al", "be")),
        (-1, "iuc,uab->iabc", ("be", "al+be")),
    ]),
    "3.14": ("(id(x)tau)(al(x)id)al - (al(x)id)al = 0", "i", [
        (1, "iub,uac->iabc", ("al", "al")),
        (-1, "iuc,uab->iabc", ("al", "al")),
    ]),
    # compatibility: (M(a)(x)id)t is "iap,jpb", (id(x)M(b))t is "iaq,jbq"
    "3.16": ("(tau.al+be)(a o b) = ((L> + 2R<)(a)(x)id + id(x)Lo(a))(tau.al+be)(b) + (id(x)Ro(b))(2tau.al+be)(a) - (R<(b)(x)id)tau.al(a)", "ij", [
        (1, "ijm,mab->ijab", ("o", "tau.al+be")),
        (-1, "iap,jpb->ijab", ("L>+2R<", "tau.al+be")),
        (-1, "jaq,ibq->ijab", ("tau.al+be", "Lo")),
        (-1, "iaq,jbq->ijab", ("2tau.al+be", "Ro")),
        (1, "jap,ipb->ijab", ("R<", "tau.al")),
    ]),
    "3.17": ("tau.al(a o b - b o a) = ((L>+R<)(a)(x)id + id(x)Lo(a))tau.al(b) - ((L>+R<)(b)(x)id + id(x)Lo(b))tau.al(a)", "ij", [
        (1, "ijm,mab->ijab", ("o", "tau.al")),
        (-1, "jim,mab->ijab", ("o", "tau.al")),
        (-1, "iap,jpb->ijab", ("L>+R<", "tau.al")),
        (-1, "jaq,ibq->ijab", ("tau.al", "Lo")),
        (1, "jap,ipb->ijab", ("L>+R<", "tau.al")),
        (1, "iaq,jbq->ijab", ("tau.al", "Lo")),
    ]),
    "3.18": ("(al+be)(a(.)b) = (id(x)(R>+L<)(b))(2tau.al+be)(a) - (L<(b)(x)id)al(a) + ((L>+2R<)(a)(x)id + id(x)(L>+R<)(a))(al+be)(b)", "ij", [
        (1, "ijm,mab->ijab", ("(.)", "al+be")),
        (-1, "iaq,jbq->ijab", ("2tau.al+be", "R>+L<")),
        (1, "jap,ipb->ijab", ("L<", "al")),
        (-1, "iap,jpb->ijab", ("L>+2R<", "al+be")),
        (-1, "jaq,ibq->ijab", ("al+be", "L>+R<")),
    ]),
    "3.19": ("(al+be-tau.al-tau.be)(b<a) = (id(x)L<(b))(tau.al+be)(a) - (L<(b)(x)id)(al+tau.be)(a) + (id(x)R<(a))(al+be)(b) - (R<(a)(x)id)(tau.al+tau.be)(b)", "ij", [
        (1, "jim,mab->ijab", ("<", "al+be-tau.al-tau.be")),
        (-1, "iaq,jbq->ijab", ("tau.al+be", "L<")),
        (1, "jap,ipb->ijab", ("L<", "al+tau.be")),
        (-1, "jaq,ibq->ijab", ("al+be", "R<")),
        (1, "iap,jpb->ijab", ("R<", "tau.al+tau.be")),
    ]),
    "3.20": ("(id(x)Ro(b) - R<(b)(x)id)(tau.al+be)(a) = (id(x)Ro(a) - R<(a)(x)id)(tau.al+be)(b)", "ij", [
        (1, "iaq,jbq->ijab", ("tau.al+be", "Ro")),
        (-1, "jap,ipb->ijab", ("R<", "tau.al+be")),
        (-1, "jaq,ibq->ijab", ("tau.al+be", "Ro")),
        (1, "iap,jpb->ijab", ("R<", "tau.al+be")),
    ]),
    "3.21": ("tau.al(a o b) = (id(x)Ro(b))tau.al(a) + ((L>+R<)(a)(x)id)(tau.al+be)(b)", "ij", [
        (1, "ijm,mab->ijab", ("o", "tau.al")),
        (-1, "iaq,jbq->ijab", ("tau.al", "Ro")),
        (-1, "iap,jpb->ijab", ("L>+R<", "tau.al+be")),
    ]),
    "3.22": ("(id(x)(R>+L<)(b))tau.al(a) = ((R>+L<)(b)(x)id)al(a) + (id(x)(L>+R<)(a))(tau.al+tau.be)(b) - ((L>+R<)(a)(x)id)(al+be)(b)", "ij", [
        (1, "iaq,jbq->ijab", ("tau.al", "R>+L<")),
        (-1, "jap,ipb->ijab", ("R>+L<", "al")),
        (-1, "jaq,ibq->ijab", ("tau.al+tau.be", "L>+R<")),
        (1, "iap,jpb->ijab", ("L>+R<", "al+be")),
    ]),
    "3.23": ("(al+be)(b<a) = (id(x)(R>+L<)(b))(tau.al+be)(a) + (R<(a)(x)id)(al+be)(b)", "ij", [
        (1, "jim,mab->ijab", ("<", "al+be")),
        (-1, "iaq,jbq->ijab", ("tau.al+be", "R>+L<")),
        (-1, "iap,jpb->ijab", ("R<", "al+be")),
    ]),
    # coboundary conditions on s = tau(r) - r, per basis pair (a, b) = (e_i, e_j);
    # P(c)s abbreviates (Lo(c)(x)id + id(x)(L>+R<)(c))s
    "4.3": ("((L>+2R<)(a)(x)id + id(x)(L>+R<)(a))P(b)s - (L<(b)(x)id)P(a)s - P(a(.)b)s = 0", "ij", [
        (1, "iap,jpq,qb->ijab", ("L>+2R<", "Lo", "s")),
        (1, "iap,pq,jbq->ijab", ("L>+2R<", "s", "L>+R<")),
        (1, "jap,pq,ibq->ijab", ("Lo", "s", "L>+R<")),
        (1, "ap,jqp,ibq->ijab", ("s", "L>+R<", "L>+R<")),
        (-1, "jap,ipq,qb->ijab", ("L<", "Lo", "s")),
        (-1, "jap,pq,ibq->ijab", ("L<", "s", "L>+R<")),
        (-1, "ijm,map,pb->ijab", ("(.)", "Lo", "s")),
        (-1, "ijm,aq,mbq->ijab", ("(.)", "s", "L>+R<")),
    ]),
    "4.4": ("(id(x)R<(a))P(b)s + (R<(a)(x)id)((Lo+Ro)(b)(x)id + id(x)L>(b))s - (L<(b)(x)id)(id(x)R<(a) - Ro(a)(x)id)s - ((2Lo+Ro)(b<a)(x)id + id(x)(2L>+R<)(b<a))s = 0", "ij", [
        (1, "jap,pq,ibq->ijab", ("Lo", "s", "R<")),
        (1, "ap,jqp,ibq->ijab", ("s", "L>+R<", "R<")),
        (1, "iap,jpq,qb->ijab", ("R<", "Lo+Ro", "s")),
        (1, "iap,pq,jbq->ijab", ("R<", "s", "L>")),
        (-1, "jap,pq,ibq->ijab", ("L<", "s", "R<")),
        (1, "jap,ipq,qb->ijab", ("L<", "Ro", "s")),
        (-1, "jim,aq,mbq->ijab", ("<", "s", "2L>+R<")),
        (-1, "jim,map,pb->ijab", ("<", "2Lo+Ro", "s")),
    ]),
    "4.5": ("((R>+L<)(b)(x)id)P(a)s - (id(x)(L>+R<)(a))(id(x)L>(b) + (Lo+Ro)(b)(x)id)s - ((L>+R<)(a)(x)id)P(b)s = 0", "ij", [
        (1, "jap,ipq,qb->ijab", ("R>+L<", "Lo", "s")),
        (1, "jap,pq,ibq->ijab", ("R>+L<", "s", "L>+R<")),
        (-1, "ap,jqp,ibq->ijab", ("s", "L>", "L>+R<")),
        (-1, "jap,pq,ibq->ijab", ("Lo+Ro", "s", "L>+R<")),
        (-1, "iap,jpq,qb->ijab", ("L>+R<", "Lo", "s")),
        (-1, "iap,pq,jbq->ijab", ("L>+R<", "s", "L>+R<")),
    ]),
    "4.6": ("(R<(a)(x)id)P(b)s - P(b<a)s = 0", "ij", [
        (1, "iap,jpq,qb->ijab", ("R<", "Lo", "s")),
        (1, "iap,pq,jbq->ijab", ("R<", "s", "L>+R<")),
        (-1, "jim,map,pb->ijab", ("<", "Lo", "s")),
        (-1, "jim,aq,mbq->ijab", ("<", "s", "L>+R<")),
    ]),
    # equations the R-tensors satisfy, per basis element a = e_i
    "4.7": ("(Lo(a)(x)id(x)id)R11 + (id(x)L>(a)(x)id)R12 + (id(x)id(x)L(.)(a))R13 - corrections = 0", "i", [
        (1, "iap,pbc->iabc", ("Lo", "R11")),
        (1, "ibp,apc->iabc", ("L>", "R12")),
        (1, "icp,abp->iabc", ("L(.)", "R13")),
        (-1, "pa,ipm,mbx,xc->iabc", ("r", "(.)", "L>", "s")),
        (-1, "pa,ipm,by,mcy->iabc", ("r", "(.)", "s", "L(.)")),
    ]),
    "4.8": ("(L>(a)(x)id(x)id - id(x)L>(a)(x)id)R21 + (id(x)id(x)L(*)(a))R22 + corrections = 0", "i", [
        (1, "iap,pbc->iabc", ("L>", "R21")),
        (-1, "ibp,apc->iabc", ("L>", "R21")),
        (1, "icp,abp->iabc", ("L(*)", "R22")),
        (1, "pc,ipm,max,xb->iabc", ("r", ">", "2L>+R<", "s")),
        (1, "pc,ipm,ay,mby->iabc", ("r", ">", "s", "2L>+R<")),
    ]),
    "4.9": ("-(id(x)L(.)(a)(x)id)R21 + (id(x)id(x)L(*)(a))R31 + corrections = 0", "i", [
        (-1, "ibp,apc->iabc", ("L(.)", "R21")),
        (1, "icp,abp->iabc", ("L(*)", "R31")),
        (1, "pc,ipm,max,xb->iabc", ("r", ">", "L>", "s")),
        (1, "pc,ipm,ay,mby->iabc", ("r", ">", "s", "L(.)")),
    ]),
    "4.10": ("-(id(x)L(.)(a)(x)id)R12 + (id(x)id(x)L(.)(a))R41 = 0", "i", [
        (1, "icp,abp->iabc", ("L(.)", "R41")),
        (-1, "ibp,apc->iabc", ("L(.)", "R12")),
    ]),
    "4.13": ("r12 o r13 + r23 (.) r13 - r12 < r23 = 0", "", [
        (1, "pb,sc,psa->abc", ("r", "r", "o")),
        (1, "bq,au,quc->abc", ("r", "r", "(.)")),
        (-1, "aq,sc,qsb->abc", ("r", "r", "<")),
    ]),
    "4.18": ("l>(a)l>(b)v - l>(b)l>(a)v = l>(a o b - b o a)v", "abv"),
    "4.19": ("l>(a)l<(b)v - l<(b)l>(a)v = l<(a>b - b<a)v + l<(b)l<(a)v", "abv"),
    "4.20": ("r>(a>b)v = r>(b)(r>+r<)(a)v + l>(a)r>(b)v - r>(b)(l>+l<)(a)v", "abv"),
    "4.21": ("r>(a<b)v = r<(b)r>(a)v + l<(a)(r>+r<)(b)v - r<(b)l<(a)v", "abv"),
    "4.22": ("l>(a)r<(b)v - r<(b)l>(a)v = r<(a o b)v - r<(b)r<(a)v", "abv"),
    "4.23": ("r>(a)(r>+r<)(b)v = r<(b)r>(a)v", "abv"),
    "4.24": ("l<(a>b)v = r>(b)(l>+l<)(a)v", "abv"),
    "4.25": ("l>(a o b)v = r<(b)l>(a)v", "abv"),
    "4.26": ("r<(a)r<(b)v = r<(b)r<(a)v", "abv"),
    "4.27": ("l<(a<b)v = r<(b)l<(a)v", "abv"),
    "4.29": ("T(u)>T(v) = T(l>(T(u))v) + T(r>(T(v))u)", "uv"),
    "4.30": ("T(u)<T(v) = T(l<(T(u))v) + T(r<(T(v))u)", "uv"),
}

SPECS = {code: (row[1], row[2] if len(row) > 2 else identity(*row)) for code, row in IDENTITIES.items() if len(row) > 1}


def render_identity(identity: str) -> str:
    """How an identity code appears in text reports."""
    if identity[0].isdigit():
        return f"Eq ({identity})"
    return identity
