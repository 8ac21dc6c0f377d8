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

Operands not passed in by the caller are looked up in ``OPERANDS``: each
product (``o``, ``(.)``, ``(*)``, the dual products ``<*`` and ``>*``),
operator (``L>+2R<``), dual map (``L>*+R<*``), co-operation
(``tau.al+be``, the coboundary ``alpha`` and ``beta`` of r), product an
operator carries (``<T``, ``>T``) and tensor (``s``, the R-tensors) is the
text of its value (``VALUES``).  Identities and operands
run from their texts through one parser, ``identity``, and ``SPECS`` and
``OPERANDS`` parse a text when it is first looked up, so importing parses
nothing.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping

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
PRE_NOVIKOV_REP = tuple(f"4.{k}" for k in range(18, 28))
O_OPERATOR_PRE_NOVIKOV = ("4.29", "4.30")


# one token of ``identity``, of the kind its group names: a map comes with its
# argument's parenthesis (``lB(x)`` is lB at x, not lB and ``(x)``, the tensor
# product), a map of slots (co-operation, id, tau) with any but ``(x)``
_SUM = r"(?:{0})|\((?:\d*(?:{0})[+-])+\d*(?:{0})\)"  # X or a parenthesized sum of terms [k]X
_FAMILY, _CO = _SUM.format(r"[lr][<>AB]?|[LR](?:o|<|>|\(\.\)|\(\*\))"), _SUM.format(r"(?:tau\.)?(?:al|be)")
_TOKEN = re.compile(rf"(?P<cross>\(x\))|(?P<map>(?:{_FAMILY}|[Tw])\()|(?P<slot>(?:{_CO}|id|tau)(?:\((?!x\)))?)"
                    r"|(?P<placed>r\d\d)|(?P<sum>sum_p)|(?P<tensor>R\d\d|[rs])"
                    r"|(?P<product>[o<>.]|\([.*]\))|(?P<basis>[xy]_p|[abcuvxy])|(?P<coef>[1-9]\d*)|(?P<mark>[(),=+0-])"
                    r"|(?P<other>\S)")
_FREE = "mnpqrsdefghijklo"  # a term's contracted letters: no basis letter, slot letter, nor the batch axis N
_SLOTS = "twz"  # the letters of a value's slots, on the output axes after the witness letters


def identity(text: str, witness: str) -> list:
    """The term list of ``text``, an identity: left side minus right side on
    the axes of the ``witness`` letters, then one per slot of its value
    (``t``, ``tw``, ``twz``; none for a scalar) unless the witness places it
    (``atb``: the slot between a and b).  It reads basis elements
    ``abcuvxy``; infix products, a nested one parenthesized; ``X(p)q``, a
    family X (``l``, ``Lo``, a parenthesized sum ``OPERANDS`` names) at p
    applied to q; ``T(p)``; ``w(p, q)``; ``X(p)``, a co-operation X (``al``,
    ``(tau.al+be)``, ...) at p; the tensors ``r``, ``s``, ``R11``-``R41``;
    ``tau(V)``; slot maps ``(A(x)B)V``, ``(A(x)B(x)C)V``, whose factors
    (``id``, ``tau``, a family map ``M(p)``, a co-operation) take V's slots
    in turn, their sums and compositions; placed products ``rXY P rZW``, r
    in the slots X, Y and Z, W, multiplied by P in the one they share;
    tensor products ``V (x) W``; ``sum_p V``, r = sum_p x_p (x) y_p as a
    first operand, V reading ``x_p`` and ``y_p`` once each; sums of terms
    ``[k]V``, k a positive integer, distributed.  Operands are listed as
    their values are formed (argument, map, element acted on), but a family
    map on a tensor's first slot comes first, as M in the matrix product
    M t N^T.  Else a ``ValueError``."""
    bad, fresh, bound = f"not an identity: {text!r}", itertools.count(), {}
    tokens = [(None, None)] + [(m.lastgroup, m[0]) for m in _TOKEN.finditer(text)][::-1]  # bottom: the end

    # each parse gives a list of terms (coef, factors, slots), each factor a
    # (name, letters) pair, with the basis letters and fresh ints for the
    # rest; a value's slots are a tuple of its letters, a slot map's the list
    # of its factors' (name, argument letter or None), its factors its
    # arguments'
    def upto(end):  # [+|-][k]product {+|- [k]product}, then the token ``end``
        terms, sign = [], 1
        while True:
            if tokens[-1][1] in ("+", "-"):
                sign = 1 if tokens.pop()[1] == "+" else -1
            k = int(tokens.pop()[1]) if tokens[-1][0] == "coef" else 1
            terms += [(sign * k * c, f, s) for c, f, s in product()]
            if tokens[-1][1] not in ("+", "-"):
                if tokens.pop()[1] != end:
                    raise ValueError(bad)
                return terms

    def vectors(terms):  # each term with its one slot letter
        if any(type(s) is not tuple or len(s) != 1 for *_, s in terms):
            raise ValueError(f"{bad}: a product, map or form takes vectors")
        return [(c, f, s[0]) for c, f, s in terms]

    def product():
        if tokens[-1][0] in ("placed", "sum"):
            return placed() if tokens[-1][0] == "placed" else summed()
        left = crossed(unit())
        if tokens[-1][0] != "product":
            return left
        op, right, k = tokens.pop()[1], vectors(unit()), next(fresh)
        if tokens[-1][0] == "product":
            raise ValueError(f"{bad}: a nested product is parenthesized")
        return [(c * d, f + g + ((op, (p, q, k)),), (k,)) for c, f, p in vectors(left) for d, g, q in right]

    def crossed(left):  # A(x)B(x)..: a slot map's factors in slot order, or the tensor product of values
        while tokens[-1][0] == "cross":
            tokens.pop()
            right = unit()
            if {type(s) for *_, s in left + right} not in ({list}, {tuple}):
                raise ValueError(f"{bad}: (x) joins two values or two slot maps")
            left = [(c * d, f + g, s + t) for c, f, s in left for d, g, t in right]
        return left

    def placed():  # rXY P rZW: r in slots X, Y and in slots Z, W, multiplied in the one slot they share
        first, (kind, op) = tokens.pop()[1], tokens.pop()
        second = tokens.pop()[1] if kind == "product" and tokens[-1][0] == "placed" else "r"  # (none: refused)
        x, y = ([int(d) - 1 for d in name[1:]] for name in (first, second))
        if len(set(x) & set(y)) != 1 or set(x) | set(y) != {0, 1, 2}:
            raise ValueError(f"{bad}: rXY P rZW share one of the slots 1, 2, 3 and fill the others")
        (at,), slots, p, q = set(x) & set(y), tuple(next(fresh) for _ in range(3)), next(fresh), next(fresh)
        rx, ry = (tuple(c if i == at else slots[i] for i in ij) for ij, c in ((x, p), (y, q)))
        return [(1, (("r", rx), ("r", ry), (op, (p, q, slots[at]))), slots)]

    def summed():  # sum_p V: r = sum_p x_p (x) y_p, the first operand, its slots x_p and y_p in V
        tokens.pop()
        if bound:
            raise ValueError(f"{bad}: a sum_p is not nested")
        bound.update(x_p=next(fresh), y_p=next(fresh))
        body, xy = product(), (bound.pop("x_p"), bound.pop("y_p"))
        if any([x for _, g in f for x in g].count(p) + s.count(p) != 1 for _, f, s in body for p in xy):
            raise ValueError(f"{bad}: a sum_p term reads each of x_p and y_p once")
        return [(c, (("r", xy),) + f, s) for c, f, s in body]

    def unit():
        kind, token = tokens.pop()
        if kind == "basis":
            if token[1:] == "_p" and token not in bound:
                raise ValueError(f"{bad}: x_p and y_p are read in a sum_p")
            return [(1, (), (bound.get(token, token),))]
        if kind == "tensor":
            slots = tuple(next(fresh) for _ in range(3 if token[0] == "R" else 2))  # R11-R41; r and s
            return [(1, ((token, slots),), slots)]
        if token == "0":
            return []
        if token == "(":
            terms = upto(")")
            return applied(terms, unit()) if any(type(s) is list for *_, s in terms) else terms
        if kind not in ("map", "slot"):
            raise ValueError(bad)
        name = token.removesuffix("(")
        name = name[1:-1] if name[0] == "(" else name  # (without a sum's parentheses)
        if kind == "slot" and token[-1] == "(":  # X(V) = (X)V: tau or a co-operation applied to V
            return applied([(1, (), [(name, None)])], upto(")"))
        if name == "w":
            arg, other = vectors(upto(",")), vectors(upto(")"))
            return [(c * d, f + g + (("w", (p, q)),), ()) for c, f, p in arg for d, g, q in other]
        if name == "T":
            k = next(fresh)
            return [(c, f + (("T", (k, p)),), (k,)) for c, f, p in vectors(upto(")"))]
        maps = [(c, f, [(name, p)]) for c, f, p in vectors(upto(")"))] if kind == "map" else [(1, (), [(name, None)])]
        if kind == "map" and (tokens[-1][0] not in ("mark", "cross") or tokens[-1][1] == "("):
            return applied(maps, unit())  # X(p)q: the slot map X(p) applied to q
        return maps

    def applied(maps, value):  # slot maps applied to a value
        if any(type(s) is not list for *_, s in maps) or any(type(s) is list for *_, s in value):
            raise ValueError(f"{bad}: a slot map applies to a value")
        return [(c * d, f + left + g + right, slots)
                for c, f, ops in maps for d, g, s in value for left, right, slots in [slotted(ops, s)]]

    def slotted(ops, slots):  # a slot map's factors applied to the slots in turn: (left, right, slots)
        if sum(1 + (name == "tau") for name, _ in ops) != len(slots):
            raise ValueError(f"{bad}: a slot map takes as many slots as its value has")
        factors, out, slots = (), (), list(slots)
        for name, p in ops:
            x = slots.pop(0)
            if name in ("id", "tau"):
                out += (slots.pop(0), x) if name == "tau" else (x,)
            elif p is None:  # a co-operation: one slot to two
                out += (next(fresh), next(fresh))
                factors += ((name, (x, *out[-2:])),)
            else:  # a family map M(p)
                out += (next(fresh),)
                factors += ((name, (p, out[-1], x)),)
        first = int(ops[0][1] is not None)  # M(p) on the first slot comes before the value, as M in M t N^T
        return factors[:first], factors[first:], out

    terms = upto("=") + [(-c, f, s) for c, f, s in upto(None)]  # (None: the end)
    ranks = {None if type(s) is list else len(s) for *_, s in terms}
    if len(ranks) != 1 or not ranks <= set(range(len(_SLOTS) + 1)):
        raise ValueError(f"{bad}: its terms are values of one rank, at most {len(_SLOTS)}")
    rank = ranks.pop()
    out = witness + "".join(x for x in _SLOTS[:rank] if x not in witness)
    if sorted(x for x in out if x in _SLOTS) != list(_SLOTS[:rank]):
        raise ValueError(f"{bad}: its witness places a slot letter of its value at most once")
    basis, spec = sorted(x for x in witness if x not in _SLOTS), []
    for coef, factors, slots in terms:
        letters = [x for _, group in factors for x in group]
        if not set(slots) <= set(letters) or sorted(x for x in letters if isinstance(x, str)) != basis:
            raise ValueError(f"{bad}: a term reads each slot, and each letter of {witness!r} once")
        rename = {**dict(zip(dict.fromkeys(x for x in letters if isinstance(x, int) and x not in slots), _FREE)),
                  **dict(zip(slots, _SLOTS))}
        subs = ",".join("".join(rename.get(x, x) for x in group) for _, group in factors)
        spec.append((coef, f"{subs}->{out}", tuple(name for name, _ in factors)))
    return spec


# the derived operands, each the term list of its text: name -> (text,
# witness letters), read by ``identity`` as ``text = 0``
VALUES = {
    "o": ("a<b + a>b", "ab"), "(.)": ("a>b + b<a", "ab"), "(*)": ("a o b + b o a", "ab"),
    # multiplication operators and sums of representation maps: M(a)b at the witness atb, image before argument
    "Lo": ("a o b", "atb"), "Ro": ("b o a", "atb"), "L>": ("a>b", "atb"), "R>": ("b>a", "atb"),
    "L<": ("a<b", "atb"), "R<": ("b<a", "atb"), "L(.)": ("a (.) b", "atb"), "L(*)": ("a (*) b", "atb"),
    "L>+R<": ("a>b + b<a", "atb"), "L>+2R<": ("a>b + 2 b<a", "atb"), "2L>+R<": ("2 a>b + b<a", "atb"),
    "R>+L<": ("b>a + a<b", "atb"), "Lo+Ro": ("a o b + b o a", "atb"), "2Lo+Ro": ("2 a o b + b o a", "atb"),
    "l>+l<": ("l>(a)b + l<(a)b", "atb"), "r>+r<": ("r>(a)b + r<(a)b", "atb"),
    "lA-rA": ("lA(a)b - rA(a)b", "atb"), "lB-rB": ("lB(a)b - rB(a)b", "atb"),
    # the duals M*(a) = -M(a)^T: -M(a)b at the witness ab
    "l*+r*": ("-l(a)b - r(a)b", "ab"), "-r*": ("r(a)b", "ab"), "r>*": ("-r>(a)b", "ab"),
    "l>*+l<*+r>*+r<*": ("-l>(a)b - l<(a)b - r>(a)b - r<(a)b", "ab"),
    "-r>*-l<*": ("r>(a)b + l<(a)b", "ab"), "-r>*-r<*": ("r>(a)b + r<(a)b", "ab"),
    "L>*+R<*": ("-a>b - b<a", "ab"), "-R<*": ("b<a", "ab"), "R>*": ("-b>a", "ab"),
    "L>*+L<*+R>*+R<*": ("-a>b - a<b - b>a - b<a", "ab"),
    "-R>*-L<*": ("b>a + a<b", "ab"), "-R>*-R<*": ("b>a + b<a", "ab"),
    # co-operations, tau. swapping their two slots
    "tau.al": ("tau(al(a))", "a"), "al+be": ("al(a) + be(a)", "a"), "tau.al+be": ("tau(al(a)) + be(a)", "a"),
    "2tau.al+be": ("2 tau(al(a)) + be(a)", "a"), "al+tau.be": ("al(a) + tau(be(a))", "a"),
    "tau.al+tau.be": ("tau(al(a)) + tau(be(a))", "a"),
    "al+be-tau.al-tau.be": ("al(a) + be(a) - tau(al(a)) - tau(be(a))", "a"),
    # the products they induce on the dual space: <e_i* (x) e_j*, al(e_k)> is the e_k*-coefficient of e_i* <* e_j*
    "<*": ("al(a)", "twa"), ">*": ("be(a)", "twa"),
    # the coboundary co-operations of a tensor r, and the products an operator T carries to its module
    "alpha": ("(Lo(a)(x)id + id(x)(L>+R<)(a))tau(r)", "a"), "beta": ("-(L>(a)(x)id + id(x)(Lo+Ro)(a))r", "a"),
    ">T": ("l(T(u))v", "uv"), "<T": ("r(T(v))u", "uv"),
    "s": ("tau(r) - r", ""),
    # the seven R-tensors: signed placed products of r in three slots
    "R11": ("r21 o r31 - r21 o r32 - r31 (.) r32 + r21 > r23 + r31 (*) r23", ""),
    "R12": ("-r21 o r31 - r23 (.) r31 + r21 < r32", ""),
    "R13": ("r31 o r21 + r32 (.) r21 + r23 > r31 - r31 < r23 + r32 > r21 + r31 (*) r21", ""),
    "R21": ("r21 > r13 + r12 > r23 + r13 (*) r23", ""),
    "R22": ("r13 o r21 + r23 (.) r21 - r13 > r12 - r23 (*) r12 - r23 o r12 - r13 (.) r12 + r23 > r21"
            " + r13 (*) r21 + r23 o r13 - r13 o r23", ""),
    "R31": ("-r13 o r23 + r13 o r21 + r23 (.) r21 - r13 > r12 - r23 (*) r12", ""),
    "R41": ("-r31 o r21 - r32 (.) r21 + r31 < r23", ""),
}
R_TENSORS = ("R11", "R12", "R13", "R21", "R22", "R31", "R41")


class OnRead(Mapping):
    """A read-only table of term lists, each made by ``parse`` from its entry
    ``(text, witness)`` in ``texts`` (by default a value: ``text = 0``) when
    it is first looked up, then kept; a key not in ``texts`` is a KeyError."""

    def __init__(self, texts: dict, parse=lambda text, witness: identity(f"{text} = 0", witness)):
        self.texts, self._parse, self._read = texts, parse, {}

    def __getitem__(self, name):
        if name not in self._read:
            self._read[name] = self._parse(*self.texts[name])
        return self._read[name]

    def __contains__(self, name):
        return name in self.texts

    def __iter__(self):
        return iter(self.texts)

    def __len__(self):
        return len(self.texts)


OPERANDS = OnRead(VALUES)


# YBE_ROWS, parsed on first read: 4.13 for a symmetric r with each r read by
# the row of a witness letter (r21 for r12, r32 for r23), so that residual
# entry (a, b, c) reads rows a, b and c of r, and each table only at a witness
# letter on its last axis
def __getattr__(name: str):
    if name != "YBE_ROWS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    rows = globals()[name] = identity("r21 o r31 + r23 (.) r13 - r12 < r32 = 0", "")
    return rows


# code -> (formula, witness letters); the two non-residual flags, formula alone
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
    # coalgebra, on the basis element a the co-operations act on
    "3.11": ("(al(x)id)al(a) + (tau(x)id)(id(x)al)be(a) - (id(x)(al+be))al(a) - (tau(x)id)(be(x)id)al(a) = 0", "a"),
    "3.12": ("(id(x)be)be(a) + (tau(x)id)((al+be)(x)id)be(a) - ((al+be)(x)id)be(a) - (tau(x)id)(id(x)be)be(a) = 0",
             "a"),
    "3.13": ("(id(x)tau)(be(x)id)al(a) - ((al+be)(x)id)be(a) = 0", "a"),
    "3.14": ("(id(x)tau)(al(x)id)al(a) - (al(x)id)al(a) = 0", "a"),
    # compatibility, per basis pair (a, b)
    "3.16": ("(tau.al+be)(a o b) = ((L>+2R<)(a)(x)id + id(x)Lo(a))(tau.al+be)(b) + (id(x)Ro(b))(2tau.al+be)(a)"
             " - (R<(b)(x)id)tau.al(a)", "ab"),
    "3.17": ("tau.al(a o b - b o a) = ((L>+R<)(a)(x)id + id(x)Lo(a))tau.al(b)"
             " - ((L>+R<)(b)(x)id + id(x)Lo(b))tau.al(a)", "ab"),
    "3.18": ("(al+be)(a(.)b) = (id(x)(R>+L<)(b))(2tau.al+be)(a) - (L<(b)(x)id)al(a)"
             " + ((L>+2R<)(a)(x)id + id(x)(L>+R<)(a))(al+be)(b)", "ab"),
    "3.19": ("(al+be-tau.al-tau.be)(b<a) = (id(x)L<(b))(tau.al+be)(a) - (L<(b)(x)id)(al+tau.be)(a)"
             " + (id(x)R<(a))(al+be)(b) - (R<(a)(x)id)(tau.al+tau.be)(b)", "ab"),
    "3.20": ("(id(x)Ro(b) - R<(b)(x)id)(tau.al+be)(a) = (id(x)Ro(a) - R<(a)(x)id)(tau.al+be)(b)", "ab"),
    "3.21": ("tau.al(a o b) = (id(x)Ro(b))tau.al(a) + ((L>+R<)(a)(x)id)(tau.al+be)(b)", "ab"),
    "3.22": ("(id(x)(R>+L<)(b))tau.al(a) = ((R>+L<)(b)(x)id)al(a) + (id(x)(L>+R<)(a))(tau.al+tau.be)(b)"
             " - ((L>+R<)(a)(x)id)(al+be)(b)", "ab"),
    "3.23": ("(al+be)(b<a) = (id(x)(R>+L<)(b))(tau.al+be)(a) + (R<(a)(x)id)(al+be)(b)", "ab"),
    # coboundary conditions on s = tau(r) - r, per basis pair (a, b)
    "4.3": ("((L>+2R<)(a)(x)id + id(x)(L>+R<)(a))(Lo(b)(x)id + id(x)(L>+R<)(b))s"
            " - (L<(b)(x)id)(Lo(a)(x)id + id(x)(L>+R<)(a))s - (Lo(a(.)b)(x)id + id(x)(L>+R<)(a(.)b))s = 0", "ab"),
    "4.4": ("(id(x)R<(a))(Lo(b)(x)id + id(x)(L>+R<)(b))s + (R<(a)(x)id)((Lo+Ro)(b)(x)id + id(x)L>(b))s"
            " - (L<(b)(x)id)(id(x)R<(a) - Ro(a)(x)id)s - ((2Lo+Ro)(b<a)(x)id + id(x)(2L>+R<)(b<a))s = 0", "ab"),
    "4.5": ("((R>+L<)(b)(x)id)(Lo(a)(x)id + id(x)(L>+R<)(a))s - (id(x)(L>+R<)(a))(id(x)L>(b) + (Lo+Ro)(b)(x)id)s"
            " - ((L>+R<)(a)(x)id)(Lo(b)(x)id + id(x)(L>+R<)(b))s = 0", "ab"),
    "4.6": ("(R<(a)(x)id)(Lo(b)(x)id + id(x)(L>+R<)(b))s - (Lo(b<a)(x)id + id(x)(L>+R<)(b<a))s = 0", "ab"),
    # equations the R-tensors satisfy, per basis element a, with r = sum_p x_p (x) y_p
    "4.7": ("(Lo(a)(x)id(x)id)R11 + (id(x)L>(a)(x)id)R12 + (id(x)id(x)L(.)(a))R13"
            " - sum_p y_p (x) (L>(a (.) x_p)(x)id)s - sum_p y_p (x) (id(x)L(.)(a (.) x_p))s = 0", "a"),
    "4.8": ("(L>(a)(x)id(x)id - id(x)L>(a)(x)id)R21 + (id(x)id(x)L(*)(a))R22"
            " + sum_p ((2L>+R<)(a>x_p)(x)id)s (x) y_p + sum_p (id(x)(2L>+R<)(a>x_p))s (x) y_p = 0", "a"),
    "4.9": ("-(id(x)L(.)(a)(x)id)R21 + (id(x)id(x)L(*)(a))R31"
            " + sum_p (L>(a>x_p)(x)id)s (x) y_p + sum_p (id(x)L(.)(a>x_p))s (x) y_p = 0", "a"),
    "4.10": ("-(id(x)L(.)(a)(x)id)R12 + (id(x)id(x)L(.)(a))R41 = 0", "a"),
    "4.13": ("r12 o r13 + r23 (.) r13 - r12 < r23 = 0", ""),
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

SPECS = OnRead({code: row for code, row in IDENTITIES.items() if len(row) > 1},
               lambda text, witness: (witness, identity(text, witness)))


def render_identity(identity: str) -> str:
    """How an identity code appears in text reports."""
    if identity[0].isdigit():
        return f"Eq ({identity})"
    return identity
