"""Seeded inputs, operations and output checks for the four benchmark workloads.

Inputs are derived from the shipped fixtures:

* ``fixtures``: signed basis permutations of the fixture bundles, fed to the
  CLI through ``prenovikov.cli.run_command``;
* ``probes``: conjugates of the fixture algebras, bialgebras and
  representation by random invertible matrices, plus random symmetric
  tensors, single-entry mutations and random operators, fed to the library;
* ``search``: the shipped semidirect fixture and dense conjugates of it, fed
  to the CLI ``search`` command;
* ``enumerate``: no input beyond the value set.

Every operation's output is compared with an expected value: a digest of the
seed commit's output pinned in ``pins.json``, the transform of an output
already checked against a pin under the same basis change, or a verdict that
basis invariance fixes (a conjugated bialgebra stays valid, a transformed
solution keeps a zero residual and all-zero diagnostics).

Conjugated and searched cases are drawn from fixed per-slot pools so that each
case can carry a pinned digest; the seed decides which pool cases a run uses
and in which order.  No case is used twice in one process, so a cache that
reuses results within a run cannot pass for a speed-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import io as _io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import prenovikov as pn
from prenovikov import cli
from prenovikov import io as pio

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

SEARCH_VALUES = "-1,0,1"
ENUM_VALUES = (-1, 0, 1)
POOL_SIZE = {"probes": 96, "search": 64}


# ---------------------------------------------------------------------------
# output normalisation and digests
# ---------------------------------------------------------------------------

_TEXT_TIMING = re.compile(r" \(\d+\.\d+s\)$", re.M)


def strip_timing(doc: Any) -> Any:
    """Drop the wall-clock ``seconds`` field that machine reports embed."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "seconds"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def segments(text: str) -> list:
    """Split CLI output into JSON documents and text lines, timing removed."""
    text = _TEXT_TIMING.sub("", text)
    dec = json.JSONDecoder()
    out, i = [], 0
    while i < len(text):
        if text[i] == "{":
            doc, i = dec.raw_decode(text, i)
            out.append(strip_timing(doc))
            i += 1  # the newline after the document
        else:
            j = text.find("\n", i)
            j = len(text) if j < 0 else j
            out.append(text[i:j])
            i = j + 1
    return out


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def nested_str(x: Any) -> Any:
    if isinstance(x, (tuple, list)):
        return [nested_str(v) for v in x]
    if isinstance(x, dict):
        return {str(k): nested_str(v) for k, v in sorted(x.items())}
    return str(x)


def all_zero(x: Any) -> bool:
    if isinstance(x, (tuple, list)):
        return all(all_zero(v) for v in x)
    return x == 0


_LABEL_KEYS = {"basis", "module_basis"}


def scalars(x: Any):
    """Every table entry of an input: nested sequences, or bundle documents
    whose arrays hold rational strings."""
    if isinstance(x, dict):
        for k, v in x.items():
            if k not in _LABEL_KEYS and isinstance(v, (dict, list, tuple)):
                yield from scalars(v)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from scalars(v)
    else:
        yield Fraction(x)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

SignedPerm = tuple[tuple[int, ...], tuple[int, ...]]


def perm_sum(g: SignedPerm, h: SignedPerm) -> SignedPerm:
    n = len(g[0])
    return g[0] + tuple(n + x for x in h[0]), g[1] + h[1]


def perm_key(g: SignedPerm) -> str:
    return ",".join(f"{s * (p + 1):+d}" for p, s in zip(*g))


def permute_array(a: list, perms: dict) -> list:
    """New basis e'_i = s_i e_p(i): A'[i..] = (prod s) A[p(i)..] on every axis.

    For signed permutations the dual basis changes the same way, so the rule
    holds for every index whatever its variance; an axis of length d uses
    ``perms[d]``.
    """
    out = np.array(a, dtype=object)
    sign = np.ones(out.shape, dtype=np.int64)
    for ax, d in enumerate(out.shape):
        p, s = perms[d]
        out = np.take(out, p, axis=ax)
        shape = [1] * out.ndim
        shape[ax] = d
        sign = sign * np.array(s, dtype=np.int64).reshape(shape)
    flat = [str(Fraction(x) * int(sg)) for x, sg in zip(out.ravel(), sign.ravel())]
    return np.array(flat, dtype=object).reshape(out.shape).tolist()


def permute_doc(doc: Any, perms: dict) -> Any:
    """Apply a signed basis permutation to every array of a bundle-like doc."""
    if isinstance(doc, dict):
        if doc.get("kind") == "report":
            return doc
        return {k: v if k in _LABEL_KEYS else permute_doc(v, perms) for k, v in doc.items()}
    if isinstance(doc, list) and doc and isinstance(doc[0], (list, str)):
        return permute_array(doc, perms)
    return doc


def arr(x) -> np.ndarray:
    return np.array(x, dtype=object)


def tup(a) -> Any:
    if isinstance(a, np.ndarray):
        return tuple(tup(x) for x in a)
    return Fraction(a)


def random_conjugator(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A random basis change P (new basis e'_i = sum_a P[a][i] e_a) and P^-1.

    P = L U / 2 with random unit lower and upper triangular L, U: invertible,
    dense, and with the same denominators from case to case, so cases of one
    slot cost about the same and the seed moves the inputs, not the workload.
    """
    def unit(lower: bool):
        return [[1 if i == j else rng.choice((-1, 1)) if (i > j) == lower else 0
                 for j in range(n)] for i in range(n)]

    P = tup(arr(unit(True)).dot(arr(unit(False))) * Fraction(1, 2))
    return arr(P), arr(pn.core.mat_inverse(P))


def conj_table(c, P, Q):
    """Structure constants (or co-operations) in the new basis."""
    return tup(np.einsum("ai,bj,kc,abc->ijk", P, P, Q, arr(c), optimize=True))


def conj_cotable(c, P, Q):
    return tup(np.einsum("ai,jb,kc,abc->ijk", P, Q, Q, arr(c), optimize=True))


def conj_algebra(alg, P, Q):
    return pn.PreNovikovAlgebra(
        pn.StructureConstants(alg.dim, conj_table(alg.lhd.c, P, Q)),
        pn.StructureConstants(alg.dim, conj_table(alg.rhd.c, P, Q)),
    )


def conj_coalgebra(co, P, Q):
    return pn.PreNovikovCoalgebra(co.dim, conj_cotable(co.alpha, P, Q), conj_cotable(co.beta, P, Q))


def conj_tensor(r, Q):
    return tup(np.einsum("jb,kc,bc->jk", Q, Q, arr(r), optimize=True))


def conj_rep(rep, alg, P, Rm, Rq):
    """Representation maps after changing the algebra (P) and module (Rm) bases."""

    def maps(m):
        return tup(np.einsum("ai,pq,aqr,rs->ips", P, Rq, arr(m), Rm, optimize=True))

    return pn.PreNovikovRep(alg, maps(rep.l_rhd), maps(rep.r_rhd), maps(rep.l_lhd), maps(rep.r_lhd))


def random_symmetric(rng: random.Random, n: int):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return tuple(tuple(row) for row in m)


def load_fixture(name: str):
    return pio.bundle_to_objects(pio.parse_bundle((FIXTURES / name).read_text()))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed call: ``run()`` returns the raw output, ``normalize`` turns
    it into a JSON-able value whose digest is pinned, and ``check`` returns an
    error message (or None) from the expectations basis invariance fixes."""

    key: str
    kind: str
    run: Callable[[], Any]
    normalize: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None] = lambda out, norm: None
    verdict_fail: Callable[[Any], bool] = lambda out: False
    tables: tuple = ()
    pin_key: str | None = None
    expected: Any = None  # what the workload needs to derive the expected output


def run_cli(argv: list) -> tuple[int, str, str]:
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.run_command(argv, out)
    return rc, out.getvalue(), err.getvalue()


def _cli_normalize(res):
    rc, out, err = res
    return {"exit": rc, "out": segments(out), "err": err.strip()}


def _doc_violations(doc: dict) -> int:
    return len(doc.get("violations", ())) + sum(_doc_violations(s) for s in doc.get("sections", ()))


def cli_violations(res) -> int:
    """Violations listed in a CLI output, text or machine rendering."""
    n = 0
    for seg in segments(res[1]):
        if isinstance(seg, str):
            n += " violated at (" in seg
        elif seg.get("kind") == "report":
            n += _doc_violations(seg)
    return n


# ---------------------------------------------------------------------------
# fixtures workload
# ---------------------------------------------------------------------------

FIXTURE_FILES = sorted(p.name for p in FIXTURES.glob("*.json"))

# (command id, argv with {file} placeholders, basis family); family 2 files
# change by a signed permutation g of the 2-dim algebra (g (+) g on the
# 4-dim spaces built from it), family 4 files by a signed permutation of
# their 4-dim basis.
FIXTURE_COMMANDS = [
    (f"check:{name}", ["check", "{%s}" % name], 2 if name.startswith("dim2") else 4)
    for name in (
        "dim2_novikov", "dim2_pre_novikov", "dim2_pre_novikov_broken", "dim2_coalgebra",
        "dim2_bialgebra", "dim2_double_qf", "dim2_rep", "dim2_pre_rep", "dim2_o_operator",
        "dim4_semidirect", "dim4_coalgebra", "dim4_bialgebra",
    )
] + [
    ("check-machine:dim2_pre_novikov_broken",
     ["--format", "machine", "check", "{dim2_pre_novikov_broken}"], 2),
    ("derive:dim2_pre_novikov", ["derive", "{dim2_pre_novikov}"], 2),
    ("derive:dim2_rep", ["derive", "{dim2_rep}"], 2),
    ("derive:dim2_pre_rep", ["derive", "{dim2_pre_rep}"], 2),
    ("derive:dim4_semidirect", ["derive", "{dim4_semidirect}"], 4),
    ("double:dim2_bialgebra", ["double", "{dim2_bialgebra}"], 2),
    ("double:dim4_bialgebra", ["double", "{dim4_bialgebra}"], 4),
    ("coboundary:dim4", ["coboundary", "{dim4_semidirect}", "{dim4_ybe_solution}"], 4),
    ("ybe:dim4", ["ybe", "{dim4_semidirect}", "{dim4_ybe_solution}"], 4),
    ("oper-lift:dim2", ["oper", "{dim2_pre_novikov}", "{dim2_pre_rep}", "{dim2_shift_t}", "--lift"], 2),
    ("diag:dim4", ["diag", "{dim4_semidirect}", "{dim4_ybe_solution}"], 4),
]

# Commands whose outputs list violations: their digests are pinned for every
# signed permutation of the 2-dim basis instead of being transformed.
FIXTURE_PINNED_PER_PERM = ("check:dim2_pre_novikov_broken", "check-machine:dim2_pre_novikov_broken")

IDENTITY2: SignedPerm = ((0, 1), (1, 1))
IDENTITY4: SignedPerm = ((0, 1, 2, 3), (1, 1, 1, 1))


def all_signed_perms2() -> list[SignedPerm]:
    return [(p, (a, b)) for p in ((0, 1), (1, 0)) for a in (1, -1) for b in (1, -1)]


def fixture_perms(family: int, g2: SignedPerm, g4: SignedPerm) -> dict:
    if family == 2:
        return {2: g2, 4: perm_sum(g2, g2)}
    return {4: g4, 8: perm_sum(g4, g4)}


class FixturesWorkload:
    speed_kernel = "mixed"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"fixtures:{seed}")
        self.workdir = workdir
        self.docs = {n[:-5]: json.loads((FIXTURES / n).read_text()) for n in FIXTURE_FILES}
        self.base: dict = {}
        self.pass_no = 0
        others4 = [g for g in self._all_perms4() if g != IDENTITY4]
        self.perms4 = self.rng.sample(others4, len(others4))
        self.perms2 = [g for g in all_signed_perms2() if g != IDENTITY2]

    @staticmethod
    def _all_perms4() -> list[SignedPerm]:
        return [
            (p, s)
            for p in itertools.permutations(range(4))
            for s in itertools.product((1, -1), repeat=4)
        ]

    def capacity(self) -> int:
        return 1 + len(self.perms4)

    def next_batch(self) -> list[Op]:
        k = self.pass_no
        self.pass_no += 1
        if k == 0:
            return self.batch(k, IDENTITY2, IDENTITY4)
        return self.batch(k, self.rng.choice(self.perms2), self.perms4[k - 1])

    def batch(self, k: int, g2: SignedPerm, g4: SignedPerm) -> list[Op]:
        """Pass k: every command on the fixtures under the basis changes g2, g4."""
        if g2 == IDENTITY2 and g4 == IDENTITY4:
            paths = {n: str(FIXTURES / f"{n}.json") for n in self.docs}
        else:
            pdir = self.workdir / f"pass{k}"
            pdir.mkdir(parents=True, exist_ok=True)
            paths = {}
            for n, doc in self.docs.items():
                perms = fixture_perms(2 if n.startswith("dim2") else 4, g2, g4)
                path = pdir / f"{n}.json"
                path.write_text(json.dumps(permute_doc(doc, perms), sort_keys=True, indent=2) + "\n")
                paths[n] = str(path)
        ops = []
        for cid, argv, family in FIXTURE_COMMANDS:
            real = [a.format(**paths) if a.startswith("{") else a for a in argv]
            perms = fixture_perms(family, g2, g4)
            gkey = perm_key(perms[family])
            op = Op(
                key=f"{cid}@{gkey}",
                kind=cid.split(":")[0],
                run=lambda real=real: run_cli(real),
                normalize=_cli_normalize,
                verdict_fail=lambda res: res[0] != 0,
                tables=tuple(self.docs[a[1:-1]] for a in argv if a.startswith("{")),
            )
            if k == 0 or cid in FIXTURE_PINNED_PER_PERM:
                op.pin_key = f"fixtures|{cid}|{perm_key(g2) if cid in FIXTURE_PINNED_PER_PERM else 'id'}"
            else:
                op.expected = (cid, perms)
            ops.append(op)
        return ops

    def expected(self, op: Op):
        cid, perms = op.expected
        base = self.base[cid]
        return {**base, "out": [permute_doc(s, perms) if isinstance(s, dict) else s for s in base["out"]]}

    def remember(self, op: Op, norm):
        if op.pin_key is not None and op.pin_key.endswith("|id"):
            self.base[op.pin_key.split("|")[1]] = norm


# ---------------------------------------------------------------------------
# probes workload
# ---------------------------------------------------------------------------

# One batch: twelve dim-2 calls (so the median op is a small dim-2 call) and
# ten dim-4 calls on dense conjugates.  "sol" cases use the conjugated
# fixture solution, "valid" cases the conjugated fixture bialgebra.
PROBE_SLOTS = [
    ("ybe", 2, "rand"), ("ybe", 2, "rand"), ("co2", 2, "rand"), ("co2", 2, "rand"),
    ("diag", 2, "rand"), ("diag", 2, "rand"), ("cob", 2, "rand"), ("cob", 2, "rand"),
    ("bialg", 2, "valid"), ("bialg", 2, "mut"), ("lift", 2, "rand"), ("lift", 2, "rand"),
    ("ybe", 4, "rand"), ("ybe", 4, "sol"), ("co2", 4, "rand"), ("co2", 4, "sol"),
    ("diag", 4, "rand"), ("diag", 4, "sol"), ("cob", 4, "rand"), ("cob", 4, "sol"),
    ("bialg", 4, "valid"), ("bialg", 4, "mut"),
]
PROBE_TYPES = sorted(set(PROBE_SLOTS))


class _ProbeBase:
    def __init__(self):
        self.alg = {2: load_fixture("dim2_pre_novikov.json"), 4: load_fixture("dim4_semidirect.json")}
        self.bialg = {2: load_fixture("dim2_bialgebra.json"), 4: load_fixture("dim4_bialgebra.json")}
        self.sol4 = load_fixture("dim4_ybe_solution.json")
        _, self.rep2 = load_fixture("dim2_pre_rep.json")


def _report_op(report):
    return report, pio.render_report(report, "text"), pio.render_report(report, "machine")


def _report_norm(out):
    report, text, machine = out
    return {"text": segments(text), "machine": strip_timing(json.loads(machine))}


def make_probe(base: _ProbeBase, kind: str, n: int, variant: str, k: int) -> Op:
    """Pool case k of one probe slot type; the same arguments give the same case."""
    rng = random.Random(f"probes:{kind}:{n}:{variant}:{k}")
    P, Q = random_conjugator(rng, n)
    key = f"{kind}:{n}:{variant}:{k}"
    pin_key = f"probes|{key}"
    if kind in ("ybe", "co2", "diag", "cob"):
        alg = conj_algebra(base.alg[n], P, Q)
        r = conj_tensor(base.sol4, Q) if variant == "sol" else random_symmetric(rng, n)
        tables = (alg.lhd.c, alg.rhd.c, r)
        sol = variant == "sol"
        if kind == "ybe":
            return Op(key, kind, lambda: pn.ybe_residual(alg, r), nested_str,
                      check=lambda out, norm: "transformed solution has a nonzero residual"
                      if sol and not all_zero(out) else None,
                      verdict_fail=lambda out: not all_zero(out), tables=tables, pin_key=pin_key)
        if kind == "co2":
            def co2_check(out, norm):
                if len(set(out)) != 1:
                    return f"co2 routes disagree: {out}"
                if sol and not out[0]:
                    return "transformed solution failed co2_equivalence"
                return None

            return Op(key, kind, lambda: pn.co2_equivalence(alg, r), list, check=co2_check,
                      verdict_fail=lambda out: not out[0], tables=tables, pin_key=pin_key)
        if kind == "diag":
            def diag_norm(d):
                return {"c": nested_str(d.condition_residuals), "r": nested_str(d.r_tensors),
                        "e": nested_str(d.equation_residuals)}

            def diag_zero(d):
                return all_zero([list(d.condition_residuals.values()), list(d.r_tensors.values()),
                                 list(d.equation_residuals.values())])

            return Op(key, kind, lambda: pn.coboundary_diagnostics(alg, r), diag_norm,
                      check=lambda out, norm: "transformed solution has nonzero diagnostics"
                      if sol and not diag_zero(out) else None,
                      verdict_fail=lambda out: not diag_zero(out), tables=tables, pin_key=pin_key)

        def cob():
            co = pn.coboundary_maps(alg, r)
            return _report_op(pn.check_bialgebra(alg, co))

        return Op(key, kind, cob, _report_norm,
                  check=lambda out, norm: "coboundary of a transformed solution is not a bialgebra"
                  if sol and not out[0].passed else None,
                  verdict_fail=lambda out: not out[0].passed, tables=tables, pin_key=pin_key)
    if kind == "bialg":
        b = base.bialg[n]
        alg = conj_algebra(b.algebra, P, Q)
        co = conj_coalgebra(b.coalgebra, P, Q)
        if variant == "mut":
            alg, co = _mutate(rng, alg, co)
        tables = (alg.lhd.c, alg.rhd.c, co.alpha, co.beta)
        valid = variant == "valid"
        return Op(key, kind, lambda: _report_op(pn.check_bialgebra(alg, co)), _report_norm,
                  check=lambda out, norm: "conjugated bialgebra failed the check"
                  if valid and not out[0].passed else None,
                  verdict_fail=lambda out: not out[0].passed, tables=tables, pin_key=pin_key)
    if kind == "lift":
        alg = conj_algebra(base.rep2.algebra, P, Q)
        Rm, Rq = random_conjugator(rng, base.rep2.module_dim)
        rep = conj_rep(base.rep2, alg, P, Rm, Rq)
        T = tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rep.module_dim))
                  for _ in range(n))

        def lift():
            semi, r = pn.lift_o_operator(alg, rep, T)
            return semi, r, pn.core.t3_is_zero(pn.ybe_residual(semi, r))

        def lift_norm(out):
            semi, r, zero = out
            return {"lhd": nested_str(semi.lhd.c), "rhd": nested_str(semi.rhd.c),
                    "r": nested_str(r), "zero": zero}

        return Op(key, kind, lift, lift_norm, verdict_fail=lambda out: not out[2],
                  tables=(alg.lhd.c, alg.rhd.c, rep.l_rhd, rep.r_rhd, rep.l_lhd, rep.r_lhd, T),
                  pin_key=pin_key)
    raise ValueError(kind)


def _mutate(rng: random.Random, alg, co):
    """Add a nonzero integer to one entry of one of the four tables."""
    n = alg.dim
    which = rng.randrange(4)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    delta = Fraction(rng.choice((-2, -1, 1, 2)))
    tables = [alg.lhd.c, alg.rhd.c, co.alpha, co.beta]
    t = [[list(row) for row in plane] for plane in tables[which]]
    t[i][j][k] += delta
    tables[which] = tuple(tuple(tuple(row) for row in plane) for plane in t)
    return (
        pn.PreNovikovAlgebra(pn.StructureConstants(n, tables[0]), pn.StructureConstants(n, tables[1])),
        pn.PreNovikovCoalgebra(n, tables[2], tables[3]),
    )


class ProbesWorkload:
    speed_kernel = "mixed"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"probes:{seed}")
        self.base = _ProbeBase()
        self.order = {t: rng.sample(range(POOL_SIZE["probes"]), POOL_SIZE["probes"]) for t in PROBE_TYPES}
        self.used = {t: 0 for t in PROBE_TYPES}

    def capacity(self) -> int:
        per = {t: PROBE_SLOTS.count(t) for t in PROBE_TYPES}
        return min(POOL_SIZE["probes"] // c for c in per.values())

    def next_batch(self) -> list[Op]:
        ops = []
        for t in PROBE_SLOTS:
            k = self.order[t][self.used[t]]
            self.used[t] += 1
            ops.append(make_probe(self.base, *t, k))
        return ops


# ---------------------------------------------------------------------------
# search workload
# ---------------------------------------------------------------------------

def search_case_bundle(k: int | None) -> dict:
    """Case None is the shipped semidirect fixture, case k a dense conjugate."""
    doc = json.loads((FIXTURES / "dim4_semidirect.json").read_text())
    if k is None:
        return doc
    rng = random.Random(f"search:{k}")
    P, Q = random_conjugator(rng, 4)
    alg = conj_algebra(pio.bundle_to_objects(pio.parse_bundle(json.dumps(doc))), P, Q)
    return json.loads(pio.serialize_bundle(pio.pre_novikov_bundle(alg, basis=doc.get("basis"))))


def _search_check(res) -> str | None:
    rc, out, err = res
    if rc != 0:
        return f"search exited {rc}: {err.strip()}"
    doc = json.loads(out)
    sols = doc["solutions"]
    if doc["count"] != len(sols):
        return "search count does not match its solution list"
    allowed = {Fraction(v) for v in SEARCH_VALUES.split(",")}
    for s in sols:
        m = [[Fraction(x) for x in row] for row in s["entries"]]
        if any(m[i][j] != m[j][i] or m[i][j] not in allowed for i in range(4) for j in range(4)):
            return "search returned a non-symmetric tensor or a value outside the set"
    if not any(all(x == 0 for row in s["entries"] for x in map(Fraction, row)) for s in sols):
        return "search missed the zero solution"
    return None


class SearchWorkload:
    speed_kernel = "int"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"search:{seed}")
        self.workdir = workdir
        self.order = rng.sample(range(POOL_SIZE["search"]), POOL_SIZE["search"])
        self.used = 0

    def capacity(self) -> int:
        return POOL_SIZE["search"]

    def next_batch(self) -> list[Op]:
        k = self.order[self.used]
        self.used += 1
        return [self.op(None), self.op(k)]

    def op(self, case: int | None) -> Op:
        doc = search_case_bundle(case)
        if case is None:
            path = str(FIXTURES / "dim4_semidirect.json")
        else:
            self.workdir.mkdir(parents=True, exist_ok=True)
            path = str(self.workdir / f"search_{case}.json")
            Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        argv = ["search", path, f"--values={SEARCH_VALUES}"]
        name = "shipped" if case is None else case
        return Op(
            key=f"search:{name}",
            kind="search",
            run=lambda: run_cli(argv),
            normalize=_cli_normalize,
            check=lambda res, norm: _search_check(res),
            tables=(doc["lhd"], doc["rhd"]),
            pin_key=f"search|{name}",
        )




# ---------------------------------------------------------------------------
# enumerate workload
# ---------------------------------------------------------------------------

def _enum_norm(algs):
    return [[nested_str(a.lhd.c), nested_str(a.rhd.c)] for a in algs]


class EnumerateWorkload:
    speed_kernel = "int"

    def __init__(self, seed: int, workdir: Path):
        pass

    def capacity(self) -> int:
        return 1

    def next_batch(self) -> list[Op]:
        return [Op(
            key="enumerate",
            kind="enumerate",
            run=lambda: pn.enumerate_dim2_pre_novikov(ENUM_VALUES),
            normalize=_enum_norm,
            tables=(ENUM_VALUES,),
            pin_key="enumerate|" + ",".join(map(str, ENUM_VALUES)),
        )]


WORKLOADS = {
    "fixtures": FixturesWorkload,
    "probes": ProbesWorkload,
    "search": SearchWorkload,
    "enumerate": EnumerateWorkload,
}


def output_counts(op: Op, out) -> dict:
    """Counts an op's output carries; for one seed they must repeat exactly."""
    if op.kind == "search":
        rc, text, _ = out
        # one candidate per assignment of the 10 upper-triangle entries of a 4x4 r
        return {"candidates": len(SEARCH_VALUES.split(",")) ** 10,
                "solutions": json.loads(text)["count"] if rc == 0 else 0}
    if op.kind == "enumerate":
        return {"pairs": len(ENUM_VALUES) ** 16, "survivors": len(out)}
    if isinstance(out, tuple) and out and isinstance(out[0], pn.Report):
        return {"violations": len(out[0].all_violations())}
    if op.normalize is _cli_normalize:
        return {"violations": cli_violations(out)}
    return {}
