"""Every CLI output on the shipped fixtures, pinned: stdout, stderr and exit
code of each command in both formats, compared by digest with
``cli_golden.json``.

The runs are ``check``, ``derive``, ``double`` and ``search`` on every
fixture; ``coboundary``, ``ybe`` and ``diag`` on every ordered fixture pair;
and ``oper``, with and without ``--lift``, on every fixture as its algebra
with each rep fixture and each of ``dim2_shift_t.json`` and
``dim2_o_operator.json`` as its map.  Each runs in process, from the
repository root, on relative paths, so that the messages naming a path read
the same anywhere.  A change that is meant to alter an output rewrites the
file with ``python tests/test_cli_golden.py --write`` and says which runs
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")
FIXTURES = sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.json"))
REPS = ("fixtures/dim2_pre_rep.json", "fixtures/dim2_rep.json")
MAPS = ("fixtures/dim2_o_operator.json", "fixtures/dim2_shift_t.json")


def golden_runs() -> list[list[str]]:
    """The argument lists of every pinned run, in a fixed order."""
    runs = []
    for fmt in ("text", "machine"):
        head = ["--format", fmt]
        runs += [head + [cmd, path] for cmd in ("check", "derive", "double", "search") for path in FIXTURES]
        runs += [head + [cmd, *pair] for cmd in ("coboundary", "ybe", "diag") for pair in product(FIXTURES, repeat=2)]
        runs += [head + ["oper", *triple, *lift]
                 for triple in product(FIXTURES, REPS, MAPS) for lift in ((), ("--lift",))]
    return runs


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.run_command(argv)`` in process: its exit code, stdout and stderr."""
    from prenovikov.cli import run_command

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_command(argv, out)
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:20]


def digests() -> dict[str, str]:
    with contextlib.chdir(ROOT):
        return {" ".join(argv): digest(run(argv)) for argv in golden_runs()}


def test_every_cli_output_matches_its_pin():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert set(got) == set(want)
    changed = [argv for argv in got if got[argv] != want[argv]]
    assert not changed, f"{len(changed)} of {len(got)} runs changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --write")
    sys.path.insert(0, str(ROOT / "src"))
    table = digests()
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
