"""Record the digests of every pinned benchmark output into bench/pins.json.

Usage (from the repository root): python3 bench/pin.py

The pins are the outputs of the commit that defined the benchmark.  Re-pin
only in a change whose purpose is to alter those outputs, and say so: a
change that claims a speed-up must leave this file alone.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as w  # noqa: E402


def _pin(pins: dict, op: w.Op) -> None:
    out = op.run()
    norm = op.normalize(out)
    msg = op.check(out, norm)
    if msg:
        raise SystemExit(f"{op.key}: {msg}")
    pins[op.pin_key] = w.digest(norm)


def main() -> None:
    pins: dict = {}
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        fx = w.FixturesWorkload(0, Path(tmp))
        for op in fx.batch(0, w.IDENTITY2, w.IDENTITY4):
            _pin(pins, op)
        for k, g2 in enumerate(w.all_signed_perms2(), start=1):
            for op in fx.batch(k, g2, w.IDENTITY4):
                if op.key.split("@")[0] in w.FIXTURE_PINNED_PER_PERM:
                    _pin(pins, op)
        base = w._ProbeBase()
        for t in w.PROBE_TYPES:
            for k in range(w.POOL_SIZE["probes"]):
                _pin(pins, w.make_probe(base, *t, k))
            print("pinned probes", t, file=sys.stderr)
        search = w.SearchWorkload(0, Path(tmp))
        for case in [None, *range(w.POOL_SIZE["search"])]:
            _pin(pins, search.op(case))
        print("pinned search", file=sys.stderr)
        for op in w.EnumerateWorkload(0, Path(tmp)).next_batch():
            _pin(pins, op)
    w.PINS_PATH.write_text(json.dumps(pins, sort_keys=True, indent=0) + "\n")
    print(f"{len(pins)} pins written to {w.PINS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
