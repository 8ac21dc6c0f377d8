"""Run one workload phase in a fresh interpreter and print its raw figures.

Usage: python3 bench/worker.py '<json spec>'

The spec names the workload, seed and work directory, and either a time
budget (``seconds``) or a fixed number of batches (``batches``); with
``trace`` set, spans are recorded around every op.  Batches run back to back
(closed loop, one client, no think time).  Outputs are checked after each
batch, outside the timed region.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import prenovikov  # noqa: E402

if not Path(prenovikov.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
    raise SystemExit(f"imported prenovikov from {prenovikov.__file__}, not from this checkout")

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_phase(spec: dict) -> dict:
    pins = workloads.load_pins()
    workdir = Path(spec["workdir"])
    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], workdir)
    tracer = Tracer() if spec.get("trace") else None
    if tracer:
        tracer.install()

    spans, failures = [], []  # spans: per batch, (start, end) per op
    attempted = fails_verdict = 0
    counts = {"violations": 0, "candidates": 0, "solutions": 0, "pairs": 0, "survivors": 0}
    n_scalars = n_nonzero = 0
    max_den = 1
    deadline = time.perf_counter() + spec["seconds"] if spec.get("seconds") else None
    limit = min(spec.get("batches") or wl.capacity(), wl.capacity())
    probe = SpeedProbe(wl.speed_kernel)
    probe.start()
    while len(spans) < limit and (deadline is None or not spans or time.perf_counter() < deadline):
        ops = wl.next_batch()
        outs, times = [], []
        if tracer:
            tracer.active = True
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer.span(f"op:{op.kind}"):
                        out = op.run()
                else:
                    out = op.run()
                err = None
            except Exception:  # an unexpected exception is a failed op
                out, err = None, traceback.format_exc(limit=3)
            times.append((t0, time.perf_counter()))
            outs.append((out, err))
        if tracer:
            tracer.active = False
        spans.append(times)

        for op, (out, err) in zip(ops, outs):
            attempted += 1
            for t in op.tables:
                for x in workloads.scalars(t):
                    n_scalars += 1
                    n_nonzero += x != 0
                    max_den = max(max_den, x.denominator)
            msg = err
            if msg is None:
                try:
                    msg = _check(wl, op, out, pins)
                    fails_verdict += bool(op.verdict_fail(out))
                    for name, n in workloads.output_counts(op, out).items():
                        counts[name] += n
                except Exception:
                    msg = traceback.format_exc(limit=3)
            if msg:
                failures.append(f"{op.key}: {msg}")

    probe.stop()
    op_s = [[probe.normalize(t0, t1) for t0, t1 in times] for times in spans]
    result = {
        "batches": len(spans),
        "batch_s": [sum(b) for b in op_s],
        "op_ms": [t * 1e3 for b in op_s for t in b],
        "raw_batch_s": [times[-1][1] - times[0][0] for times in spans],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": counts,
        "inputs": {
            "nonzero_frac": n_nonzero / n_scalars if n_scalars else 0.0,
            "max_denominator": max_den,
            "fail_frac": fails_verdict / attempted if attempted else 0.0,
        },
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if spec.get("trace_out"):
            tracer.save(Path(spec["trace_out"]))
    return result


def _check(wl, op, out, pins) -> str | None:
    norm = op.normalize(out)
    msg = op.check(out, norm)
    if msg:
        return msg
    if op.pin_key is not None:
        got = workloads.digest(norm)
        if op.pin_key not in pins:
            return f"no pinned output for {op.pin_key}"
        elif pins[op.pin_key] != got:
            return f"output digest {got} differs from the pinned {pins[op.pin_key]}"
    if op.expected is not None and norm != wl.expected(op):
        return "output differs from the basis-transformed output of the shipped fixtures"
    if hasattr(wl, "remember"):
        wl.remember(op, norm)
    return None


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_phase(spec)))


if __name__ == "__main__":
    main()
