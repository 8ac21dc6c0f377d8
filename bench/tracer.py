"""Span tracer that wraps the public functions of ``prenovikov`` from outside.

Every public function defined in one of the traced modules is replaced, in
every ``prenovikov`` namespace that binds it, by a wrapper that records a
span; ``ReportBuilder.residual`` is wrapped on its class.  A span records its
name, start and end (ns), its parent span, the op it belongs to, and, for a
call that returns a ``Report``, the number of violations the report holds.
Spans stay in flat in-memory arrays until ``save`` writes them out; the
benchmark's own op spans are the roots.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("core", "algebras", "representations", "bialgebra", "matched_double",
          "yang_baxter", "report", "io", "cli")
_FIELDS = 6  # name id, start ns, end ns, parent, op id, violations (-1: no report)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.active = False
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((nid, time.perf_counter_ns(), 0, parent, self.op_id, -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx * _FIELDS + 2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for the benchmark's own op spans."""
        tracer = self

        class _Span:
            def __enter__(self):
                tracer.op_id += 1
                self.idx = tracer._open(tracer.name_id(name))

            def __exit__(self, *exc):
                tracer._close(self.idx)

        return _Span()

    def _wrap(self, fn, name: str, report_type):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if isinstance(result, report_type):
                tracer.spans[idx * _FIELDS + 5] = len(result.all_violations())
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the traced modules in every namespace."""
        import prenovikov
        from prenovikov.report import Report, ReportBuilder

        modules = [prenovikov] + [
            importlib.import_module(f"prenovikov.{m}") for m in LAYERS + ("labels",)
        ]
        wrapped: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.removeprefix("prenovikov.") in LAYERS
                ):
                    if obj not in wrapped:
                        layer = obj.__module__.removeprefix("prenovikov.")
                        wrapped[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", Report)
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((mod, attr, obj))
        original = ReportBuilder.residual
        ReportBuilder.residual = self._wrap(original, "report.residual", Report)
        self._undo.append((ReportBuilder, "residual", original))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, spans=self.table(), names=np.array(json.dumps(self.names)))

    def summary(self) -> dict:
        """Per-name call counts, self and total seconds, and report totals."""
        t = self.table()
        if not len(t):
            return {"calls": {}, "self_s": {}, "total_s": {}, "violations": 0, "op_s": 0.0}
        name, start, end, parent = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(t), dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_ns, minlength=k) / 1e9
        total_s = np.bincount(name, weights=dur, minlength=k) / 1e9
        # violations: reports with no report-returning ancestor
        viol = t[:, 5]
        outer_report = np.zeros(len(t), dtype=bool)
        inside_report = np.zeros(len(t), dtype=bool)  # some ancestor returned a report
        for i in range(len(t)):
            p = parent[i]
            if p >= 0:
                inside_report[i] = inside_report[p] or viol[p] >= 0
            outer_report[i] = viol[i] >= 0 and not inside_report[i]
        roots = ~has_parent
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(total_s[i]) for i, n in enumerate(self.names)},
            "violations": int(viol[outer_report].sum()),
            "op_s": float(dur[roots].sum()) / 1e9,
            "spans": int(len(t)),
        }
