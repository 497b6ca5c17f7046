"""In-memory call tracing for the benchmark's traced run.

A :class:`Tracer` wraps public library functions in place, under every
name a ``fullpose`` module bound them to (``geom.bev_iou`` is also
``evaluation.bev_iou`` and ``synth.bev_iou``), and restores them on
:meth:`Tracer.uninstall`.  Each wrapped call pushes a frame on one call
stack, so self time (duration minus the time of wrapped callees) is exact
for every function, whether it is recorded as a span or only counted.

Span functions append ``(id, name, start, end, parent, run_id)`` to an
in-memory list, written out once by :meth:`Tracer.write_spans`.  Per-pair
scalar functions (IoU, center distance, codec decodes, point membership)
run tens of thousands of times per pipeline, so they are counted and
timed but not recorded one span per call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.run_id = ""
        self.spans: list[tuple] = []
        self.stats: dict[str, CallStats] = {}
        self.counts: Counter = Counter()
        self.under_root: Counter = Counter()  # root span name -> callee self time
        self._stack: list[list] = []  # [name, start, child_s, span_id, span_parent]
        self._active: Counter = Counter()
        self._next_id = 1
        self._patches: list[tuple] = []

    def reset(self, run_id: str) -> None:
        """Start a new run: clear stats and counts; spans accumulate."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.run_id = run_id
        self.stats = {}
        self.counts = Counter()
        self.under_root = Counter()

    def active(self, name: str) -> bool:
        """True while a call of ``name`` is on the stack."""
        return self._active[name] > 0

    def _push(self, name: str, record: bool) -> list:
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[3] if top[3] is not None else top[4]
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id, parent]
        self._stack.append(frame)
        self._active[name] += 1
        frame[1] = time.perf_counter()
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id, parent = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"unbalanced trace stack at {name}")
        self._active[name] -= 1
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = CallStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
            self.under_root[self._stack[0][0]] += duration - child_s
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def wrap(self, fn, name: str, record: bool, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, record: bool, on_result=None) -> None:
        """Replace ``module.attr`` and every ``fullpose`` alias of it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, record, on_result)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fullpose" or key.startswith("fullpose."))
        ]
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
                    self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run_id")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

