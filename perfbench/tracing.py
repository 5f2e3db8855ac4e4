"""In-memory spans around the benchmark's calls into the package.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the timed operation it
belongs to (None for calls made while preparing inputs). Spans are kept in a
list and written out once, when the run ends; a layer's self time is its
spans' durations minus the parts covered by their child spans.

The untraced run uses :class:`NullTracer`, whose ``span`` is a shared no-op
context manager, so the same operation code runs in both modes.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def op(self, op_id: int):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Tracing on: every span is appended to ``spans``; counts go to ``counts``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int | None] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    @contextlib.contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        """Wall durations of every closed span with this exact name."""
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        closed = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        covered: dict[int, float] = defaultdict(float)
        for _, (name, start, end, parent, _) in closed:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in closed:
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def write(self, path: str, meta: dict) -> None:
        doc = dict(meta, spans=[s for s in self.spans if s is not None], counts=self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
