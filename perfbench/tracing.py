"""In-memory span recorder for the benchmark's traced run.

Spans are taken in the benchmark's own code, around calls into the public
functions of each ``qad`` module; nothing inside the package is instrumented.
A span has a name, start and end (``time.perf_counter`` seconds), the index of
its parent span (or None) and the id of the operation it belongs to.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op = 0

    def operation(self, name: str):
        """A root span that starts a new operation."""
        self._op += 1
        return self.span(name, op=self._op)

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        if op is None:
            op = self.spans[parent].op if parent is not None else self._op
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def _in_root(self, root: str | None):
        """Span filter: spans of operations whose root span is named ``root``."""
        if root is None:
            return lambda span: True
        ops = {s.op for s in self.spans if s.parent is None and s.name == root}
        return lambda span: span.op in ops

    def self_time_median(self, name: str, root: str | None = None) -> float:
        """Median self time, in seconds, of the spans called ``name``."""
        keep = self._in_root(root)
        values = [t for s, t in zip(self.spans, self.self_times()) if s.name == name and keep(s)]
        if not values:
            raise KeyError(f"no span named {name!r} under {root!r}")
        return statistics.median(values)

    def per_op(self, names, root: str | None = None) -> dict[int, dict[str, float]]:
        """For each operation, the summed self time of each span name in ``names``."""
        keep = self._in_root(root)
        out: dict[int, dict[str, float]] = {}
        for s, t in zip(self.spans, self.self_times()):
            if s.name in names and keep(s):
                per = out.setdefault(s.op, {})
                per[s.name] = per.get(s.name, 0.0) + t
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s, t in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**asdict(s), "self": t}) + "\n")
