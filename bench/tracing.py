"""Spans that the benchmark records around its own calls into htour.

A span holds a name, start and end (perf_counter seconds), the index of its
parent span (-1 for none) and an operation id shared by every span of one
instance.  Spans stay in memory and are written out when the run ends.
The untraced run uses NULL_TRACER, whose spans record nothing.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t.stack[-1] if t.stack else -1, t.op])
        t.stack.append(self.index)
        t.spans[self.index][1] = perf_counter()

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        t = self.tracer
        record = t.spans[self.index]
        record[2] = end
        t.stack.pop()
        t.op_last[self.name] = end - record[1]


class Tracer:
    """In-memory span recorder plus per-pass counters."""

    enabled = True

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.op_labels: list[str] = [""]
        self.op_last: dict[str, float] = {}
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def new_op(self, label: str) -> None:
        self.op += 1
        self.op_labels.append(label)
        self.op_last = {}

    def last(self, name: str) -> float:
        """Duration of the latest closed span `name` of the current op, or 0."""
        return self.op_last.get(name, 0.0)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def take_counts(self) -> dict[str, float]:
        counts, self.counts = dict(self.counts), defaultdict(float)
        return counts

    def durations(self, first: int = 0) -> dict[str, float]:
        """Summed duration per span name over spans[first:]."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op in self.spans[first:]:
            out[name] += end - start
        return dict(out)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]: each span's duration
        minus the part of it that its child spans cover."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op in self.spans[first:]:
            out[name] += end - start
        for name, start, end, parent, _op in self.spans[first:]:
            if parent >= first:
                out[self.spans[parent][0]] -= end - start
        return dict(out)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


class _NullTracer:
    """Tracer stand-in for the untraced run: records nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def new_op(self, label: str) -> None:
        pass

    def last(self, name: str) -> float:
        return 0.0

    def add(self, name: str, value: float) -> None:
        pass


NULL_TRACER = _NullTracer()
