"""In-memory spans and counters recorded around calls into each layer.

A span has a name, a start, an end and the span that was open when it
began. Spans are kept in a list and written out once, when the run ends.
A layer's self time is the summed duration of its spans minus the part
their child spans cover. With tracing off, `span` hands back one shared
no-op context, so the untraced run pays an attribute lookup per call.
"""

import json
import time
from collections import defaultdict


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent, tracer.phase])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans (when enabled) and counters (always) for one benchmark run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index, phase]
        self.counts = defaultdict(lambda: defaultdict(float))  # phase -> name -> value
        self.phase = "setup"
        self._stack = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.phase][name] += value

    def self_times(self, phase: str) -> dict:
        """Self seconds per span name, over the spans of one phase."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph == phase:
                out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "phase"],
                    "spans": self.spans,
                    "counts": {ph: dict(c) for ph, c in self.counts.items()},
                },
                f,
            )
