"""In-memory spans and counts recorded around calls into demoplan.

Spans are opened by the benchmark around each public call it makes, so a
layer's time is measured from outside the program. A disabled tracer
hands out one shared no-op span and records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), None, parent])
        tracer._open.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._open.pop()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Records (name, start, end, parent) spans and named counts.

    ``enabled`` may be switched between workload passes; spans and counts
    recorded while it is off are simply not taken.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, n: float) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self time in seconds and number of calls.

        Self time is a span's duration minus the durations of its direct
        children, which the benchmark never lets overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start - child_time[i]
            entry[1] += 1
        return {name: (total, calls) for name, (total, calls) in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
