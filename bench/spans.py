"""In-memory spans around the benchmark's calls into ``mar``.

A span records its name, start, end, parent span and item id. Spans are kept
in memory and written out once the run ends. A disabled tracer records
nothing, so untraced runs time the program alone.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Stats(defaultdict):
    """Counts recorded at the same boundaries as the spans, plus each
    equilibrium solve's iteration count."""

    def __init__(self):
        super().__init__(float)
        self.iterations: list[int] = []


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.item = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, item = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, item)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer (the span-name prefix before the first
        dot): each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
