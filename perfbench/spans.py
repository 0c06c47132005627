"""The benchmark's own span recorder.

Spans are recorded around calls into ``repro`` from the benchmark's files,
never inside the program, and this module imports nothing from ``repro``:
a change to ``repro.obs`` cannot change how the benchmark measures.

A span has a name, a start, an end and the span that was open when it
began.  Spans stay in memory; the workload folds them into per-layer
totals when it finishes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"], attrs: Dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans when enabled; a no-op context otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()  # per-thread stack of open spans

    def span(self, name: str, **attrs):
        if not self.enabled:
            return nullcontext()
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: Dict):
        stack = self._local.__dict__.setdefault("open", [])
        record = Span(name, time.perf_counter(), stack[-1] if stack else None, attrs)
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, **match) -> float:
        """Summed seconds of every span called *name* whose attributes
        include *match*."""
        return sum(
            s.seconds for s in self.named(name)
            if all(s.attrs.get(k) == v for k, v in match.items())
        )

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0
