"""In-process metrics registry: counters, gauges, histogram timers.

Instrumented code increments named instruments on the ambient registry
(:func:`get_registry`); harnesses snapshot the registry before and after a
run and report the delta, exactly like :class:`repro.core.cache.CacheStats`
does for cache counters.  Worker processes accumulate into their own
registry and ship a snapshot back for :meth:`MetricsRegistry.merge`, so
parallel runs reconcile with serial ones instrument-for-instrument.

Naming convention is dotted lowercase (``battery.units.completed``,
``cache.hit``, ``generator.steps``); the Prometheus exporter
(:func:`repro.obs.exporters.render_prometheus`) rewrites dots to
underscores.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "diff_snapshots",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """Last-written value (worker counts, queue depths, sizes)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value


class Histogram:
    """Streaming summary of observed values: count/sum/min/max.

    Enough to report totals, means, and extremes without keeping samples;
    :meth:`time` makes any code block a duration observation.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation in."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Average observation (NaN before any observation)."""
        return self.total / self.count if self.count else float("nan")

    def time(self) -> "_HistogramTimer":
        """Context manager observing the block's wall seconds."""
        return _HistogramTimer(self)

    def as_dict(self) -> Dict[str, float]:
        """Summary fields as a plain dict."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class _HistogramTimer:
    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Named instruments, created on first touch, merged across processes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created on first use)."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name* (created on first use)."""
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name* (created on first use)."""
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram())

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Current state as plain nested dicts (picklable, diffable)."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: h.as_dict() for k, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a worker's snapshot in: counters add, gauges take the
        incoming value, histograms combine count/sum/min/max."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            count = summary.get("count", 0)
            if not count:
                continue
            hist.count += count
            hist.total += summary.get("sum", 0.0)
            low, high = summary.get("min", 0.0), summary.get("max", 0.0)
            hist.min = low if hist.min is None else min(hist.min, low)
            hist.max = high if hist.max is None else max(hist.max, high)

    def clear(self) -> None:
        """Drop every instrument (tests and worker reuse)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


def diff_snapshots(
    after: Dict[str, Dict[str, Any]], before: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """What happened between two snapshots of the *same* registry.

    Counters subtract; gauges report the *after* value; histograms
    subtract count/sum (min/max are not invertible and keep the after
    values, except that a histogram with no observations in between
    reports ``0.0`` for both, like an empty histogram).  Instruments
    absent from *before* are treated as zero.
    """
    before_counters = before.get("counters", {})
    counters = {
        name: value - before_counters.get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    histograms = {}
    before_hists = before.get("histograms", {})
    for name, summary in after.get("histograms", {}).items():
        prior = before_hists.get(name, {})
        count = summary["count"] - prior.get("count", 0)
        histograms[name] = {
            "count": count,
            "sum": summary["sum"] - prior.get("sum", 0.0),
            "min": summary["min"] if count else 0.0,
            "max": summary["max"] if count else 0.0,
        }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


_AMBIENT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide ambient registry."""
    return _AMBIENT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as ambient; returns the previous one."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = registry
    return previous
