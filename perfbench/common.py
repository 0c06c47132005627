"""Helpers shared by the workload modules (run inside the child interpreter)."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from spans import Recorder

#: A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    recorder: Recorder
    rng: random.Random
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Peak RSS (kB) reported by short-lived helper processes themselves.
    rss_kb: List[float] = field(default_factory=list)
    stamp: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed correctness check (never raises)."""
        if not ok:
            self.problems.append(message)
        return ok

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); needs TAIL_SAMPLES beyond it."""
    ordered = sorted(values)
    beyond = len(ordered) - math.ceil(q / 100.0 * len(ordered))
    if q < 100 and beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only {beyond} beyond it"
        )
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def min_samples_for(q: float) -> int:
    """Smallest sample count whose *q*-th percentile has TAIL_SAMPLES beyond."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0)) + 1


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def vmhwm_kb() -> float:
    """This process's peak resident set (VmHWM), in kB (0 when unreadable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def trace_overhead(ctx: Context, name: str, op: Callable[[Any], Any],
                   keys: Sequence[Any], seconds: float) -> float:
    """The recorder's cost on *op*: traced over untraced median latency,
    minus 1.  Each call is traced or not by a coin flip, so drift and any
    periodic pattern in the program hit both sides alike."""
    rec = ctx.recorder
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    started = time.perf_counter()
    i = 0
    while (time.perf_counter() - started < seconds
           or min(map(len, latencies.values())) < 50):
        rec.enabled = ctx.rng.random() < 0.5
        t0 = time.perf_counter()
        with rec.span(name):
            op(keys[i % len(keys)])
        latencies[rec.enabled].append(time.perf_counter() - t0)
        i += 1
    rec.enabled = True
    return median(latencies[True]) / median(latencies[False]) - 1.0


def same_values(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Bit-identical metric dicts (NaN equals NaN)."""
    if set(a) != set(b):
        return False
    for key, x in a.items():
        y = b[key]
        if x != y and not (isinstance(x, float) and isinstance(y, float)
                           and math.isnan(x) and math.isnan(y)):
            return False
    return True


def environment_stamp(checkout: Path) -> Dict[str, Any]:
    """Where a result was measured: cores, CPU, library versions, commit."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }
