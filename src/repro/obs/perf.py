"""Perf telemetry: machine-readable benchmark records, baselines, floors.

Every benchmark run leaves a :class:`BenchRecord` — one JSON file,
``BENCH_<id>.json``, written by the shared harness fixtures in
``benchmarks/conftest.py`` — carrying what the prose tables cannot: wall
time, peak RSS, the generator engine the run resolved to, cache hit/miss
deltas, the merged :class:`~repro.obs.metrics.MetricsRegistry` delta, the
bench's own published measurements (speedups, budgets), and an
environment fingerprint (git commit, python/numpy versions, CPU count)
that makes two records comparable or provably incomparable.

Three artifacts close the loop:

* **records** — ``benchmarks/output/BENCH_<id>.json``, one per bench run,
  schema-checked by :func:`validate_record`;
* **floors** — ``benchmarks/perf_floors.json``, the declarative
  acceptance bounds that used to live as ad-hoc ``assert`` lines inside
  individual bench scripts (generator >= 2x median, resilience >= 3x,
  the full-scale RSS budgets, obs overhead < 5%), checked by
  :func:`check_floors` both per-run (the bench fixtures) and fleet-wide
  (``repro perf compare``);
* **baseline** — ``benchmarks/perf_baseline.json``, a committed roll-up
  of one blessed run (:func:`build_baseline`), against which
  :func:`compare_records` applies noise-tolerant thresholds: a wall-time
  or RSS drift must clear both a *ratio* and an *absolute slack* before
  it flags, so loaded CI boxes do not cry wolf.

Import discipline: like the rest of :mod:`repro.obs` this module needs
only the standard library at import time (numpy/git are probed lazily
inside :func:`environment_fingerprint`), so any layer may use it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "FloorCheck",
    "BenchDelta",
    "PerfComparison",
    "environment_fingerprint",
    "git_commit",
    "sanitize_bench_id",
    "validate_record",
    "record_path",
    "load_records",
    "load_floors",
    "floors_for",
    "check_floors",
    "build_baseline",
    "load_baseline",
    "compare_records",
    "comparison_tables",
    "trajectory_table",
]

PathLike = Union[str, Path]

#: Bump when the record layout changes; readers refuse newer schemas.
BENCH_SCHEMA_VERSION = 1

#: Record filename pattern: ``BENCH_<id>.json``.
RECORD_PREFIX = "BENCH_"

#: Default noise tolerances for baseline comparison.  A regression must
#: clear BOTH the ratio and the absolute slack — micro-benches jitter by
#: large ratios over tiny absolute times, end-to-end benches the reverse.
DEFAULT_WALL_TOLERANCE = 2.0
DEFAULT_WALL_SLACK_SECONDS = 1.0
DEFAULT_RSS_TOLERANCE = 1.5
DEFAULT_RSS_SLACK_KB = 20_000.0

_ID_OK = re.compile(r"[^A-Za-z0-9_.-]+")

_REQUIRED_FIELDS = {
    "schema": int,
    "bench_id": str,
    "params": dict,
    "values": dict,
    "wall_seconds": (int, float),
    "peak_rss_kb": (int, float),
    "backend": str,
    "engine": str,
    "cache": dict,
    "metrics": dict,
    "environment": dict,
}

_REQUIRED_ENVIRONMENT = ("git_commit", "python", "cpu_count", "platform")


def sanitize_bench_id(raw: str) -> str:
    """Collapse *raw* to a filesystem/JSON-safe bench id."""
    cleaned = _ID_OK.sub("_", str(raw)).strip("_")
    if not cleaned:
        raise ValueError(f"bench id {raw!r} sanitizes to nothing")
    return cleaned


def git_commit(cwd: Optional[PathLike] = None) -> str:
    """The short git commit hash at *cwd* (or the CWD); ``"unknown"``
    when git or the repository is unavailable — a record from an sdist
    install is still a record."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(cwd) if cwd is not None else None,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def environment_fingerprint(cwd: Optional[PathLike] = None) -> Dict[str, Any]:
    """Where a record was measured: commit, interpreter, numpy, CPUs.

    Two records are *comparable* when their fingerprints agree on
    everything but the commit; the comparator reports fingerprint drift
    instead of silently attributing a hardware change to the code.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        numpy_version = "absent"
    return {
        "git_commit": git_commit(cwd),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "cpu_count": os.cpu_count() or 1,
        "timestamp": round(time.time(), 3),
    }


@dataclass
class BenchRecord:
    """One benchmark run, in comparable form.

    ``values`` holds the bench's own published measurements — the numbers
    the declarative floors bound (median speedups, subprocess RSS,
    overhead shares); ``metrics`` holds the ambient registry delta across
    the run (counters/gauges/histograms, the
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` shape); ``cache``
    the cache-counter delta pulled out of it for at-a-glance hit rates.
    ``backend`` is always ``"csr"`` now that the metrics have one
    implementation; schema v1 keeps the field so older records load.
    """

    bench_id: str
    params: Dict[str, Any] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    peak_rss_kb: float = 0.0
    backend: str = "csr"
    engine: str = "auto"
    cache: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, schema-stamped (what lands in the JSON file)."""
        return {
            "schema": self.schema,
            "bench_id": self.bench_id,
            "params": dict(self.params),
            "values": dict(self.values),
            "wall_seconds": round(float(self.wall_seconds), 6),
            "peak_rss_kb": round(float(self.peak_rss_kb), 1),
            "backend": self.backend,
            "engine": self.engine,
            "cache": dict(self.cache),
            "metrics": self.metrics,
            "environment": dict(self.environment),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        """Rebuild (and validate) a record from its dict form."""
        validate_record(data)
        return cls(
            bench_id=data["bench_id"],
            params=dict(data["params"]),
            values=dict(data["values"]),
            wall_seconds=float(data["wall_seconds"]),
            peak_rss_kb=float(data["peak_rss_kb"]),
            backend=data["backend"],
            engine=data["engine"],
            cache=dict(data["cache"]),
            metrics=dict(data["metrics"]),
            environment=dict(data["environment"]),
            schema=int(data["schema"]),
        )

    def write(self, directory: PathLike) -> Path:
        """Validate and write this record as ``BENCH_<id>.json``."""
        data = self.to_dict()
        validate_record(data)
        path = record_path(directory, self.bench_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True, default=repr) + "\n",
            encoding="utf-8",
        )
        return path


def validate_record(data: Mapping[str, Any]) -> None:
    """Assert *data* is a schema-valid record dict.

    Raises ``ValueError`` naming every problem at once — a half-valid
    record is a bug in the emitting fixture, and the message should show
    the whole shape of the breakage, not the first field of it.
    """
    problems: List[str] = []
    if not isinstance(data, Mapping):
        raise ValueError(f"bench record must be a mapping, got {type(data).__name__}")
    for key, types in _REQUIRED_FIELDS.items():
        if key not in data:
            problems.append(f"missing field {key!r}")
        elif not isinstance(data[key], types):
            problems.append(
                f"field {key!r} should be {types}, got {type(data[key]).__name__}"
            )
    if isinstance(data.get("schema"), int) and data["schema"] > BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema v{data['schema']} is newer than this build's "
            f"v{BENCH_SCHEMA_VERSION}"
        )
    if isinstance(data.get("bench_id"), str):
        if not data["bench_id"] or _ID_OK.search(data["bench_id"]):
            problems.append(f"bench_id {data['bench_id']!r} is not a clean id")
    if isinstance(data.get("values"), dict):
        for key, value in data["values"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"values[{key!r}] is not a number: {value!r}")
    if isinstance(data.get("environment"), dict):
        for key in _REQUIRED_ENVIRONMENT:
            if key not in data["environment"]:
                problems.append(f"environment missing {key!r}")
    if problems:
        raise ValueError(
            "invalid bench record: " + "; ".join(problems)
        )


def record_path(directory: PathLike, bench_id: str) -> Path:
    """Where ``bench_id``'s record lives under *directory*."""
    return Path(directory) / f"{RECORD_PREFIX}{sanitize_bench_id(bench_id)}.json"


def load_records(directory: PathLike) -> Dict[str, BenchRecord]:
    """Every ``BENCH_*.json`` under *directory*, keyed by bench id.

    A malformed record file raises — a corrupt record silently dropped
    from a regression gate is the exact failure mode this subsystem
    exists to prevent.
    """
    directory = Path(directory)
    records: Dict[str, BenchRecord] = {}
    for path in sorted(directory.glob(f"{RECORD_PREFIX}*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            record = BenchRecord.from_dict(data)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        records[record.bench_id] = record
    return records


# ---------------------------------------------------------------- floors


def load_floors(path: PathLike) -> Dict[str, Dict[str, Any]]:
    """Parse and validate the declarative floors file.

    The file maps floor names to ``{"bench": id, "value": key,
    "min"|"max": bound}`` entries (plus a free-form ``note``); every
    entry must bound exactly one direction.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    floors = data.get("floors")
    if not isinstance(floors, dict):
        raise ValueError(f"{path}: expected a top-level 'floors' mapping")
    for name, floor in floors.items():
        if not isinstance(floor, Mapping):
            raise ValueError(f"{path}: floor {name!r} is not a mapping")
        for key in ("bench", "value"):
            if not isinstance(floor.get(key), str):
                raise ValueError(f"{path}: floor {name!r} needs a string {key!r}")
        if ("min" in floor) == ("max" in floor):
            raise ValueError(
                f"{path}: floor {name!r} must set exactly one of min/max"
            )
    return dict(floors)


@dataclass(frozen=True)
class FloorCheck:
    """One floor evaluated against one (possibly absent) record.

    ``status`` is ``"ok"``, ``"violation"``, or ``"skipped"`` (no record
    for the floor's bench — compare runs on subsets); ``observed`` is
    None for skipped floors and for records that never published the
    bounded value (which is itself a violation: a gate whose input went
    missing must not pass silently).
    """

    floor: str
    bench: str
    value: str
    kind: str  # "min" | "max"
    bound: float
    observed: Optional[float]
    status: str

    def describe(self) -> str:
        """One human line: what was required, what was seen."""
        op = ">=" if self.kind == "min" else "<="
        seen = "missing" if self.observed is None else f"{self.observed:g}"
        return (
            f"{self.floor}: {self.bench}.{self.value} {op} {self.bound:g} "
            f"(observed {seen}) -> {self.status}"
        )


def floors_for(
    bench_id: str, floors: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """The subset of *floors* that bound *bench_id*."""
    return {
        name: dict(floor)
        for name, floor in floors.items()
        if floor.get("bench") == bench_id
    }


def check_floors(
    records: Mapping[str, BenchRecord],
    floors: Mapping[str, Mapping[str, Any]],
) -> List[FloorCheck]:
    """Evaluate every floor against the record set."""
    checks: List[FloorCheck] = []
    for name in sorted(floors):
        floor = floors[name]
        kind = "min" if "min" in floor else "max"
        bound = float(floor[kind])
        record = records.get(floor["bench"])
        if record is None:
            status = "skipped"
            observed: Optional[float] = None
        else:
            raw = record.values.get(floor["value"])
            if raw is None:
                observed = None
                status = "violation"
            else:
                observed = float(raw)
                ok = observed >= bound if kind == "min" else observed <= bound
                status = "ok" if ok else "violation"
        checks.append(
            FloorCheck(
                floor=name,
                bench=floor["bench"],
                value=floor["value"],
                kind=kind,
                bound=bound,
                observed=observed,
                status=status,
            )
        )
    return checks


# -------------------------------------------------------------- baseline


def build_baseline(
    records: Mapping[str, BenchRecord], note: str = ""
) -> Dict[str, Any]:
    """Roll a record set into the committed-baseline shape."""
    benches = {
        bench_id: {
            "wall_seconds": round(record.wall_seconds, 6),
            "peak_rss_kb": round(record.peak_rss_kb, 1),
            "values": dict(record.values),
        }
        for bench_id, record in sorted(records.items())
    }
    return {
        "version": 1,
        "note": note,
        "environment": environment_fingerprint(),
        "benches": benches,
    }


def load_baseline(path: PathLike) -> Dict[str, Any]:
    """Parse a baseline file, validating its minimal shape."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, Mapping) or not isinstance(
        data.get("benches"), Mapping
    ):
        raise ValueError(f"{path}: not a perf baseline (no 'benches' mapping)")
    return dict(data)


# ------------------------------------------------------------ comparator


@dataclass(frozen=True)
class BenchDelta:
    """One bench's current run vs the baseline.

    ``status``: ``"ok"`` (inside tolerance), ``"regression"`` /
    ``"improvement"`` (outside it, in either direction, for either wall
    or RSS), or ``"new"`` (no baseline entry).
    """

    bench_id: str
    wall_seconds: float
    base_wall: Optional[float]
    peak_rss_kb: float
    base_rss: Optional[float]
    status: str
    detail: str = ""

    @property
    def wall_ratio(self) -> Optional[float]:
        """current / baseline wall time (None without a baseline entry)."""
        if not self.base_wall:
            return None
        return self.wall_seconds / self.base_wall

    @property
    def rss_ratio(self) -> Optional[float]:
        """current / baseline peak RSS (None without a baseline entry)."""
        if not self.base_rss:
            return None
        return self.peak_rss_kb / self.base_rss


@dataclass
class PerfComparison:
    """What :func:`compare_records` found: per-bench deltas + floor checks."""

    deltas: List[BenchDelta]
    floor_checks: List[FloorCheck]
    environment: Dict[str, Any] = field(default_factory=dict)
    baseline_environment: Dict[str, Any] = field(default_factory=dict)

    @property
    def regressions(self) -> List[BenchDelta]:
        """Benches that drifted past the noise-tolerant thresholds."""
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def violations(self) -> List[FloorCheck]:
        """Acceptance floors the record set failed."""
        return [c for c in self.floor_checks if c.status == "violation"]

    @property
    def skipped_floors(self) -> List[FloorCheck]:
        """Floors whose bench has no record in this set (subset runs)."""
        return [c for c in self.floor_checks if c.status == "skipped"]

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no floor was violated."""
        return not self.regressions and not self.violations


def _classify(
    current: float,
    base: Optional[float],
    ratio_tolerance: float,
    slack: float,
) -> str:
    """ok/regression/improvement for one scalar, noise-tolerantly.

    Either direction must clear both the ratio and the absolute slack;
    anything else is noise and reports ``ok``.
    """
    if base is None:
        return "new"
    if base <= 0:
        return "ok"
    if current > base * ratio_tolerance and current - base > slack:
        return "regression"
    if current < base / ratio_tolerance and base - current > slack:
        return "improvement"
    return "ok"


def compare_records(
    records: Mapping[str, BenchRecord],
    baseline: Mapping[str, Any],
    floors: Optional[Mapping[str, Mapping[str, Any]]] = None,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    wall_slack_seconds: float = DEFAULT_WALL_SLACK_SECONDS,
    rss_tolerance: float = DEFAULT_RSS_TOLERANCE,
    rss_slack_kb: float = DEFAULT_RSS_SLACK_KB,
) -> PerfComparison:
    """Current records vs the committed baseline, plus floor checks.

    Wall time and peak RSS are the baseline-compared axes (they measure
    the machine); the bench-published ``values`` are gated by the
    declarative *floors* only (they measure the claim), and surface in
    the report tables for trajectory reading.
    """
    benches = baseline.get("benches", {})
    deltas: List[BenchDelta] = []
    for bench_id in sorted(records):
        record = records[bench_id]
        base = benches.get(bench_id)
        base_wall = float(base["wall_seconds"]) if base else None
        base_rss = float(base["peak_rss_kb"]) if base else None
        wall_status = _classify(
            record.wall_seconds, base_wall, wall_tolerance, wall_slack_seconds
        )
        rss_status = _classify(
            record.peak_rss_kb, base_rss, rss_tolerance, rss_slack_kb
        )
        if base is None:
            status, detail = "new", "no baseline entry"
        elif "regression" in (wall_status, rss_status):
            status = "regression"
            axes = [
                name
                for name, axis in (("wall", wall_status), ("rss", rss_status))
                if axis == "regression"
            ]
            status_detail = "+".join(axes)
            detail = f"{status_detail} outside tolerance"
        elif "improvement" in (wall_status, rss_status):
            status, detail = "improvement", "faster/leaner than baseline"
        else:
            status, detail = "ok", ""
        deltas.append(
            BenchDelta(
                bench_id=bench_id,
                wall_seconds=record.wall_seconds,
                base_wall=base_wall,
                peak_rss_kb=record.peak_rss_kb,
                base_rss=base_rss,
                status=status,
                detail=detail,
            )
        )
    floor_checks = check_floors(records, floors or {})
    any_record = next(iter(records.values()), None)
    return PerfComparison(
        deltas=deltas,
        floor_checks=floor_checks,
        environment=dict(any_record.environment) if any_record else {},
        baseline_environment=dict(baseline.get("environment", {})),
    )


# ---------------------------------------------------------------- tables

Table = Tuple[str, List[str], List[List[Any]]]


def _ratio_cell(ratio: Optional[float]) -> str:
    return "-" if ratio is None else f"{ratio:.2f}x"


def comparison_tables(comparison: PerfComparison) -> List[Table]:
    """Render a comparison as ``(title, headers, rows)`` table triples
    (the :mod:`repro.obs.analysis` convention; the CLI formats them)."""
    delta_rows = [
        [
            d.bench_id,
            round(d.wall_seconds, 3),
            "-" if d.base_wall is None else round(d.base_wall, 3),
            _ratio_cell(d.wall_ratio),
            round(d.peak_rss_kb / 1024.0, 1),
            "-" if d.base_rss is None else round(d.base_rss / 1024.0, 1),
            _ratio_cell(d.rss_ratio),
            d.status,
        ]
        for d in comparison.deltas
    ]
    tables: List[Table] = [
        (
            "benchmarks vs baseline",
            ["bench", "wall_s", "base_s", "ratio", "rss_mb", "base_mb",
             "ratio", "status"],
            delta_rows,
        )
    ]
    if comparison.floor_checks:
        floor_rows = [
            [
                c.floor,
                f"{c.bench}.{c.value}",
                (">=" if c.kind == "min" else "<=") + f" {c.bound:g}",
                "-" if c.observed is None else round(c.observed, 4),
                c.status,
            ]
            for c in comparison.floor_checks
        ]
        tables.append(
            ("acceptance floors", ["floor", "value", "bound", "observed",
                                   "status"], floor_rows)
        )
    base_env = comparison.baseline_environment
    env = comparison.environment
    drift = [
        [key, base_env.get(key, "?"), env.get(key, "?")]
        for key in ("git_commit", "python", "numpy", "platform", "cpu_count")
        if base_env.get(key) != env.get(key)
    ]
    if drift:
        tables.append(
            ("environment drift vs baseline", ["field", "baseline", "now"],
             drift)
        )
    return tables


def trajectory_table(
    records: Mapping[str, BenchRecord],
    baseline: Optional[Mapping[str, Any]] = None,
) -> Table:
    """Per-bench published values next to their baseline counterparts."""
    benches = (baseline or {}).get("benches", {})
    rows: List[List[Any]] = []
    for bench_id in sorted(records):
        record = records[bench_id]
        base_values = (benches.get(bench_id) or {}).get("values", {})
        if not record.values:
            rows.append([bench_id, "-", "-", "-"])
        for key in sorted(record.values):
            base = base_values.get(key)
            rows.append(
                [
                    f"{bench_id}.{key}",
                    round(float(record.values[key]), 4),
                    "-" if base is None else round(float(base), 4),
                    "-"
                    if base in (None, 0)
                    else f"{float(record.values[key]) / float(base):.2f}x",
                ]
            )
    return (
        "published bench values (current vs baseline)",
        ["value", "current", "baseline", "ratio"],
        rows,
    )
