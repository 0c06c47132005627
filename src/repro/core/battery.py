"""Parallel, content-addressed, fault-tolerant metric-battery runner.

The validation battery — every model × replicate × metric group scored
against a target map — is embarrassingly parallel and completely
deterministic, so this module runs it that way:

* **one cell pipeline** — every consumer of battery cells (the runner,
  the reference-map target, and the serving layer in :mod:`repro.serve`)
  moves a typed :class:`Replicate` through the same three pieces:
  :meth:`Replicate.probe` / :meth:`Replicate.put` read and write its
  content-addressed cells, :func:`build_task` turns it into a worker
  task, and :func:`run_tasks` executes tasks inline or on a
  :class:`WorkerPool` with one set of retry and journal bookkeeping.
  :func:`run_battery` then feeds each outcome through one absorb step
  that turns it into :class:`UnitRecord` rows, cache puts, counters and
  adopted spans;
* **decomposition** — under the default ``regenerate`` transport, one
  ``full`` task per (model, replicate): it generates its topology once
  and computes only the metric *groups* not already cached (see
  :data:`repro.core.metrics.METRIC_GROUPS`).  Under the ``shared``
  transport (see :mod:`repro.core.transport`), generation becomes its
  own journaled/cached ``generate`` task per (model, seed) — published
  once as a zero-copy snapshot that workers attach read-only — and each
  pending metric group becomes an independent ``measure`` task, so
  exact-paths-heavy replicates parallelize group-by-group and
  retries/resumes never pay generation twice;
* **determinism** — each unit's seed is :func:`repro.stats.rng.derive_seed`
  of (model identity, params, n, base seed, replicate index), a pure
  function independent of scheduling, so results are bit-identical at any
  ``jobs`` value and on warm vs. cold cache;
* **caching** — every (model, params, n, seed, group, code-version) cell is
  stored in a :class:`repro.core.cache.ResultCache`; re-running an
  experiment, adding replicates, or re-scoring against a new target skips
  every already-computed cell (cache probes and writes happen only in the
  parent process, so workers never race on files);
* **fault containment** — units are submitted individually, never via
  ``pool.map``: one crashing generator, one metric exception, one unit
  blowing its ``timeout``, even one worker process dying outright, costs
  exactly that unit (after up to ``retries`` re-attempts).  The failed
  replicate becomes a :class:`UnitRecord` with ``status="failed"`` (or
  ``"timeout"``) carrying the traceback, its entry keeps a
  :class:`~repro.core.metrics.PartialSummary` for the gap, every other
  unit's results survive, and — with a cache — re-running the same command
  recomputes only the failed cells.  Served tasks go through the same
  executor, so a served task whose worker raises, hangs or dies is
  retried ``retries`` times too before its request fails;
* **observability** — the run threads through :mod:`repro.obs`: a
  hierarchical span tree (``battery`` → ``unit`` → ``generate`` /
  ``metric.<group>``, exportable as a Chrome trace), ambient metrics
  counters reconciling with the returned telemetry, per-unit peak RSS and
  CPU time sampled in the workers, an optional per-unit ``cProfile`` dump
  (*profile_dir*), and an optional
  :class:`repro.core.journal.RunJournal` recording one run-stamped JSONL
  event per unit start/finish/retry/failure and per cache hit.

:func:`run_battery` produces per-replicate summaries plus per-unit timing
and cache telemetry; :func:`compare_models` layers target scoring on top
(the engine behind experiment T1 and the ``repro battery`` CLI command).
"""

from __future__ import annotations

import functools
import math
import os
import signal
import threading
import time
import traceback
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..generators.base import TopologyGenerator
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry, diff_snapshots, get_registry, set_registry
from ..obs.profiler import profile_unit
from ..obs.sampler import ResourceSampler
from ..obs.tracer import Tracer, get_tracer, set_tracer
from ..stats.rng import derive_seed
from .cache import CacheStats, NullCache, ResultCache, canonical_key
from .compare import ComparisonResult, compare_summaries
from .journal import JournalLike, resolve_journal
from .metrics import (
    ALL_METRIC_GROUPS,
    METRIC_GROUPS,
    METRICS_VERSION,
    PartialSummary,
    TopologySummary,
    compute_metric_groups,
    summarize,
)
from .registry import resolve_generator
from .report import format_table, shorten
from .transport import (
    SharedGraphHandle,
    SnapshotSpool,
    attach_graph,
    publish_to_spool,
    resolve_mp_context,
    resolve_transport,
)

__all__ = [
    "UnitRecord",
    "BatteryEntry",
    "BatteryResult",
    "ModelScore",
    "ComparisonBattery",
    "run_battery",
    "compare_models",
]

CacheLike = Union[None, str, Path, ResultCache, NullCache]

#: Which summarize() parameters each metric group actually depends on;
#: cache keys embed only these, so e.g. changing ``path_samples`` does not
#: invalidate cached clustering cells.
_GROUP_PARAM_KEYS: Dict[str, Tuple[str, ...]] = {
    "paths": ("path_sample_threshold", "path_samples"),
    "tail": ("min_tail",),
}


@dataclass(frozen=True)
class UnitRecord:
    """Telemetry for one battery cell, shared pass, or unit failure.

    ``group`` is a metric group name for computed/cached cells,
    ``"generate"`` for topology construction, ``"giant"`` for the shared
    giant-component extraction, or ``"unit"`` for a whole-unit failure
    record.  ``status`` is ``"ok"`` for successful records and
    ``"failed"``/``"timeout"`` for failures, whose ``error`` carries the
    worker traceback (or timeout diagnostic).  The per-unit resource
    sample — worker peak RSS and the unit's CPU seconds — rides on the
    ``"generate"`` record (one per computed unit).
    """

    model: str
    replicate: int
    group: str
    seed: int
    cached: bool
    seconds: float
    status: str = "ok"
    error: Optional[str] = None
    max_rss_kb: Optional[float] = None
    cpu_seconds: Optional[float] = None


@dataclass(frozen=True)
class BatteryEntry:
    """One model's battery output: a summary per replicate.

    Replicates that completed the full group set hold a
    :class:`TopologySummary`; deliberately-partial batteries and failed
    units hold a :class:`~repro.core.metrics.PartialSummary` (never
    ``None``) whose ``missing``/``error`` fields say exactly what is
    absent and why.
    """

    model: str
    params: Dict[str, Any]
    seeds: Tuple[int, ...]
    summaries: Tuple[Union[TopologySummary, PartialSummary], ...]


@dataclass
class BatteryResult:
    """Everything one :func:`run_battery` call produced."""

    entries: List[BatteryEntry]
    records: List[UnitRecord]
    stats: CacheStats
    jobs: int
    elapsed: float
    #: This run's ambient-metrics delta (counters/gauges/histograms, see
    #: :func:`repro.obs.metrics.diff_snapshots`); counters here reconcile
    #: with the record lists above at any ``jobs`` value.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The journal run id this battery's events were stamped with.
    run_id: Optional[str] = None
    #: The resolved graph transport this run used (``"regenerate"`` or
    #: ``"shared"``); a scheduling detail — results and cache cells are
    #: bit-identical either way.
    transport: str = "regenerate"

    def entry(self, model: str) -> BatteryEntry:
        """Look up one model's entry by label."""
        for item in self.entries:
            if item.model == model:
                return item
        raise KeyError(f"model {model!r} not in battery result")

    def summaries(self, model: str) -> Tuple[Union[TopologySummary, PartialSummary], ...]:
        """One model's per-replicate summaries."""
        return self.entry(model).summaries

    @property
    def failures(self) -> List[UnitRecord]:
        """Records of units that failed or timed out (empty when clean)."""
        return [rec for rec in self.records if rec.status != "ok"]

    @property
    def compute_seconds(self) -> float:
        """Total seconds spent computing (excludes cache hits; sums over
        workers, so it can exceed ``elapsed`` when ``jobs > 1``)."""
        return sum(
            r.seconds for r in self.records if not r.cached and r.status == "ok"
        )

    def timing_table(self) -> Tuple[List[str], List[List[Any]]]:
        """Aggregate telemetry rows: per (model, group) computed/cached
        cell counts and compute seconds (failures are excluded here and
        reported by :meth:`failure_table`)."""
        agg: Dict[Tuple[str, str], List[float]] = {}
        for rec in self.records:
            if rec.status != "ok":
                continue
            cell = agg.setdefault((rec.model, rec.group), [0, 0, 0.0])
            if rec.cached:
                cell[1] += 1
            else:
                cell[0] += 1
                cell[2] += rec.seconds
        headers = ["model", "group", "computed", "cached", "seconds"]
        rows = [
            [model, group, computed, cached, seconds]
            for (model, group), (computed, cached, seconds) in sorted(agg.items())
        ]
        return headers, rows

    def failure_table(self) -> Tuple[List[str], List[List[Any]]]:
        """One row per failed unit: replicate identity, status, and the
        exception message (last traceback line, ellipsized)."""
        headers = ["model", "replicate", "seed", "status", "error"]
        rows = []
        for rec in self.failures:
            message = ""
            if rec.error:
                lines = [ln for ln in rec.error.strip().splitlines() if ln.strip()]
                message = shorten(lines[-1]) if lines else ""
            rows.append([rec.model, rec.replicate, rec.seed, rec.status, message])
        return headers, rows

    def resource_table(self) -> Tuple[List[str], List[List[Any]]]:
        """Per-model resource aggregate from the workers' rusage samples:
        computed units, peak RSS (KB, max over units), CPU seconds (sum).
        Empty when every unit was cached (nothing ran, nothing sampled)."""
        agg: Dict[str, List[float]] = {}
        for rec in self.records:
            if rec.group != "generate" or rec.max_rss_kb is None:
                continue
            cell = agg.setdefault(rec.model, [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] = max(cell[1], rec.max_rss_kb)
            cell[2] += rec.cpu_seconds or 0.0
        headers = ["model", "units", "peak_rss_kb", "cpu_seconds"]
        rows = [
            [model, int(units), peak, round(cpu, 4)]
            for model, (units, peak, cpu) in sorted(agg.items())
        ]
        return headers, rows

    def render_timing(self) -> str:
        """Telemetry as an aligned text table (for reports and logs),
        followed by a failed-units table when any unit failed."""
        headers, rows = self.timing_table()
        table = format_table(headers, rows, title="battery telemetry")
        footer = (
            f"jobs={self.jobs} elapsed={self.elapsed:.3f}s "
            f"compute={self.compute_seconds:.3f}s cache[{self.stats}]"
        )
        parts = [table, footer]
        if self.failures:
            parts.append("")
            parts.append(
                format_table(*self.failure_table(), title="failed units")
            )
        return "\n".join(parts)


@dataclass(frozen=True)
class ModelScore:
    """One model's divergence from the target, over surviving replicates.

    Failed replicates are excluded (with a warning at scoring time), so
    ``scores``/``summaries`` may be shorter than the requested replicate
    count; a model whose every replicate failed has no scores and a NaN
    mean.
    """

    model: str
    scores: Tuple[float, ...]
    comparisons: Tuple[ComparisonResult, ...]
    summaries: Tuple[TopologySummary, ...]

    @property
    def mean(self) -> float:
        """Seed-averaged divergence score (the ranking statistic); NaN
        when no replicate survived."""
        if not self.scores:
            return float("nan")
        return sum(self.scores) / len(self.scores)

    @property
    def spread(self) -> float:
        """Max − min score across replicates (0 for a single replicate)."""
        return (max(self.scores) - min(self.scores)) if len(self.scores) > 1 else 0.0

    @property
    def last_summary(self) -> TopologySummary:
        """The final surviving replicate's summary (what the T1 table
        prints); raises ``IndexError`` when no replicate survived."""
        return self.summaries[-1]


@dataclass
class ComparisonBattery:
    """Output of :func:`compare_models`: scored battery vs one target."""

    target: TopologySummary
    scores: List[ModelScore]
    battery: BatteryResult

    def score(self, model: str) -> ModelScore:
        """Look up one model's score block by label."""
        for item in self.scores:
            if item.model == model:
                return item
        raise KeyError(f"model {model!r} not in comparison")

    def ranking(self) -> List[Tuple[str, float]]:
        """(model, mean score) pairs, best (lowest) first; models with no
        surviving replicate rank last."""
        scored = [(s.model, s.mean) for s in self.scores]
        return sorted(
            scored,
            key=lambda pair: (math.isnan(pair[1]), pair[1]),
        )


def _resolve_cache(cache: CacheLike) -> Union[ResultCache, NullCache]:
    if cache is None:
        return NullCache()
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    return cache


def _normalize_models(models) -> List[Tuple[str, TopologyGenerator]]:
    """Coerce the accepted model specs to an ordered (label, generator) list.

    Accepts a mapping label → name-or-generator, a sequence of names or
    generators, or a single name/generator.  Labels are mapping keys where
    given, else the generator's registry name.
    """
    if isinstance(models, (str, TopologyGenerator)):
        models = [models]
    out: List[Tuple[str, TopologyGenerator]] = []
    if isinstance(models, Mapping):
        items = [(label, resolve_generator(spec)) for label, spec in models.items()]
    else:
        items = []
        for spec in models:
            generator = resolve_generator(spec)
            items.append((generator.name or type(generator).__name__, generator))
    seen = set()
    for label, generator in items:
        if label in seen:
            raise ValueError(f"duplicate model label {label!r}")
        seen.add(label)
        out.append((label, generator))
    if not out:
        raise ValueError("no models given")
    return out


def _identity(generator: TopologyGenerator) -> Tuple[str, Dict[str, Any]]:
    """Cache/seed identity of a configured generator: registry name + params.

    Distinct roster labels with identical configuration (and vice versa)
    hash by *what they compute*, not what they're called, so renaming a
    table row never invalidates cached cells.
    """
    name = generator.name or type(generator).__name__
    return name, generator.params()


def cell_payload(
    identity: str,
    params: Mapping[str, Any],
    n: int,
    seed: int,
    group: str,
    sum_params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Content-addressed identity of one battery cache cell.

    This is the canonical-key contract shared by every consumer of the
    :class:`~repro.core.cache.ResultCache` — the battery runner, and the
    serving layer's request coalescer (:mod:`repro.serve`), which keys
    in-flight requests on the same payloads so a served repeat is a cache
    hit and a concurrent identical request collapses onto one computation.
    """
    relevant = {key: sum_params[key] for key in _GROUP_PARAM_KEYS.get(group, ())}
    return {
        "kind": "battery-cell",
        "model": identity,
        "params": dict(params),
        "n": n,
        "seed": seed,
        "group": group,
        "group_params": relevant,
        "version": METRICS_VERSION,
    }


def generation_payload(
    identity: str,
    params: Mapping[str, Any],
    n: int,
    seed: int,
) -> Dict[str, Any]:
    """Content-addressed identity of one published topology snapshot.

    Shared between the battery's shared-transport generation wave and the
    serving layer's snapshot probe: the same (model identity, params, n,
    seed) always maps to the same :class:`SnapshotSpool` key, so a served
    request attaches a topology the battery generated (or vice versa)
    instead of regenerating it.
    """
    return {
        "kind": "battery-generation",
        "model": identity,
        "params": dict(params),
        "n": n,
        "seed": seed,
    }


@dataclass
class Replicate:
    """One (model, seed) replicate moving through the cell pipeline.

    The typed record shared by every consumer of battery cells — the
    battery runner, the reference-map target and the serving layer.
    ``cells`` maps each requested metric group to its cache (key,
    payload) and ``gen_key`` is the topology's snapshot-spool key;
    :meth:`probe` fills ``values`` from a cache, :attr:`pending` is what
    is still missing, and :meth:`put` stores freshly computed groups.
    ``handle`` is the published topology once one exists (shared
    transport, served requests) and ``error`` the first failure charged
    to the replicate.
    """

    label: str
    generator: Optional[TopologyGenerator]
    n: int
    seed: int
    sum_params: Mapping[str, Any]
    cells: Dict[str, Tuple[str, Dict[str, Any]]]
    gen_key: str
    replicate: Optional[int] = None
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)
    handle: Optional[SharedGraphHandle] = None
    error: Optional[str] = None

    @classmethod
    def keyed(
        cls,
        label: str,
        identity: str,
        params: Mapping[str, Any],
        n: int,
        seed: int,
        groups: Sequence[str],
        sum_params: Mapping[str, Any],
        generator: Optional[TopologyGenerator] = None,
        replicate: Optional[int] = None,
    ) -> "Replicate":
        """A replicate whose *groups* are keyed on (identity, params, n,
        seed) with the battery's cell and generation payloads."""
        cells = {}
        for group in groups:
            payload = cell_payload(identity, params, n, seed, group, sum_params)
            cells[group] = (canonical_key(payload), payload)
        gen_key = canonical_key(generation_payload(identity, params, n, seed))
        return cls(label, generator, n, seed, sum_params, cells, gen_key, replicate)

    @property
    def pending(self) -> Tuple[str, ...]:
        """Requested groups with no value yet, in request order."""
        return tuple(group for group in self.cells if group not in self.values)

    def probe(self, store: Union[ResultCache, NullCache]) -> List[str]:
        """Fill ``values`` from *store*; returns the groups that hit."""
        hits = []
        for group, (key, payload) in self.cells.items():
            hit = store.get(key, payload)
            if hit is not None:
                self.values[group] = hit
                hits.append(group)
        return hits

    def put(
        self,
        store: Union[ResultCache, NullCache],
        computed: Mapping[str, Dict[str, float]],
    ) -> None:
        """Store freshly *computed* groups in *store* and in ``values``."""
        for group, group_values in computed.items():
            key, payload = self.cells[group]
            store.put(key, group_values, payload)
            self.values[group] = group_values

    def merged(self) -> Dict[str, float]:
        """Every present group's fields in one dict."""
        out: Dict[str, float] = {}
        for group in self.cells:
            out.update(self.values.get(group, {}))
        return out


@contextmanager
def _ambient_obs(tracer: Tracer):
    """Install *tracer* as the ambient one for a block (restored after),
    so instrumentation points anywhere in the call tree emit into it."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@dataclass(frozen=True)
class _UnitOutcome:
    """Result of one work-unit attempt (the worker's return value), and
    the terminal result the executor reports after all attempts."""

    status: str  # "ok" | "failed" | "timeout"
    values: Optional[Dict[str, Dict[str, float]]] = None
    timings: Optional[Dict[str, float]] = None
    gen_seconds: float = 0.0
    seconds: float = 0.0
    worker: Optional[int] = None
    error: Optional[str] = None
    handle: Optional[SharedGraphHandle] = None
    #: The worker's span dicts, metrics snapshot and resource sample.
    obs: Dict[str, Any] = field(default_factory=dict)


def build_task(
    kind: str,
    rep: Replicate,
    groups: Optional[Sequence[str]] = None,
    spool: Optional[SnapshotSpool] = None,
    trace: bool = False,
    profile_dir: Union[None, str, Path] = None,
) -> Dict[str, Any]:
    """The one builder of worker task dicts (see :func:`_battery_task`).

    ``full`` generates *rep*'s topology and measures *groups* (default:
    its pending groups); ``generate`` publishes the topology into *spool*
    under ``rep.gen_key``; ``measure`` attaches ``rep.handle`` and
    measures *groups*.  *trace* / *profile_dir* configure the worker's
    observability.
    """
    groups = tuple(rep.pending if groups is None else groups)
    base = rep.label if rep.replicate is None else f"{rep.label}-rep{rep.replicate}"
    suffix = {"full": "", "generate": "-gen"}.get(kind, "-" + "+".join(groups))
    task: Dict[str, Any] = {
        "kind": kind,
        "seed": rep.seed,
        "obs": {
            "trace": trace, "profile_dir": profile_dir, "model": rep.label,
            "replicate": rep.replicate, "label": base + suffix,
        },
    }
    if kind == "measure":
        task["handle"] = rep.handle
    else:
        task.update(generator=rep.generator, n=rep.n)
    if kind == "generate":
        task["spool_path"] = str(spool.path_for(rep.gen_key))
    else:
        task.update(groups=groups, sum_params=rep.sum_params)
    return task


def _battery_task(task: Dict[str, Any]) -> _UnitOutcome:
    """Worker kernel: one battery work unit, dispatched on ``task["kind"]``.

    * ``"full"`` — generate one topology and compute its missing groups
      (the ``regenerate`` transport's unit);
    * ``"generate"`` — generate one topology and publish it as a shared
      snapshot at ``task["spool_path"]``; the resulting
      :class:`~repro.core.transport.SharedGraphHandle` rides back as the
      outcome's ``handle``;
    * ``"measure"`` — attach ``task["handle"]`` (served from this
      process's transport attach cache after the first touch) and compute
      ``task["groups"]`` on the shared topology.

    Module-level and argument-pure so it pickles under any multiprocessing
    start method.  Installs a fresh ambient tracer and metrics registry
    for the unit's duration (identical behavior inline and in a pooled
    worker — no cross-unit bleed, no double counting) and samples rusage
    around the work.  Returns an ``"ok"`` :class:`_UnitOutcome` whose
    ``seconds`` is the unit's wall time and whose ``obs`` carries the
    unit's span dicts, metrics snapshot, and resource sample; a failure
    raises.
    """
    kind = task["kind"]
    obs_conf = task["obs"]
    seed = task["seed"]
    model = obs_conf["model"]
    tracer = Tracer(enabled=bool(obs_conf["trace"]))
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_registry = set_registry(registry)
    sampler = ResourceSampler().start()
    started = time.perf_counter()
    values: Dict[str, Dict[str, float]] = {}
    timings: Dict[str, float] = {}
    gen_seconds = 0.0
    handle = None
    try:
        with profile_unit(obs_conf["profile_dir"], obs_conf["label"]):
            with tracer.span(
                "unit", model=model, replicate=obs_conf["replicate"],
                seed=seed, kind=kind,
            ):
                if kind in ("full", "generate"):
                    n = task["n"]
                    gen_started = time.perf_counter()
                    with tracer.span("generate", model=model, n=n):
                        graph = task["generator"].generate(n, seed=seed)
                    gen_seconds = time.perf_counter() - gen_started
                else:
                    graph = attach_graph(task["handle"])
                if kind == "generate":
                    handle = publish_to_spool(
                        graph, task["spool_path"], name=model or ""
                    )
                else:
                    values, timings = compute_metric_groups(
                        graph, task["groups"], seed=seed, with_timings=True,
                        **task["sum_params"],
                    )
    finally:
        set_tracer(prev_tracer)
        set_registry(prev_registry)
    seconds = time.perf_counter() - started
    usage = sampler.stop()
    return _UnitOutcome(
        "ok", values=values, timings=timings, gen_seconds=gen_seconds,
        seconds=seconds, worker=os.getpid(), handle=handle,
        obs={
            "spans": [span.as_dict() for span in tracer.drain()],
            "metrics": registry.snapshot(),
            "rusage": usage.as_dict(),
        },
    )


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def _unit_info(task: Mapping[str, Any]) -> Dict[str, Any]:
    """The journal fields identifying one task's unit."""
    info = {
        "model": task["obs"]["model"], "replicate": task["obs"]["replicate"],
        "seed": task["seed"], "kind": task["kind"],
    }
    if task["kind"] == "measure":
        info["group"] = "+".join(task["groups"])
    return info


def _finish_fields(outcome: _UnitOutcome) -> Dict[str, Any]:
    """Enriched unit_finish journal fields from a successful outcome:
    generation seconds, per-group seconds, peak RSS, CPU seconds."""
    fields: Dict[str, Any] = {
        "seconds": round(outcome.seconds, 6),
        "worker": outcome.worker,
        "gen_seconds": round(outcome.gen_seconds, 6),
        "groups": {
            group: round(seconds, 6)
            for group, seconds in (outcome.timings or {}).items()
        },
    }
    rusage = outcome.obs.get("rusage") or {}
    if rusage:
        fields["max_rss_kb"] = rusage.get("max_rss_kb")
        fields["cpu_seconds"] = rusage.get("cpu_seconds")
    return fields


def _run_inline(task: Dict[str, Any], timeout: Optional[float]) -> _UnitOutcome:
    """One attempt in this process.  An inline unit cannot be preempted,
    so *timeout* is enforced after the fact: the overrun unit's values
    are discarded and it is recorded as a timeout, keeping inline and
    pooled outcomes identical for deterministic workloads."""
    started = time.perf_counter()
    try:
        outcome = _battery_task(task)
    except Exception as exc:
        return _UnitOutcome(
            "failed", seconds=time.perf_counter() - started,
            worker=os.getpid(), error=_format_exception(exc),
        )
    if timeout is not None and outcome.seconds > timeout:
        return _UnitOutcome(
            "timeout", seconds=outcome.seconds, worker=outcome.worker,
            error=(
                f"TimeoutError: unit took {outcome.seconds:.3f}s, "
                f"exceeding the {timeout}s per-unit timeout"
            ),
        )
    return outcome


def _worker_ignore_sigint() -> None:
    # Pool workers share the terminal's process group, so a Ctrl-C aimed
    # at the battery CLI or `serve run` would also interrupt every worker
    # mid-recv and spray KeyboardInterrupt tracebacks over the shutdown
    # message.  The parent owns the pool's lifecycle; workers stay deaf
    # to SIGINT and exit when the parent shuts the executor down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool:
    """A persistent handle on a battery worker pool.

    Wraps a lazily-built :class:`ProcessPoolExecutor` whose workers run
    :func:`_battery_task`, so the expensive part — spawning interpreter
    processes that then fill their per-process transport attach caches —
    is paid once and reused across battery waves, retry rounds, and (in
    the serving layer) across requests for the life of the service.

    * :meth:`submit` hands one task dict to a worker and returns its
      future — the submit path of :func:`run_tasks`, which both the
      battery and :class:`repro.serve.ServeDispatcher` execute through.
    * :meth:`rebuild` abandons a broken or hung pool without waiting for
      it; the next submit builds a fresh one.
    * :meth:`shutdown` releases the workers (idempotent).

    The handle itself is thread-safe for submits; result collection is
    the caller's business (futures are independent).
    """

    def __init__(self, jobs: int, mp_context=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self.rebuilds = 0

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live executor, built lazily on first use (thread-safe)."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=self.mp_context,
                    initializer=_worker_ignore_sigint,
                )
            return self._executor

    def submit(self, task: Dict[str, Any]):
        """Submit one battery task dict; returns its future."""
        return self.executor.submit(_battery_task, task)

    def rebuild(self) -> None:
        """Abandon the current executor (broken or hung) without waiting.

        Queued-but-unstarted work is cancelled; in-flight workers finish
        (or die) in the background.  The next :meth:`submit` lazily builds
        a replacement pool.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self.rebuilds += 1

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes (idempotent; safe if never built)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


def run_tasks(
    tasks: Sequence[Dict[str, Any]],
    timeout: Optional[float],
    retries: int,
    journal: JournalLike = None,
    pool: Optional[WorkerPool] = None,
    on_rebuild=None,
) -> List[_UnitOutcome]:
    """The one executor: run *tasks* with per-unit containment.

    Returns one terminal :class:`_UnitOutcome` per task, in order.  An
    exception raised by a unit, a unit overrunning *timeout*, or — pooled
    — a worker process dying outright costs only that unit's attempt; a
    failed attempt is retried up to *retries* times before the unit is
    declared dead.  Both paths share the bookkeeping: one
    ``unit_start`` journal event per attempt, then ``unit_finish``,
    ``unit_retry`` (counted in ``battery.units.retried``) or
    ``unit_fail``, and every successful unit's worker metrics merged
    into the ambient registry.

    Inline (*pool* ``None``) runs each unit to completion, retries
    included, before the next, enforcing *timeout* after the fact.
    Pooled runs submit every pending unit to the caller-owned
    :class:`WorkerPool` and collect them in rounds, pre-empting *timeout*
    (the abandoned worker finishes in the background).  A dead worker
    (:class:`BrokenExecutor`) charges the unit being waited on and
    re-runs every other in-flight unit free of charge; only a hung or
    broken pool is rebuilt, after which *on_rebuild* runs (the shared
    transport reaps orphaned snapshot staging directories there).
    """
    log = resolve_journal(journal)
    registry = get_registry()
    jobs = pool.jobs if pool is not None else 1
    infos = [_unit_info(task) for task in tasks]
    attempts = dict.fromkeys(range(len(tasks)), 0)  # pending index → attempts used
    outcomes: Dict[int, _UnitOutcome] = {}

    def start(index: int) -> None:
        log.emit("unit_start", attempt=attempts[index], jobs=jobs, **infos[index])

    def settle(index: int, outcome: _UnitOutcome) -> None:
        attempt = attempts[index]
        info = infos[index]
        if outcome.status == "ok":
            if outcome.obs.get("metrics"):
                registry.merge(outcome.obs["metrics"])
            log.emit(
                "unit_finish", attempt=attempt, **_finish_fields(outcome), **info
            )
        elif attempt < retries:
            attempts[index] = attempt + 1
            registry.counter("battery.units.retried").inc()
            log.emit("unit_retry", attempt=attempt, status=outcome.status, **info)
            return
        else:
            log.emit(
                "unit_fail", status=outcome.status, attempts=attempt + 1,
                error=outcome.error, **info,
            )
        outcomes[index] = outcome
        del attempts[index]

    if pool is None:
        for index in range(len(tasks)):
            while index in attempts:
                start(index)
                settle(index, _run_inline(tasks[index], timeout))
    while attempts:
        futures = {}
        for index in sorted(attempts):
            futures[index] = pool.submit(tasks[index])
            start(index)
        rebuild = False
        for index, future in futures.items():
            waited = time.perf_counter()
            broken = False
            try:
                outcome = future.result(timeout=timeout)
            except FuturesTimeout:
                future.cancel()
                rebuild = True
                outcome = _UnitOutcome(
                    "timeout", seconds=timeout,
                    error=(
                        f"TimeoutError: unit did not finish within the "
                        f"{timeout}s per-unit timeout"
                    ),
                )
            except BrokenExecutor as exc:
                # A worker died without raising (segfault, OOM-kill,
                # os._exit): the whole pool is unusable.  Attribution is
                # heuristic — the unit being waited on is charged.
                log.emit("pool_broken", error=repr(exc), **infos[index])
                rebuild = broken = True
                outcome = _UnitOutcome(
                    "failed", seconds=time.perf_counter() - waited,
                    error=(
                        f"BrokenExecutor: worker process died abruptly "
                        f"({exc!r}); unit charged heuristically"
                    ),
                )
            except Exception as exc:
                outcome = _UnitOutcome(
                    "failed", seconds=time.perf_counter() - waited,
                    error=_format_exception(exc),
                )
            settle(index, outcome)
            if broken:
                break
        # Only a hung or broken pool is abandoned (without blocking on
        # it); a healthy pool stays warm for the next retry round and for
        # whatever the caller runs next.
        if rebuild:
            pool.rebuild()
            if on_rebuild is not None:
                on_rebuild()
    return [outcomes[index] for index in range(len(tasks))]


def run_battery(
    models,
    n: int,
    seeds: int = 3,
    base_seed: int = 17,
    jobs: int = 1,
    cache: CacheLike = None,
    groups: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: JournalLike = None,
    tracer: Optional[Tracer] = None,
    profile_dir: Union[None, str, Path] = None,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    min_tail: int = 50,
    backend: str = "auto",
    transport: str = "auto",
    mp_context=None,
) -> BatteryResult:
    """Run the metric battery over *models* × *seeds* replicates.

    *models* may be a mapping label → generator/name, a sequence of
    generators or registry names, or a single one of either.  *jobs* > 1
    fans the work units out over a process pool; *cache* (a directory path
    or :class:`ResultCache`) makes every cell content-addressed and
    reusable across runs.  Results are bit-identical for any *jobs* value
    and for warm vs. cold cache — the per-unit seed depends only on the
    model identity, its parameters, *n*, *base_seed*, and the replicate
    index.

    Failures are contained, not fatal: a unit that raises, exceeds
    *timeout* seconds, or loses its worker process is retried up to
    *retries* times and then recorded as a failed :class:`UnitRecord`
    (see :attr:`BatteryResult.failures`); its replicate's summary becomes
    a :class:`~repro.core.metrics.PartialSummary` carrying the traceback
    while every other unit's results are returned normally.  *journal*
    (a path or :class:`~repro.core.journal.RunJournal`) appends one JSONL
    event per unit start/finish/retry/failure and per cache hit, all
    stamped with a fresh ``run_id``.

    Observability: *tracer* (default: the ambient
    :func:`repro.obs.get_tracer`, disabled unless someone enabled it) is
    installed as ambient for the run and — when enabled — collects the
    full span tree, including the workers' unit/generate/metric spans;
    *profile_dir* turns on per-unit ``cProfile`` dumps there.  The run's
    counter deltas land in :attr:`BatteryResult.metrics` and reconcile
    with the returned records at any *jobs* value.

    *backend* picks the metric-kernel implementation
    (``auto``/``python``/``csr``, see :mod:`repro.graph.csr`).  Both
    backends produce identical values, so the choice is deliberately
    excluded from cache keys: cells computed on one backend satisfy runs
    on the other.

    *transport* picks how topologies reach their metric computations
    (``auto``/``regenerate``/``shared``, env ``REPRO_TRANSPORT``; see
    :mod:`repro.core.transport`).  Under ``shared``, each (model, seed)
    topology is generated in its own journaled unit, published once as a
    zero-copy snapshot — spooled under the cache directory when one is in
    play, so later runs attach instead of regenerating — and each pending
    metric group runs as an independent unit attaching read-only.  Like
    *backend*, the transport is a pure scheduling choice: summaries are
    bit-identical and cache cells carry no trace of it.  *mp_context*
    pins the worker pools' multiprocessing start method
    (``fork``/``spawn``/``forkserver`` or a context object, env
    ``REPRO_MP_START``; default: the platform default).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    started = time.perf_counter()
    spec = _normalize_models(models)
    group_names = tuple(groups) if groups is not None else tuple(METRIC_GROUPS)
    unknown_groups = [g for g in group_names if g not in ALL_METRIC_GROUPS]
    if unknown_groups:
        known = ", ".join(ALL_METRIC_GROUPS)
        raise KeyError(
            f"unknown metric group(s) {unknown_groups!r}; available: {known}"
        )
    store = _resolve_cache(cache)
    transport_used = resolve_transport(transport, n, len(group_names))
    mp_ctx = resolve_mp_context(mp_context)
    stats_before = store.stats.snapshot()
    registry = get_registry()
    registry_before = registry.snapshot()
    trc = tracer if tracer is not None else get_tracer()
    log = resolve_journal(journal)
    run_id = log.begin_run(
        {
            "models": [label for label, _ in spec],
            "n": n, "seeds": seeds, "base_seed": base_seed,
            "groups": list(group_names),
        }
    )
    log.emit(
        "battery_start",
        models=[label for label, _ in spec],
        n=n, seeds=seeds, jobs=jobs, groups=list(group_names),
        timeout=timeout, retries=retries, transport=transport_used,
    )
    registry.gauge("battery.jobs").set(jobs)
    sum_params = {
        "path_sample_threshold": path_sample_threshold,
        "path_samples": path_samples,
        "min_tail": min_tail,
        "backend": backend,
    }
    make_task = functools.partial(
        build_task, trace=trc.enabled, profile_dir=profile_dir
    )

    with _ambient_obs(trc), trc.span(
        "battery", models=[label for label, _ in spec], n=n,
        seeds=seeds, jobs=jobs, run_id=run_id, transport=transport_used,
    ) as battery_span:
        # Shared transport publishes each generated topology once into a
        # snapshot spool — persistent under the cache directory when one
        # is in play (so later runs attach instead of regenerating),
        # ephemeral tmpfs otherwise.
        spool: Optional[SnapshotSpool] = None
        if transport_used == "shared":
            spool_root = (
                store.root / "snapshots" if isinstance(store, ResultCache) else None
            )
            spool = SnapshotSpool(spool_root)

        # One warm pool for the whole run: the generate and measure waves
        # (and every retry round) reuse the same worker processes, so the
        # per-process transport attach caches stay hot across waves.
        pool = WorkerPool(jobs, mp_ctx) if jobs > 1 else None
        records: List[UnitRecord] = []

        def absorb(rep: Replicate, task: Dict[str, Any], outcome: _UnitOutcome) -> None:
            """Turn one full/generate/measure outcome into records, cache
            puts, counters and adopted spans."""
            kind = task["kind"]
            if trc.enabled and outcome.obs.get("spans"):
                trc.adopt(outcome.obs["spans"], parent=battery_span)
            if outcome.status != "ok":
                # A failed full or generate unit fails the whole replicate
                # (no graph, nothing to measure); a failed measure unit
                # costs one group.
                registry.counter("battery.units.failed").inc()
                rep.error = rep.error or outcome.error
                records.append(
                    UnitRecord(
                        rep.label, rep.replicate,
                        "+".join(task["groups"]) if kind == "measure" else "unit",
                        rep.seed, False, outcome.seconds,
                        status=outcome.status, error=outcome.error,
                    )
                )
                return
            registry.counter("battery.units.completed").inc()
            registry.histogram("battery.unit.seconds").observe(outcome.seconds)
            if kind == "generate":
                spool.adopt(rep.gen_key, outcome.handle)
                rep.handle = outcome.handle
                registry.counter("battery.generations.computed").inc()
            if kind != "measure":
                rusage = outcome.obs.get("rusage") or {}
                records.append(
                    UnitRecord(
                        rep.label, rep.replicate, "generate", rep.seed, False,
                        outcome.gen_seconds,
                        max_rss_kb=rusage.get("max_rss_kb"),
                        cpu_seconds=rusage.get("cpu_seconds"),
                    )
                )
            if kind != "generate":
                registry.counter("battery.cells.computed").inc(len(outcome.values))
                rep.put(store, outcome.values)
                # Per-group seconds plus the shared "giant" pass.
                records.extend(
                    UnitRecord(rep.label, rep.replicate, group, rep.seed, False, sec)
                    for group, sec in outcome.timings.items()
                )

        def run_wave(wave: List[Tuple[Replicate, Dict[str, Any]]]) -> None:
            outcomes = run_tasks(
                [task for _, task in wave], timeout, retries, log, pool=pool,
                on_rebuild=spool.reap_staging if spool is not None else None,
            )
            for (rep, task), outcome in zip(wave, outcomes):
                absorb(rep, task, outcome)

        reps: List[Replicate] = []
        for label, generator in spec:
            identity, params = _identity(generator)
            # Engine-sensitive generators produce engine-dependent graphs, so
            # the resolved engine joins their cache cell (and only theirs —
            # single-kernel generators stay engine-transparent).  The
            # seed derivation stays on the plain params either way: the same
            # roster must map to the same seeds under every engine.
            cache_params = generator.cache_params(n)
            for index in range(seeds):
                rep = Replicate.keyed(
                    label, identity, cache_params, n,
                    derive_seed("battery-unit", identity, params, n, base_seed, index),
                    group_names, sum_params, generator=generator, replicate=index,
                )
                for group in rep.probe(store):
                    records.append(UnitRecord(label, index, group, rep.seed, True, 0.0))
                    registry.counter("battery.cells.cached").inc()
                    log.emit(
                        "cache_hit", model=label, replicate=index,
                        seed=rep.seed, group=group, key=rep.cells[group][0],
                    )
                if rep.pending and spool is not None:
                    # Shared transport: the generation is its own cached
                    # unit — a spool hit (this run or a previous one
                    # sharing the cache directory) skips it entirely.
                    rep.handle = spool.probe(rep.gen_key)
                    if rep.handle is not None:
                        records.append(
                            UnitRecord(label, index, "generate", rep.seed, True, 0.0)
                        )
                        registry.counter("battery.generations.cached").inc()
                        log.emit(
                            "snapshot_hit", model=label, replicate=index,
                            seed=rep.seed, key=rep.gen_key,
                        )
                reps.append(rep)

        try:
            if spool is None:
                run_wave([(rep, make_task("full", rep)) for rep in reps if rep.pending])
            else:
                # Wave 1: the missed generations, each publishing its
                # topology into the spool and handing back only a handle.
                run_wave([
                    (rep, make_task("generate", rep, spool=spool))
                    for rep in reps if rep.pending and rep.handle is None
                ])
                # Wave 2: every pending group of every replicate with a
                # published topology is its own unit — retries re-attach
                # (a dict lookup after the first touch), never regenerate,
                # and a failure costs one group, not the replicate.
                run_wave([
                    (rep, make_task("measure", rep, groups=(group,)))
                    for rep in reps if rep.handle is not None
                    for group in rep.pending
                ])
                # Refcounted cleanup: each replicate took one reference at
                # probe/publish time; dropping it lets an ephemeral spool
                # unlink the snapshot immediately (persistent spools keep
                # theirs for the next run to attach).
                for rep in reps:
                    if rep.handle is not None:
                        spool.release(rep.gen_key)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            if spool is not None:
                spool.cleanup()

        all_fields = {f for group_fields in METRIC_GROUPS.values() for f in group_fields}
        entries: List[BatteryEntry] = []
        for label, generator in spec:
            _, params = _identity(generator)
            model_reps = [rep for rep in reps if rep.label == label]
            summaries: List[Union[TopologySummary, PartialSummary]] = []
            for rep in model_reps:
                merged = rep.merged()
                if set(merged) == all_fields:
                    summaries.append(TopologySummary.from_dict(label, merged))
                else:
                    # Deliberately-partial batteries (subset groups, or extra
                    # groups beyond the TopologySummary scalars) and failed
                    # units both get an explicit partial summary, never None.
                    # ``missing`` is always relative to the full
                    # TopologySummary group set, so a partial summary says
                    # what a full summary would still need — extra groups
                    # (e.g. robustness) appear in ``groups``, never here.
                    present = tuple(g for g in group_names if g in rep.values)
                    missing = tuple(g for g in METRIC_GROUPS if g not in rep.values)
                    summaries.append(
                        PartialSummary(
                            name=label, values=merged, groups=present,
                            missing=missing, error=rep.error,
                        )
                    )
            entries.append(
                BatteryEntry(
                    model=label,
                    params=params,
                    seeds=tuple(rep.seed for rep in model_reps),
                    summaries=tuple(summaries),
                )
            )
    result = BatteryResult(
        entries=entries,
        records=records,
        stats=store.stats.delta(stats_before),
        jobs=jobs,
        elapsed=time.perf_counter() - started,
        metrics=diff_snapshots(registry.snapshot(), registry_before),
        run_id=run_id,
        transport=transport_used,
    )
    log.emit(
        "battery_end",
        elapsed=round(result.elapsed, 6),
        failures=len(result.failures),
        cache=result.stats.as_dict(),
    )
    return result


def _summarize_target(
    target,
    n: int,
    store: Union[ResultCache, NullCache],
    sum_params: Mapping[str, Any],
) -> TopologySummary:
    """Resolve *target* (None → reference map; Graph; TopologySummary) to a
    summary, caching the reference map's cells like any other unit."""
    if isinstance(target, TopologySummary):
        return target
    if isinstance(target, Graph):
        return summarize(target, seed=0, **sum_params)
    if target is not None:
        raise TypeError(
            f"target must be None, a Graph or a TopologySummary, "
            f"not {type(target).__name__}"
        )
    from ..datasets.asmap import reference_as_map

    rep = Replicate.keyed(
        "reference", "__reference_as_map__", {}, n, 0, tuple(METRIC_GROUPS), sum_params
    )
    rep.probe(store)
    if rep.pending:
        graph = reference_as_map(n)
        rep.put(store, compute_metric_groups(graph, rep.pending, seed=0, **sum_params))
    return TopologySummary.from_dict("reference", rep.merged())


def compare_models(
    models,
    n: int,
    seeds: int = 3,
    base_seed: int = 21,
    target=None,
    metrics: Optional[Dict[str, Tuple[str, float]]] = None,
    jobs: int = 1,
    cache: CacheLike = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: JournalLike = None,
    tracer: Optional[Tracer] = None,
    profile_dir: Union[None, str, Path] = None,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    min_tail: int = 50,
    backend: str = "auto",
    transport: str = "auto",
    mp_context=None,
) -> ComparisonBattery:
    """Score *models* against *target* over the full battery.

    *target* defaults to the frozen reference AS map at size *n* (cached
    through the same store as the model cells).  Scoring itself is cheap
    arithmetic and stays in the parent; all topology generation and metric
    computation parallelizes/caches via :func:`run_battery`, including its
    fault containment: replicates whose unit failed (see *timeout* /
    *retries*) are skipped in scoring with a ``RuntimeWarning`` naming the
    model, never crashing the comparison, and the reported cache counters
    are per-run deltas even when a shared :class:`ResultCache` instance is
    reused across calls.  *tracer* / *profile_dir* / *transport* /
    *mp_context* thread through to :func:`run_battery`; the target-summary
    and scoring stages emit their own spans.
    """
    store = _resolve_cache(cache)
    log = resolve_journal(journal)
    stats_before = store.stats.snapshot()
    trc = tracer if tracer is not None else get_tracer()
    registry = get_registry()
    registry_before = registry.snapshot()
    sum_params = {
        "path_sample_threshold": path_sample_threshold,
        "path_samples": path_samples,
        "min_tail": min_tail,
        "backend": backend,
    }
    with _ambient_obs(trc), trc.span(
        "compare", models=len(_normalize_models(models)), n=n, seeds=seeds
    ):
        with trc.span("target.summarize", n=n):
            target_summary = _summarize_target(target, n, store, sum_params)
        battery = run_battery(
            models,
            n=n,
            seeds=seeds,
            base_seed=base_seed,
            jobs=jobs,
            cache=store,
            timeout=timeout,
            retries=retries,
            journal=log,
            tracer=trc,
            profile_dir=profile_dir,
            transport=transport,
            mp_context=mp_context,
            **sum_params,
        )
        # Report this run's counters spanning the target cells as well as
        # the battery's own (run_battery's deltas start after the target
        # probe), for both the cache stats and the metrics snapshot.
        battery.stats = store.stats.delta(stats_before)
        battery.metrics = diff_snapshots(registry.snapshot(), registry_before)
        scores: List[ModelScore] = []
        with trc.span("score", models=len(battery.entries)):
            for entry in battery.entries:
                survivors: List[TopologySummary] = []
                comparisons: List[ComparisonResult] = []
                skipped = 0
                for summary in entry.summaries:
                    if isinstance(summary, PartialSummary) and summary.failed:
                        skipped += 1
                        continue
                    # Non-failed partial summaries (subset-group batteries)
                    # raise a ValueError naming the missing groups inside
                    # compare_summaries.
                    comparisons.append(
                        compare_summaries(summary, target_summary, metrics=metrics)
                    )
                    survivors.append(summary)
                if skipped:
                    warnings.warn(
                        f"model {entry.model!r}: {skipped} of {len(entry.summaries)} "
                        f"replicate(s) failed; scoring the {len(survivors)} "
                        f"surviving replicate(s) only "
                        f"(see BatteryResult.failures for tracebacks)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                scores.append(
                    ModelScore(
                        model=entry.model,
                        scores=tuple(c.score for c in comparisons),
                        comparisons=tuple(comparisons),
                        summaries=tuple(survivors),
                    )
                )
    return ComparisonBattery(target=target_summary, scores=scores, battery=battery)
