"""battery-cold: the cold write/compute path behind T1, T4 and T5.

``run_battery(standard_roster(2000), n=2000, seeds=2, jobs=2)`` on a fresh
cache directory with the default groups and ``auto`` backend, engine and
transport: every cell misses and is written, every topology is generated
and published.  Cold batteries repeat (each on a fresh cache, with the next
base seed) for 1.2 x --seconds; the median is reported.

The traced run takes the ``battery.*`` numbers from one traced
``BatteryResult``, then replays the same topologies serially in-process
with a benchmark span around each layer's public entry point, and times
the recorder's own cost on warm reads, each traced or not by a coin flip.
"""

from __future__ import annotations

import time

from common import median, same_values, trace_overhead

N = 2000
SEEDS = 2
JOBS = 2
#: Cells sampled against an in-process summarize() after the cold battery.
SAMPLED_CELLS = 2


def setup(ctx):
    from repro.experiments.rosters import standard_roster
    import repro.core.battery  # noqa: F401  (import cost belongs to set-up)

    return {"roster": standard_roster(N)}


def teardown(ctx, state):
    pass


def _cold_battery(ctx, state, base_seed: int, label: str):
    from repro.core.battery import run_battery
    from repro.core.metrics import TopologySummary

    cache = ctx.root / f"cache-{label}"
    started = time.perf_counter()
    with ctx.recorder.span("run_battery"):
        result = run_battery(
            state["roster"], n=N, seeds=SEEDS, base_seed=base_seed,
            jobs=JOBS, cache=str(cache),
        )
    wall = time.perf_counter() - started
    replicates = [s for entry in result.entries for s in entry.summaries]
    full = sum(isinstance(s, TopologySummary) for s in replicates)
    ctx.count(len(replicates), len(replicates) - full)
    expected = len(state["roster"]) * SEEDS
    ctx.check(full == expected, f"{label}: {full} of {expected} replicates complete")
    ctx.check(not result.failures, f"{label}: {len(result.failures)} failed units")
    ctx.stamp["transport"] = result.transport
    return result, wall, cache


def _warm_reader(state, base_seed, cache):
    """One warm read: a single model's replicates from the filled cache (the
    rerun path of ``--cache-dir``); True when every cell was a hit."""
    from repro.core.battery import run_battery

    roster = state["roster"]

    def read(model) -> bool:
        warm = run_battery({model: roster[model]}, n=N, seeds=SEEDS,
                           base_seed=base_seed, jobs=1, cache=str(cache))
        return warm.stats.misses == 0

    return read


def _check_sampled_cells(ctx, state, result) -> None:
    """Sampled replicates equal summarize() run in-process, bit for bit."""
    from repro.core.metrics import summarize

    pairs = [(e, i) for e in result.entries for i in range(len(e.seeds))]
    for entry, rep in ctx.rng.sample(pairs, SAMPLED_CELLS):
        seed = entry.seeds[rep]
        graph = state["roster"][entry.model].generate(N, seed=seed)
        expected = summarize(graph, seed=seed).as_dict()
        ctx.check(
            same_values(entry.summaries[rep].as_dict(), expected),
            f"{entry.model} replicate {rep}: battery cell differs from summarize()",
        )


def _stamp_resolution(ctx) -> None:
    from repro.generators.engine import resolve_engine
    from repro.graph.csr import resolve_backend

    ctx.stamp["backend"] = resolve_backend("auto", N)
    ctx.stamp["engine"] = resolve_engine("auto", N)


def run(ctx, state):
    _stamp_resolution(ctx)
    if ctx.trace:
        return _run_traced(ctx, state)
    base = ctx.rng.randrange(1, 2**31)
    first, wall, _ = _cold_battery(ctx, state, base, "cold0")
    walls = [wall]
    started = time.perf_counter() - wall
    while time.perf_counter() - started < 1.2 * ctx.seconds:
        _, wall, _ = _cold_battery(ctx, state, base + len(walls), f"cold{len(walls)}")
        walls.append(wall)
    _check_sampled_cells(ctx, state, first)
    wall = median(walls)
    replicates = sum(len(e.summaries) for e in first.entries)
    return {"wall_s": wall, "cold_rps": replicates / wall}


def _run_traced(ctx, state):
    from repro.core.cache import ResultCache, canonical_key
    from repro.core.metrics import METRIC_GROUPS, compute_metric_groups
    from repro.core.transport import attach_graph, clear_attach_cache, publish_graph
    from repro.graph.csr import CSRView
    from repro.graph.traversal import giant_component
    from repro.stats.powerlaw import fit_powerlaw_auto_xmin

    rec = ctx.recorder
    base = ctx.rng.randrange(1, 2**31)
    result, _, battery_cache = _cold_battery(ctx, state, base, "traced")
    counters = result.metrics.get("counters", {})
    compute = result.compute_seconds
    out = {
        "battery.units": counters.get("battery.units.completed", 0)
        + counters.get("battery.units.failed", 0),
        "battery.generations": counters.get("battery.generations.computed", 0),
        "battery.retries": counters.get("battery.units.retried", 0),
        "battery.compute_s": compute,
        "battery.busy_share": compute / (result.elapsed * result.jobs),
    }

    # Serial replay of the same topologies, one span per layer call.
    cache = ResultCache(ctx.root / "replay-cells")
    spool = ctx.root / "replay-spool"
    gets = hits = 0
    out["transport.bytes_shared"] = 0
    for entry in result.entries:
        generator = state["roster"][entry.model]
        for rep, seed in enumerate(entry.seeds):
            with rec.span("generate", model=entry.model):
                graph = generator.generate(N, seed=seed)
            with rec.span("giant_component"):
                gc = giant_component(graph)
            with rec.span("CSRView.from_graph"):
                CSRView.from_graph(gc)
            values = {}
            for group in METRIC_GROUPS:
                with rec.span("compute_metric_groups", group=group):
                    values[group] = compute_metric_groups(graph, [group], seed=seed)[group]
            with rec.span("fit_powerlaw_auto_xmin"):
                try:
                    fit_powerlaw_auto_xmin(gc.degree_sequence())
                except ValueError:  # tail too short to fit: a valid outcome
                    pass
            with rec.span("publish_graph"):
                handle = publish_graph(graph, spool / f"{entry.model}-{rep}")
            with rec.span("attach_graph"):
                attached = attach_graph(handle)
            out["transport.bytes_shared"] += handle.nbytes
            ctx.check(attached.num_edges == graph.num_edges,
                      f"{entry.model}/{rep}: attached graph differs")
            merged = {}
            for group, cell in values.items():
                payload = {"kind": "perfbench-replay", "model": entry.model,
                           "seed": seed, "group": group}
                key = canonical_key(payload)
                with rec.span("ResultCache.put"):
                    cache.put(key, cell, payload)
                with rec.span("ResultCache.get"):
                    got = cache.get(key, payload)
                gets += 1
                hits += got is not None
                ctx.check(got is not None and same_values(got, cell),
                          f"{entry.model}/{rep}/{group}: cache read-back differs")
                merged.update(cell)
            ctx.check(
                same_values(merged, entry.summaries[rep].as_dict()),
                f"{entry.model} replicate {rep}: replay differs from the battery",
            )
    clear_attach_cache()
    out["bench.trace_overhead_share"] = trace_overhead(
        ctx, "run_battery", _warm_reader(state, base, battery_cache),
        list(state["roster"]), 0.25 * ctx.seconds,
    )
    for model in state["roster"]:
        out[f"generators.{model}.generate_s"] = rec.total("generate", model=model)
    for group in METRIC_GROUPS:
        out[f"metrics.{group}_s"] = rec.total("compute_metric_groups", group=group)
    out.update({
        "generators.generate_s": rec.total("generate"),
        "graph.giant_s": rec.total("giant_component"),
        "graph.csr_build_s": rec.total("CSRView.from_graph"),
        "stats.powerlaw_fit_s": rec.total("fit_powerlaw_auto_xmin"),
        "transport.publish_s": rec.total("publish_graph"),
        "transport.attach_s": rec.total("attach_graph"),
        "cache.put_ms": rec.mean_ms("ResultCache.put"),
        "cache.get_ms": rec.mean_ms("ResultCache.get"),
        "cache.bytes_written": sum(
            p.stat().st_size for p in (ctx.root / "replay-cells").rglob("*") if p.is_file()
        ),
        "cache.hit_share": hits / gets,
    })
    return out
