"""suite-slice: serial EXPERIMENTS.md harnesses plus the out-of-core point.

T3, A3, A5, A7, A11, A12, F5 and F7 run one after another at the sizes
and seeds their ``benchmarks/bench_*.py`` use; then ``grow_to_store``
grows a 10^5-node PLRG in 50 000-node checkpoints, reopens it and measures it with ``GraphStore.measure()`` in a fresh
subprocess.  This reaches ``economics``, ``bgpsim``, ``resilience``, the
graph algorithms and ``store`` — layers the other workloads never call —
and it is serial where battery-cold is parallel.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

from common import trace_overhead

STORE_N = 100_000
CHECKPOINT_EVERY = 50_000

_MEASURE_SCRIPT = """
import json, sys
from repro.store import GraphStore
values = GraphStore.open(sys.argv[1]).measure()
with open("/proc/self/status") as handle:
    hwm = [float(l.split()[1]) for l in handle if l.startswith("VmHWM:")]
print(json.dumps({"values": values, "peak_rss_kb": hwm[0] if hwm else 0.0}))
"""


# Shape checks: the assertions each harness's benchmarks/bench_*.py makes.

def _check_t3(r):
    rows = {row[0]: row for row in r.tables["market summary"][1]}
    yield r.notes["serrano_vs_er_hhi_ratio"] > 1.5, "serrano/ER HHI ratio <= 1.5"
    yield rows["serrano"][2] == 1.0, "serrano tier-1 ASes do not all break even"
    for model in ("serrano", "glp", "pfp"):
        yield rows[model][4] < 0.2, f"{model} strands >= 20% of demand"
    yield rows["erdos-renyi"][4] > 0.5, "ER strands <= 50% of demand"


def _check_a3(r):
    rows = {row[0]: row for row in r.tables["tolerance summary"][1]}
    for name, row in rows.items():
        yield math.isnan(row[3]), f"{name}: random failure collapses the giant"
        yield row[1] > 0.15, f"{name}: random survival <= 0.15"
        yield row[2] < 0.05, f"{name}: attack survival >= 0.05"
        yield row[4] < 0.45, f"{name}: attack critical >= 0.45"
    yield rows["reference"][4] < rows["erdos-renyi"][4], "reference outlasts ER"
    yield rows["serrano"][4] < rows["erdos-renyi"][4], "serrano outlasts ER"


def _check_a5(r):
    for name, shortest, policy, extra, inflated, unreachable in r.tables["inflation summary"][1]:
        yield policy >= shortest - 1e-9, f"{name}: policy paths shorter than shortest"
        yield 0.0 <= extra < 1.0, f"{name}: mean extra hops {extra}"
        yield inflated < 0.5, f"{name}: {inflated} of pairs inflated"
        yield unreachable < 0.1, f"{name}: {unreachable} unreachable"
    yield r.notes["reference_mean_inflation"] >= 0.0, "negative reference inflation"


def _check_a7(r):
    n = r.notes
    yield n["rounds_largest"] <= n["rounds_smallest"] + 3, "rounds grow with size"
    yield n["rounds_largest"] < 12, "too many rounds"
    yield n["message_scaling_exponent"] < 1.6, "messages superlinear"
    yield n["max_messages_per_edge"] < 3.0, "too many messages per edge"
    for row in r.tables["convergence scaling"][1]:
        yield row[5] <= row[2] + 3, "hub-failure reconvergence deeper than cold start"


def _check_a11(r):
    yield r.notes["q_transit_stub"] > 0.6, "transit-stub not modular"
    yield r.notes["q_barabasi_albert"] < 0.15, "BA modular"
    yield r.notes["reference_modularity"] < 0.3, "reference modular"
    rows = {row[0]: row for row in r.tables["modularity by model"][1]}
    yield rows["transit-stub"][1] > 10, "few transit-stub communities"


def _check_a12(r):
    n = r.notes
    yield n["tier1_capture"] > n["mid_capture"] > n["stub_capture"], "capture not monotone"
    yield n["tier1_capture"] > 0.5, "tier-1 capture <= 0.5"
    yield n["stub_capture"] < 0.15, "stub capture >= 0.15"
    yield n["victim_cone_loyalty"] > 0.85, "victim cone disloyal"


def _check_f5(r):
    spread = {row[0]: row[2] for row in r.tables["betweenness concentration"][1]}
    yield r.notes["serrano_vs_er_spread_ratio"] > 3.0, "serrano/ER spread <= 3"
    yield spread["pfp"] > spread["erdos-renyi"], "pfp spread <= ER"
    yield spread["reference"] > spread["erdos-renyi"], "reference spread <= ER"


def _check_f7(r):
    rho = {row[0]: row[1] for row in r.tables["top-decile normalized rich club"][1]}
    yield rho["pfp"] > 0.9, "pfp rich club <= 0.9"
    yield r.notes["pfp_minus_ba_rho"] > -0.2, "pfp rich club far below BA"
    yield rho["barabasi-albert"] < 1.3, "BA rich club >= 1.3"


def setup(ctx):
    from repro.experiments.a3_attack import run_a3
    from repro.experiments.a5_inflation import run_a5
    from repro.experiments.a7_convergence import run_a7
    from repro.experiments.a11_communities import run_a11
    from repro.experiments.a12_hijack import run_a12
    from repro.experiments.f5_betweenness import run_f5
    from repro.experiments.f7_richclub import run_f7
    from repro.experiments.t3_economics import run_t3
    import repro.store  # noqa: F401

    # Harness seeds stay those of the benchmarks/bench_*.py runs: the
    # shape assertions are stated for them, and T3's serrano break-even and
    # F7's rich-club ordering do not hold at every seed.  The workload seed
    # drives the store point.
    harnesses = [
        ("t3", run_t3, dict(n=1000, num_flows=1200, seed=9), _check_t3),
        ("a3", run_a3, dict(n=1200, steps=15, seed=29), _check_a3),
        ("a5", run_a5, dict(n=1500, num_destinations=25, seed=43), _check_a5),
        ("a7", run_a7, dict(sizes=(300, 600, 1200, 2400), destinations_per_size=3,
                            seed=53), _check_a7),
        ("a11", run_a11, dict(n=1500, seed=71), _check_a11),
        ("a12", run_a12, dict(n=1200, seed=79), _check_a12),
        ("f5", run_f5, dict(n=1200, pivots=150, seed=4), _check_f5),
        ("f7", run_f7, dict(n=1200, seed=6), _check_f7),
    ]
    return {"harnesses": harnesses, "store_seed": ctx.rng.randrange(1, 10**6)}


def teardown(ctx, state):
    pass


def _call(ctx, name, fn, *args, **kwargs):
    """One harness or store call under a span; a raise is a failed call."""
    ctx.count(1)
    try:
        with ctx.recorder.span(name):
            return fn(*args, **kwargs)
    except Exception as exc:
        ctx.count(0, 1)
        ctx.problems.append(f"{name} raised {exc!r}")
        return None


def _grow(ctx, state, path):
    from repro.core.registry import make_generator
    from repro.store.checkpoint import grow_to_store

    return grow_to_store(
        make_generator("plrg", gamma=2.2), STORE_N, path,
        seed=state["store_seed"], checkpoint_every=CHECKPOINT_EVERY,
    )


def _measure_in_subprocess(path):
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE_SCRIPT, str(path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def _pass(ctx, state, label):
    """One serial pass; returns the store facts the metrics need."""
    for name, fn, kwargs, check in state["harnesses"]:
        result = _call(ctx, f"experiments.{name}", fn, **kwargs)
        if result is not None:
            for ok, message in check(result):
                ctx.check(ok, f"{name} (seed {kwargs['seed']}): {message}")
    path = ctx.root / label / "plrg.db"
    path.parent.mkdir(parents=True)
    grown = _call(ctx, "store.grow", _grow, ctx, state, path)
    again = _call(ctx, "store.reopen", _grow, ctx, state, path)
    measured = _call(ctx, "store.measure", _measure_in_subprocess, path)
    if grown is not None:
        ctx.check(grown.num_nodes == STORE_N, f"store holds {grown.num_nodes} nodes")
        expected_chunks = -(-STORE_N // CHECKPOINT_EVERY)
        ctx.check(grown.chunks_written == expected_chunks,
                  f"store wrote {grown.chunks_written} chunks, not {expected_chunks}")
    if again is not None:
        ctx.check(not again.regenerated, "reopen regenerated the store")
    if measured is not None:
        values = measured["values"]
        ctx.rss_kb.append(measured["peak_rss_kb"])
        ctx.check(values["num_nodes"] > 0.5 * STORE_N, "PLRG giant below half the nodes")
        ctx.check(0 < values["giant_fraction"] <= 1.0,
                  f"giant_fraction {values['giant_fraction']}")
    return {"path": path, "grown": grown, "measured": measured}


def run(ctx, state):
    if ctx.trace:
        return _run_traced(ctx, state)
    calls_before = ctx.attempted
    started = time.perf_counter()
    _pass(ctx, state, "pass")
    wall = time.perf_counter() - started
    calls = ctx.attempted - calls_before
    return {"wall_s": wall, "cold_rps": calls / wall}


def _run_traced(ctx, state):
    rec = ctx.recorder
    store = _pass(ctx, state, "traced")
    out = {f"experiments.{name}_s": rec.total(f"experiments.{name}")
           for name, *_ in state["harnesses"]}
    out["bench.trace_overhead_share"] = trace_overhead(
        ctx, "overhead.reopen", lambda _key: _grow(ctx, state, store["path"]),
        [None], 0.25 * ctx.seconds,
    )
    if store["grown"] is not None and store["measured"] is not None:
        grow_s = rec.total("store.grow")
        files = store["path"].parent.rglob("*")  # the database and its snapshot
        out.update({
            "store.grow_s": grow_s,
            "store.rows_per_s": (store["grown"].num_nodes + store["grown"].num_edges) / grow_s,
            "store.reopen_ms": 1e3 * rec.total("store.reopen"),
            "store.measure_s": rec.total("store.measure"),
            "store.measure_rss_mb": store["measured"]["peak_rss_kb"] / 1024.0,
            "store.db_mb": sum(p.stat().st_size for p in files if p.is_file()) / 2**20,
        })
    return out
