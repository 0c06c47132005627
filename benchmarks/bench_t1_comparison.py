"""T1 — the generator comparison table (Bu–Towsley-style shoot-out).

Also benchmarks the battery runner behind T1: a cold cached run, a warm
rerun (every cell served from the content-addressed cache) and a parallel
cold run, asserting the reported numbers are identical in every mode.
"""

import os
import time

from conftest import run_once

from repro.core.report import format_table
from repro.experiments import run_t1


def test_t1_generator_comparison(benchmark, record_experiment):
    result = run_once(benchmark, run_t1, n=1000, seeds=2)
    record_experiment(result)
    headers, ranking = result.tables["ranking (best first)"]
    order = [name for name, _ in ranking]
    scores = dict(ranking)
    # Shape: the weighted-growth models lead the field...
    assert order[0].startswith("serrano")
    assert "serrano" in order[:3] and "serrano-distance" in order[:3]
    # ...degree-driven AS-fitted models beat plain BA...
    assert scores["glp"] < scores["barabasi-albert"]
    assert scores["pfp"] < scores["barabasi-albert"]
    # ...and the no-heavy-tail baselines trail the heavy-tail field.
    for baseline in ("erdos-renyi", "waxman"):
        assert scores[baseline] > scores["glp"], baseline


def _ranks(result):
    return {k: v for k, v in result.notes.items() if k.startswith("rank_")}


def test_t1_battery_cache_and_parallel_speedup(tmp_path, record_text):
    """Cold vs warm vs parallel T1: identical numbers, recorded speedups."""
    kwargs = dict(n=500, seeds=2)
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_t1(cache_dir=str(cache_dir), **kwargs)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_t1(cache_dir=str(cache_dir), **kwargs)
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_t1(jobs=4, cache_dir=str(tmp_path / "cache-par"), **kwargs)
    parallel_s = time.perf_counter() - start

    # Oracle: every reported score is identical in all three modes.
    assert _ranks(warm) == _ranks(cold)
    assert _ranks(parallel) == _ranks(cold)
    # Warm rerun recomputes nothing.
    assert warm.notes["cache_misses"] == 0
    assert warm.notes["cache_hits"] > 0

    warm_speedup = cold_s / warm_s
    parallel_speedup = cold_s / parallel_s
    rows = [
        ["cold serial", cold_s, 1.0],
        ["warm cache", warm_s, warm_speedup],
        ["cold jobs=4", parallel_s, parallel_speedup],
    ]
    table = format_table(
        ["mode", "seconds", "speedup"], rows,
        title=f"T1 battery wall clock (n={kwargs['n']}, seeds={kwargs['seeds']}, "
              f"{os.cpu_count()} cpus)",
    )
    print()
    print(table)
    record_text("t1_scaling.txt", table)

    # A warm cache replaces all generation+metric work with JSON reads.
    assert warm_speedup >= 5.0, warm_speedup
    # Cold parallel speedup needs actual cores to show up.
    if (os.cpu_count() or 1) >= 4:
        assert parallel_speedup >= 2.0, parallel_speedup


def test_t1_battery_csr_speedup(record_text):
    """Full T1 battery, python reference vs CSR: identical scores, ≥2x.

    Both sides do the same work: for the reference map and each of the 12
    roster models, generate the topology, compute the single-implementation
    ``size``/``tail`` groups through the same
    :func:`~repro.core.metrics.compute_metric_groups` call, then extract
    the giant component and compute the ``clustering``/``mixing``/
    ``core``/``paths`` groups — through ``compute_metric_groups`` on the
    CSR side, through :mod:`repro.graph.reference` on the python side —
    and score the summary against the reference map's.  "Full" means no
    sampling shortcuts: ``path_sample_threshold`` is lifted so the paths
    group runs exact all-source BFS, the workload the CSR kernels exist
    for.  The reference map's construction is prewarmed so neither timed
    side pays it.
    """
    from repro.core.compare import compare_summaries
    from repro.core.metrics import (
        METRIC_GROUPS,
        TopologySummary,
        compute_metric_groups,
    )
    from repro.datasets.asmap import reference_as_map
    from repro.experiments.rosters import ROSTER_ORDER, standard_roster
    from repro.graph import reference

    n, seed = 2000, 21
    sum_params = dict(path_sample_threshold=10**9, seed=seed)
    roster = standard_roster(n)
    reference_as_map(n)

    def csr_groups(graph):
        return compute_metric_groups(graph, reference.REFERENCE_GROUPS, **sum_params)

    def reference_groups(graph):
        gc = reference.giant_component(graph)
        return reference.metric_groups(gc, reference.REFERENCE_GROUPS, **sum_params)

    def battery(groups_of):
        """(repr of every summary, repr of the ranking) — repr so NaN
        exponents compare equal."""

        def summarize(name, graph):
            values = compute_metric_groups(graph, ("size", "tail"), **sum_params)
            values.update(groups_of(graph))
            merged = {k: v for group in METRIC_GROUPS for k, v in values[group].items()}
            return TopologySummary.from_dict(name, merged)

        target = summarize("reference", reference_as_map(n))
        summaries = [target]
        scores = {}
        for model in ROSTER_ORDER:
            summary = summarize(model, roster[model].generate(n, seed=seed))
            summaries.append(summary)
            scores[model] = compare_summaries(summary, target).score
        ranking = sorted(scores.items(), key=lambda item: item[1])
        return repr(summaries), repr(ranking)

    start = time.perf_counter()
    python_run = battery(reference_groups)
    python_s = time.perf_counter() - start

    start = time.perf_counter()
    csr_run = battery(csr_groups)
    csr_s = time.perf_counter() - start

    # Oracle: the implementation never changes a single value or score.
    assert csr_run == python_run

    speedup = python_s / csr_s
    rows = [
        ["python reference", python_s, 1.0],
        ["csr", csr_s, speedup],
    ]
    table = format_table(
        ["implementation", "seconds", "speedup"],
        rows,
        title=f"Full battery wall clock (n={n}, seeds=1, exact paths, "
              f"{len(ROSTER_ORDER)} models)",
    )
    print()
    print(table)
    record_text("csr_battery.txt", table)
    assert speedup >= 2.0, speedup
