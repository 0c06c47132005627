"""Microbenchmarks for the core algorithms.

Unlike the experiment benches (one run, shape assertions), these measure
raw algorithm throughput with repeated rounds — the numbers to watch when
optimizing the engine.  Graphs are built once per session.
"""

import time

import pytest

from repro.core.report import format_table
from repro.experiments.rosters import standard_roster
from repro.generators import BarabasiAlbertGenerator, SerranoGenerator
from repro.graph import (
    approximate_betweenness,
    betweenness_centrality,
    core_numbers,
    cycle_counts_3_4_5,
    giant_component,
    path_length_distribution,
    rich_club_coefficient,
    triangles_per_node,
)
from repro.graph import reference
from repro.graph.correlations import average_neighbor_degree, degree_assortativity
from repro.graph.shortest_paths import average_path_length, eccentricities
from repro.stats import FenwickSampler
from repro.stats.powerlaw import fit_powerlaw_auto_xmin


@pytest.fixture(scope="module")
def ba_2k():
    return BarabasiAlbertGenerator(m=2).generate(2000, seed=1)


@pytest.fixture(scope="module")
def ba_10k():
    return BarabasiAlbertGenerator(m=2).generate(10_000, seed=1)


def test_micro_fenwick_sampling(benchmark):
    sampler = FenwickSampler(range(1, 10_001), seed=1)

    def draw_batch():
        for _ in range(10_000):
            sampler.sample()

    benchmark(draw_batch)


def test_micro_kcore_10k(benchmark, ba_10k):
    result = benchmark(core_numbers, ba_10k)
    assert max(result.values()) == 2


def test_micro_triangles_2k(benchmark, ba_2k):
    result = benchmark(triangles_per_node, ba_2k)
    assert sum(result.values()) > 0


def test_micro_cycles_2k(benchmark, ba_2k):
    result = benchmark(cycle_counts_3_4_5, ba_2k)
    assert result[3] > 0


def test_micro_betweenness_pivots(benchmark, ba_2k):
    result = benchmark(
        approximate_betweenness, ba_2k, num_pivots=50, seed=2
    )
    assert max(result.values()) > 0


def test_micro_sampled_paths(benchmark, ba_10k):
    stats = benchmark(
        path_length_distribution, ba_10k, max_sources=50, seed=3
    )
    assert stats.mean > 1

def test_micro_rich_club_2k(benchmark, ba_2k):
    result = benchmark(rich_club_coefficient, ba_2k)
    assert result


#: (label, CSR kernel, python reference, required speedup) for the CSR
#: shoot-out; both sides take the graph and do the same work.  The ≥5x
#: floors are the acceptance bars on the two heaviest kernels; the
#: remaining rows are recorded without a floor (tiny absolute times make
#: their ratios noisy).
_CSR_KERNELS = (
    (
        "average_path_length",
        average_path_length,
        lambda g: reference.path_length_distribution(g).mean,
        5.0,
    ),
    (
        "betweenness (exact)",
        betweenness_centrality,
        reference.betweenness_centrality,
        5.0,
    ),
    (
        "betweenness (50 pivots)",
        lambda g: approximate_betweenness(g, num_pivots=50, seed=2),
        lambda g: reference.approximate_betweenness(g, num_pivots=50, seed=2),
        None,
    ),
    ("eccentricities", eccentricities, reference.eccentricities, None),
    ("triangles_per_node", triangles_per_node, reference.triangles_per_node, None),
    ("core_numbers", core_numbers, reference.core_numbers, None),
    (
        "rich_club_coefficient",
        rich_club_coefficient,
        reference.rich_club_coefficient,
        None,
    ),
    (
        "average_neighbor_degree",
        average_neighbor_degree,
        reference.average_neighbor_degree,
        None,
    ),
    (
        "degree_assortativity",
        degree_assortativity,
        reference.degree_assortativity,
        None,
    ),
)


def test_micro_csr_kernel_speedups(record_text):
    """Python reference vs CSR kernel, per kernel, on one BA graph (n=3000).

    Oracle first — both sides must return the same values — then the
    wall-clock table is written to ``output/csr_kernels.txt`` and the two
    headline kernels are held to the ≥5x acceptance floor.
    """
    graph = BarabasiAlbertGenerator(m=2).generate(3000, seed=1)
    rows = []
    floors = {}
    for label, kernel, oracle, floor in _CSR_KERNELS:
        start = time.perf_counter()
        python_value = oracle(graph)
        python_s = time.perf_counter() - start
        start = time.perf_counter()
        csr_value = kernel(graph)
        csr_s = time.perf_counter() - start
        if isinstance(python_value, dict) and python_value and isinstance(
            next(iter(python_value.values())), float
        ):
            for key, expected in python_value.items():
                assert abs(csr_value[key] - expected) <= 1e-9 * max(
                    1.0, abs(expected)
                ), (label, key)
        else:
            assert python_value == csr_value, label
        speedup = python_s / csr_s
        rows.append([label, python_s, csr_s, speedup])
        if floor is not None:
            floors[label] = (speedup, floor)
    table = format_table(
        ["kernel", "python s", "csr s", "speedup"],
        rows,
        title="CSR kernel shoot-out (barabasi-albert m=2 n=3000 seed=1)",
    )
    print()
    print(table)
    record_text("csr_kernels.txt", table)
    for label, (speedup, floor) in floors.items():
        assert speedup >= floor, (label, speedup)


def test_micro_serrano_generation(benchmark):
    generator = SerranoGenerator()
    graph = benchmark.pedantic(
        generator.generate, args=(1000,), kwargs={"seed": 4}, rounds=2, iterations=1
    )
    assert graph.num_nodes == 1000


def test_micro_powerlaw_fit(perf):
    """The battery's tail fit on every roster degree sequence.

    Giant-component degrees of the 12 ``standard_roster(2000)`` models at
    seeds 1 and 2; only the 24 ``fit_powerlaw_auto_xmin`` calls are timed.
    ``fit_s`` carries the ``powerlaw-fit-seconds`` ceiling.
    """
    perf.bench_id = "powerlaw_fit"
    sequences = [
        list(giant_component(generator.generate(2000, seed=seed)).degrees().values())
        for seed in (1, 2)
        for generator in standard_roster(2000).values()
    ]
    start = time.perf_counter()
    for degrees in sequences:
        fit_powerlaw_auto_xmin(degrees, min_tail=50)
    perf.values["fit_s"] = time.perf_counter() - start
