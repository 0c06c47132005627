"""Percolation equivalence suite: the CSR sweep IS the python reference.

The vectorized robustness battery (:mod:`repro.resilience.sweep`) promises
bit-for-bit agreement with the slow references
(:func:`repro.resilience.attack.removal_sweep`,
:func:`repro.graph.reference.inflation_sweep`,
:func:`repro.graph.reference.shortcut_fraction`) on every strategy, seed,
and graph shape — the same contract the metric kernels carry.  These
property tests enforce it on hypothesis-generated graphs covering isolated
nodes, multi-component graphs, and duplicate-degree tie-breaking, on the
degenerate shapes the strategy never draws (one node, only isolated
nodes, mixed id types; an empty graph is rejected by both sides), plus:

* exact trajectory equality for the sampled path-inflation sweep (integer
  distance accumulation makes even the sampled means bit-identical);
* a KS band tying the sweep's sampled sources to the full all-pairs
  distance population;
* identity of the whole ``robustness`` bundle with one assembled from the
  references, on both sides of the size where the parent switched
  implementations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import BarabasiAlbertGenerator
from repro.graph import Graph, reference
from repro.obs.tracer import Tracer, set_tracer
from repro.resilience import (
    AttackStrategy,
    link_redundancy,
    path_inflation_sweep,
    percolation_sweep,
    removal_sweep,
    robustness_summary,
    shortcut_fraction,
)
from repro.resilience.attack import critical_fraction
from repro.resilience.sweep import (
    ROBUSTNESS_INFLATION_FRACTION,
    ROBUSTNESS_INFLATION_STEPS,
    ROBUSTNESS_MAX_FRACTION,
    ROBUSTNESS_PATH_SAMPLES,
    ROBUSTNESS_STEPS,
)
from repro.stats.rng import derive_seed, make_rng

# Node-id pools exercising non-integer ids (positions must follow node
# iteration order for any id type, not just integers).
NODE_POOLS = (
    list(range(24)),
    [f"as{i}" for i in range(24)],
    [(i // 5, i % 5) for i in range(25)],
)

STRATEGIES = sorted(AttackStrategy, key=lambda s: s.value)


@st.composite
def graphs(draw):
    """Random small graphs: isolated nodes, multiple components, heavy
    degree ties, assorted node-id types."""
    pool = draw(st.sampled_from(NODE_POOLS))
    size = draw(st.integers(min_value=2, max_value=len(pool)))
    nodes = pool[:size]
    g = Graph()
    for node in nodes:
        g.add_node(node)
    edge_count = draw(st.integers(min_value=0, max_value=3 * size))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=0, max_value=size - 1),
    )
    for _ in range(edge_count):
        i, j = draw(pairs)
        if i == j:
            continue
        g.add_edge(nodes[i], nodes[j])
    return g


def assert_trajectories_equal(a, b):
    """Exact (NaN-aware for inflation means) trajectory equality."""
    assert a.strategy == b.strategy
    assert a.fractions_removed == b.fractions_removed
    left = getattr(a, "giant_fractions", None) or a.mean_distances
    right = getattr(b, "giant_fractions", None) or b.mean_distances
    assert len(left) == len(right)
    for x, y in zip(left, right):
        if isinstance(x, float) and math.isnan(x):
            assert math.isnan(y), (x, y)
        else:
            assert x == y, (x, y)


def _sweep_pair(g, strategy, **kwargs):
    """(reference, CSR) percolation trajectories for the same arguments."""
    return (
        removal_sweep(g, strategy, **kwargs),
        percolation_sweep(g, strategy, **kwargs),
    )


def _inflation_pair(g, strategy, **kwargs):
    """(reference, CSR) path-inflation trajectories for the same arguments."""
    return (
        reference.inflation_sweep(g, strategy, **kwargs),
        path_inflation_sweep(g, strategy, **kwargs),
    )


def assert_same_float(x, y):
    if isinstance(x, float) and math.isnan(x):
        assert isinstance(y, float) and math.isnan(y), (x, y)
    else:
        assert x == y, (x, y)


def reference_robustness(g, seed):
    """The ``robustness_summary`` bundle assembled from the references."""
    random_run = removal_sweep(
        g, AttackStrategy.RANDOM, max_fraction=ROBUSTNESS_MAX_FRACTION,
        steps=ROBUSTNESS_STEPS, seed=seed,
    )
    attack_run = removal_sweep(
        g, AttackStrategy.DEGREE, max_fraction=ROBUSTNESS_MAX_FRACTION,
        steps=ROBUSTNESS_STEPS, seed=seed,
    )
    inflation = reference.inflation_sweep(
        g, AttackStrategy.RANDOM, max_fraction=ROBUSTNESS_INFLATION_FRACTION,
        steps=ROBUSTNESS_INFLATION_STEPS, samples=ROBUSTNESS_PATH_SAMPLES,
        seed=seed,
    )
    random_critical = critical_fraction(random_run)
    attack_critical = critical_fraction(attack_run)
    return {
        "random_survival": random_run.giant_fractions[-1],
        "attack_survival": attack_run.giant_fractions[-1],
        "random_critical": (
            random_critical if random_critical is not None else float("nan")
        ),
        "attack_critical": (
            attack_critical if attack_critical is not None else float("nan")
        ),
        "path_inflation": inflation.inflation[-1],
        "link_redundancy": link_redundancy(g),
        "shortcut_fraction": reference.shortcut_fraction(g),
    }


def assert_bundles_equal(left, right):
    assert set(left) == set(right)
    for key, value in left.items():
        assert_same_float(value, right[key])


class TestPercolationEquivalence:
    @given(
        graphs(),
        st.sampled_from(STRATEGIES),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([0.3, 0.5, 1.0]),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_all_strategies(self, g, strategy, seed, fraction, steps):
        py, cs = _sweep_pair(
            g, strategy, max_fraction=fraction, steps=steps, seed=seed
        )
        assert py == cs  # giant trajectories carry no NaN: exact dataclass equality

    @given(st.sampled_from(STRATEGIES), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_degree_ties(self, strategy, seed):
        # A cycle: every node degree-2, every victim choice a tie — the
        # sweep is pure tie-breaking, so any ordering discrepancy between
        # the dict reference and the argmax kernel shows up immediately.
        g = Graph()
        for i in range(17):
            g.add_edge(i, (i + 1) % 17)
        py, cs = _sweep_pair(g, strategy, max_fraction=1.0, steps=5, seed=seed)
        assert py == cs

    def test_isolated_nodes_and_components(self):
        g = Graph()
        for i in range(12):
            g.add_node(i)
        for u, v in [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (9, 10)]:
            g.add_edge(u, v)
        for strategy in STRATEGIES:
            py, cs = _sweep_pair(g, strategy, max_fraction=1.0, steps=4, seed=2)
            assert py == cs
            assert cs.giant_fractions[-1] == 0.0  # everything removed

    def test_python_backend_is_the_reference(self):
        # The python implementation, removal_sweep, is the oracle the CSR
        # sweep must reproduce on a realistic graph.
        g = BarabasiAlbertGenerator(m=2).generate(120, seed=4)
        direct = removal_sweep(g, AttackStrategy.DEGREE, steps=7, seed=6)
        assert percolation_sweep(g, AttackStrategy.DEGREE, steps=7, seed=6) == direct

    def test_input_graph_untouched_by_csr_sweep(self):
        g = BarabasiAlbertGenerator(m=2).generate(150, seed=5)
        nodes, edges = g.num_nodes, g.num_edges
        percolation_sweep(g, AttackStrategy.DEGREE, seed=1)
        assert (g.num_nodes, g.num_edges) == (nodes, edges)

    def test_validation_parity(self):
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=1)
        for sweep in (removal_sweep, percolation_sweep):
            with pytest.raises(ValueError):
                sweep(g, max_fraction=0.0)
            with pytest.raises(ValueError):
                sweep(g, steps=0)
            with pytest.raises(ValueError):
                sweep(Graph())


class TestInflationEquivalence:
    @given(
        graphs(),
        st.sampled_from(STRATEGIES),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_for_bit(self, g, strategy, seed):
        py, cs = _inflation_pair(
            g, strategy, max_fraction=0.5, steps=3, samples=6, seed=seed
        )
        assert_trajectories_equal(py, cs)

    def test_sampled_sources_track_population_ks_band(self):
        # The sweep's step-0 sources are a seeded draw from all nodes; the
        # distances they see must be KS-close to the full all-pairs
        # population, and the sweep's reported mean must be exactly the
        # sampled population's integer-ratio mean.
        g = BarabasiAlbertGenerator(m=2).generate(400, seed=3)
        view = g.csr()
        n = view.num_nodes
        full = view.distance_batch(np.arange(n, dtype=np.int64))
        population = full[full > 0]

        seed = 11
        samples = 64
        sources = make_rng(derive_seed("inflation-sources", seed, 0)).sample(
            list(g.nodes()), samples
        )
        positions = np.fromiter(
            (view.index[s] for s in sources), dtype=np.int64, count=samples
        )
        sampled = full[:, positions][full[:, positions] > 0]

        traj = path_inflation_sweep(
            g, AttackStrategy.RANDOM, max_fraction=0.3, steps=1,
            samples=samples, seed=seed,
        )
        expected_mean = int(sampled.sum(dtype=np.int64)) / int(sampled.size)
        assert traj.mean_distances[0] == expected_mean

        top = max(int(population.max()), int(sampled.max()))
        grid = np.arange(1, top + 1)
        pop_cdf = np.searchsorted(np.sort(population), grid, side="right") / population.size
        sam_cdf = np.searchsorted(np.sort(sampled), grid, side="right") / sampled.size
        ks = float(np.abs(pop_cdf - sam_cdf).max())
        assert ks < 0.15, f"sampled-distance KS statistic {ks:.3f} out of band"

    def test_fragmented_graph_goes_nan_identically(self):
        g = Graph()
        for i in range(8):
            g.add_node(i)
        g.add_edge(0, 1)
        py, cs = _inflation_pair(
            g, AttackStrategy.DEGREE, max_fraction=1.0, steps=2, samples=4, seed=1
        )
        assert_trajectories_equal(py, cs)
        assert math.isnan(cs.mean_distances[-1])

    def test_samples_validation(self):
        g = BarabasiAlbertGenerator(m=2).generate(50, seed=1)
        for sweep in (reference.inflation_sweep, path_inflation_sweep):
            with pytest.raises(ValueError):
                sweep(g, samples=0)


def _brute_force_redundancy(g):
    """Share of edges whose endpoints stay connected without them."""
    redundant = 0
    edges = list(g.edges())
    for u, v in edges:
        h = g.copy()
        h.remove_edge(u, v)
        components = reference.connected_components(h)
        redundant += any(u in c and v in c for c in components)
    return redundant / len(edges) if edges else float("nan")


class TestRedundancyEquivalence:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_shortcut_fraction_bit_for_bit(self, g):
        assert_same_float(reference.shortcut_fraction(g), shortcut_fraction(g))

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_link_redundancy_matches_brute_force(self, g):
        assert_same_float(_brute_force_redundancy(g), link_redundancy(g))

    def test_known_values(self):
        # Triangle + pendant: 3 cycle edges redundant, 1 bridge; only the
        # triangle's edges have two-hop bypasses.
        g = Graph()
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            g.add_edge(u, v)
        assert link_redundancy(g) == 0.75
        assert shortcut_fraction(g) == 0.75
        empty = Graph()
        empty.add_node("a")
        assert math.isnan(link_redundancy(empty))
        assert math.isnan(shortcut_fraction(empty))


def _graph(nodes=(), edges=()):
    g = Graph()
    for node in nodes:
        g.add_node(node)
    for u, v in edges:
        g.add_edge(u, v)
    return g


#: Ids of mutually incomparable types (int, str, tuple).
MIXED_IDS = (0, "a", 1, "b", (0, 1), 2, "c", (1, 0))

#: Shapes the hypothesis strategy (>= 2 nodes, one id type) never draws.
DEGENERATE = {
    "single": _graph([7]),
    "isolated": _graph(["x", "y", "z", "w", "v"]),
    "mixed-ids": _graph(
        MIXED_IDS,
        [(0, "a"), ("a", 1), (1, 0), (1, "b"), ("b", (0, 1)), ((0, 1), 2),
         (2, "b"), ("c", (1, 0))],
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
class TestDegenerateGraphs:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_percolation_matches_reference(self, name, strategy):
        for fraction in (0.5, 1.0):
            py, cs = _sweep_pair(
                DEGENERATE[name], strategy, max_fraction=fraction, steps=3, seed=4
            )
            assert py == cs

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_inflation_matches_reference(self, name, strategy):
        for fraction in (0.5, 1.0):
            py, cs = _inflation_pair(
                DEGENERATE[name], strategy, max_fraction=fraction, steps=2,
                samples=3, seed=4,
            )
            assert_trajectories_equal(py, cs)

    def test_redundancy_matches_reference(self, name):
        g = DEGENERATE[name]
        assert_same_float(reference.shortcut_fraction(g), shortcut_fraction(g))
        assert_same_float(_brute_force_redundancy(g), link_redundancy(g))

    def test_robustness_summary_matches_reference(self, name):
        g = DEGENERATE[name]
        assert_bundles_equal(reference_robustness(g, 3), robustness_summary(g, seed=3))


def test_empty_graph_rejected_by_both_sides():
    for call in (
        lambda: removal_sweep(Graph()),
        lambda: percolation_sweep(Graph()),
        lambda: reference.inflation_sweep(Graph()),
        lambda: path_inflation_sweep(Graph()),
    ):
        with pytest.raises(ValueError):
            call()
    assert math.isnan(shortcut_fraction(Graph()))
    assert math.isnan(reference.shortcut_fraction(Graph()))
    assert math.isnan(link_redundancy(Graph()))


def _sweep_span_attrs(graph):
    """Run one sweep under a capturing tracer; return the attributes of
    its ``resilience.sweep`` span."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        percolation_sweep(graph, AttackStrategy.RANDOM, steps=2, seed=0)
    finally:
        set_tracer(previous)
    spans = [s for s in tracer.spans if s.name == "resilience.sweep"]
    assert len(spans) == 1
    return spans[0].attrs


class TestBackendSelection:
    def test_env_var_is_ignored(self, monkeypatch):
        # REPRO_BACKEND once forced an implementation; it is now inert.
        g = BarabasiAlbertGenerator(m=2).generate(60, seed=1)
        expected = robustness_summary(g, seed=2)
        for value in ("python", "csr", "bogus"):
            monkeypatch.setenv("REPRO_BACKEND", value)
            assert_bundles_equal(robustness_summary(g, seed=2), expected)
            assert "backend" not in _sweep_span_attrs(g)

    def test_auto_threshold(self):
        # Graphs on both sides of the old 300-node auto threshold (where
        # the parent switched from the python to the CSR sweeps) match the
        # reference exactly.
        for n in (250, 350):
            g = BarabasiAlbertGenerator(m=2).generate(n, seed=1)
            for strategy in STRATEGIES:
                py, cs = _sweep_pair(g, strategy, steps=5, seed=3)
                assert py == cs
            assert "backend" not in _sweep_span_attrs(g)


class TestCacheBackendNeutrality:
    def test_cells_cross_satisfy_backends(self, tmp_path):
        # Robustness cells carry no implementation tag and no
        # METRICS_VERSION bump came with the CSR-only sweeps, so a cell
        # written while small graphs still ran the python sweeps must hold
        # exactly what the CSR path computes: the battery's cached cells
        # equal the reference bundle of each replicate's giant component.
        from repro.core.battery import run_battery
        from repro.core.metrics import compute_metric_groups

        cache = tmp_path / "cells"
        kwargs = dict(n=120, seeds=2, base_seed=9, groups=("robustness",))
        cold = run_battery(["barabasi-albert"], cache=str(cache), **kwargs)
        assert cold.stats.misses > 0 and cold.stats.hits == 0
        warm = run_battery(["barabasi-albert"], cache=str(cache), **kwargs)
        assert warm.stats.misses == 0
        assert warm.stats.hits == cold.stats.misses
        entry = warm.entries[0]
        generator = BarabasiAlbertGenerator(m=2)
        for summary, seed in zip(entry.summaries, entry.seeds):
            graph = generator.generate(120, seed=seed)
            gc = reference.giant_component(graph)
            expected = reference_robustness(gc, seed)
            expected["molloy_reed_fc"] = compute_metric_groups(
                graph, ("robustness",), seed=seed
            )["robustness"]["molloy_reed_fc"]
            assert_bundles_equal(summary.values, expected)

    def test_robustness_summary_backend_identity(self):
        g = BarabasiAlbertGenerator(m=2).generate(200, seed=8)
        assert_bundles_equal(reference_robustness(g, 5), robustness_summary(g, seed=5))
