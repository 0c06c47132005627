"""Property tests: the CSR kernels agree with the python reference.

Every metric has one production implementation, an array kernel over the
CSR view; :mod:`repro.graph.reference` keeps the dict-walking originals
as the oracle.  Every scalar in :data:`repro.core.metrics.METRIC_GROUPS`
must come out bit-for-bit identical from both on arbitrary graphs,
including ones with isolated nodes, reinforced (multi-weight) edges,
non-integer node ids, and the degenerate shapes small battery inputs
produce (no nodes, one node, only isolated nodes, mixed id types).
Betweenness accumulates floats in a different order on the two sides, so
it gets a 1e-9 relative tolerance instead of exact equality.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import METRIC_GROUPS, compute_metric_groups
from repro.graph import Graph
from repro.graph import reference
from repro.graph.betweenness import approximate_betweenness, betweenness_centrality
from repro.graph.clustering import total_triangles, triangles_per_node
from repro.graph.cores import core_numbers
from repro.graph.correlations import average_neighbor_degree, degree_assortativity
from repro.graph.richclub import rich_club_coefficient
from repro.graph.shortest_paths import (
    diameter,
    eccentricities,
    path_length_distribution,
)
from repro.graph.traversal import connected_components, giant_component, is_connected

# Node-id pools exercising non-integer ids; each graph draws from one pool
# so ids stay mutually comparable.
NODE_POOLS = (
    list(range(24)),
    [f"as{i}" for i in range(24)],
    [float(i) / 2 for i in range(24)],
    [(i // 5, i % 5) for i in range(25)],
)


@st.composite
def graphs(draw):
    """Random small graphs: isolated nodes, repeated (reinforced) edges,
    assorted node-id types, weights that are not all 1."""
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
    weights = st.sampled_from([1, 1.0, 2.5, 3, 0.75])
    for _ in range(edge_count):
        i, j = draw(pairs)
        if i == j:
            continue
        g.add_edge(nodes[i], nodes[j], weight=draw(weights))
    return g


def _graph(nodes=(), edges=()):
    g = Graph()
    for node in nodes:
        g.add_node(node)
    for u, v in edges:
        g.add_edge(u, v)
    return g


#: Ids of mutually incomparable types (int, str, tuple, float).
MIXED_IDS = (0, "a", 1, "b", (0, 1), 2.5, "c", (1, 0), 3)

#: Degenerate shapes the hypothesis strategy (>= 2 nodes, one id type per
#: graph) never draws.
DEGENERATE = {
    "empty": _graph(),
    "single": _graph([7]),
    "isolated": _graph(["x", "y", "z", "w"]),
    "mixed-ids": _graph(
        MIXED_IDS,
        list(itertools.combinations(MIXED_IDS[:6], 2))
        + [("c", (1, 0)), ((1, 0), 3), (3, "c"), (3, 0)],
    ),
}


def assert_same(a, b, rel=0.0, label=""):
    """Recursive equality, exact by default, NaN-aware for floats."""
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), (label, a, b)
    if isinstance(a, dict):
        assert set(a) == set(b), (label, set(a) ^ set(b))
        for key in a:
            assert_same(a[key], b[key], rel=rel, label=f"{label}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (label, a, b)
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, rel=rel, label=f"{label}[{i}]")
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), (label, a, b)
    elif rel and isinstance(a, float):
        assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (label, a, b)
    else:
        assert a == b, (label, a, b)


def assert_groups_match_reference(g, **sum_params):
    """The four implementation-dependent battery groups, CSR vs reference,
    on the same giant component."""
    gc = reference.giant_component(g)
    assert list(gc.nodes()) == list(giant_component(g).nodes())
    groups = reference.REFERENCE_GROUPS
    assert_same(
        reference.metric_groups(gc, groups, **sum_params),
        compute_metric_groups(g, groups, **sum_params),
        label="groups",
    )


def assert_kernels_match_reference(g):
    """Every kernel with a reference, CSR vs reference, exact except
    betweenness.  Triangles are checked separately (see
    :class:`TestDegenerateGraphs`): the reference orders mixed-type ids
    by ``id()``, which is not a total order across types."""
    assert_same(core_numbers(g), reference.core_numbers(g), label="core_numbers")
    assert_same(
        average_neighbor_degree(g),
        reference.average_neighbor_degree(g),
        label="average_neighbor_degree",
    )
    assert_same(
        degree_assortativity(g), reference.degree_assortativity(g), label="r"
    )
    assert_same(
        rich_club_coefficient(g),
        reference.rich_club_coefficient(g),
        label="rich_club",
    )
    assert_same(
        path_length_distribution(g),
        reference.path_length_distribution(g),
        label="path_length_distribution",
    )
    assert_same(eccentricities(g), reference.eccentricities(g), label="ecc")
    if reference.is_connected(g):
        assert diameter(g) == reference.diameter(g)
    else:
        with pytest.raises(ValueError):
            diameter(g)
        with pytest.raises(ValueError):
            reference.diameter(g)
    assert connected_components(g) == reference.connected_components(g)
    assert is_connected(g) == reference.is_connected(g)
    assert_same(
        betweenness_centrality(g),
        reference.betweenness_centrality(g),
        rel=1e-9,
        label="betweenness",
    )


class TestBatteryScalars:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_all_metric_groups_bit_for_bit(self, g):
        assert_groups_match_reference(g)

    @given(graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_sampled_paths_share_sources(self, g, seed):
        assert_groups_match_reference(
            g, path_sample_threshold=3, path_samples=4, seed=seed
        )


class TestKernelEquivalence:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_clustering_kernels(self, g):
        assert_same(
            triangles_per_node(g),
            reference.triangles_per_node(g),
            label="triangles_per_node",
        )
        assert total_triangles(g) == reference.total_triangles(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_core_kernels(self, g):
        assert_same(core_numbers(g), reference.core_numbers(g), label="core_numbers")

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_correlation_kernels(self, g):
        assert_same(
            average_neighbor_degree(g),
            reference.average_neighbor_degree(g),
            label="average_neighbor_degree",
        )
        assert degree_assortativity(g) == reference.degree_assortativity(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_richclub_kernel(self, g):
        assert_same(
            rich_club_coefficient(g),
            reference.rich_club_coefficient(g),
            label="rich_club",
        )

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_path_kernels(self, g):
        assert_same(
            path_length_distribution(g).counts,
            reference.path_length_distribution(g).counts,
            label="path_counts",
        )
        assert_same(eccentricities(g), reference.eccentricities(g), label="ecc")
        if reference.is_connected(g):
            assert diameter(g) == reference.diameter(g)
        else:
            with pytest.raises(ValueError):
                diameter(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_traversal_kernels(self, g):
        # Same sets in the same (largest-first, discovery-ordered) order.
        assert connected_components(g) == reference.connected_components(g)
        assert is_connected(g) == reference.is_connected(g)

    @given(graphs())
    @settings(max_examples=25, deadline=None)
    def test_betweenness_within_tolerance(self, g):
        assert_same(
            betweenness_centrality(g),
            reference.betweenness_centrality(g),
            rel=1e-9,
            label="betweenness",
        )

    @given(graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_pivot_betweenness_shares_pivots(self, g, seed):
        pivots = max(1, g.num_nodes // 2)
        assert_same(
            approximate_betweenness(g, pivots, seed=seed),
            reference.approximate_betweenness(g, pivots, seed=seed),
            rel=1e-9,
            label="approx-betweenness",
        )


def _brute_force_triangles(g):
    counts = {node: 0 for node in g.nodes()}
    for a, b, c in itertools.combinations(list(g.nodes()), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            for node in (a, b, c):
                counts[node] += 1
    return counts


@pytest.mark.parametrize("name", sorted(DEGENERATE))
class TestDegenerateGraphs:
    def test_kernels_match_reference(self, name):
        assert_kernels_match_reference(DEGENERATE[name])

    def test_pivot_betweenness_matches_reference(self, name):
        g = DEGENERATE[name]
        assert_same(
            approximate_betweenness(g, 2, seed=5),
            reference.approximate_betweenness(g, 2, seed=5),
            rel=1e-9,
            label="approx-betweenness",
        )

    def test_triangles_exact(self, name):
        # The reference orders mixed-type ids by id(), which is not a total
        # order across types: three incomparable ids can be ordered
        # cyclically and one triangle counted up to three times.  The CSR
        # count is exact for any id types, so brute force is the oracle.
        g = DEGENERATE[name]
        expected = _brute_force_triangles(g)
        assert triangles_per_node(g) == expected
        assert total_triangles(g) == sum(expected.values()) // 3
        if name != "mixed-ids":
            assert reference.triangles_per_node(g) == expected

    def test_metric_groups(self, name):
        g = DEGENERATE[name]
        if g.num_nodes == 0:
            with pytest.raises(ValueError):
                compute_metric_groups(g, tuple(METRIC_GROUPS))
            return
        if name == "mixed-ids":
            # No reference triangle count here (see test_triangles_exact).
            gc = reference.giant_component(g)
            groups = ("mixing", "core", "paths")
            assert_same(
                reference.metric_groups(gc, groups),
                compute_metric_groups(g, groups),
                label="groups",
            )
        else:
            assert_groups_match_reference(g)
        assert set(compute_metric_groups(g, tuple(METRIC_GROUPS))) == set(METRIC_GROUPS)

