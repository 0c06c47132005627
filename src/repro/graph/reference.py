"""Pure-Python reference kernels: the oracle for the CSR implementations.

Every metric in :mod:`repro.graph` and :mod:`repro.resilience.sweep` has
one production implementation, an array kernel over the graph's
:class:`~repro.graph.csr.CSRView`.  This module keeps the dict-walking
kernels they replaced, unchanged.  It has no production caller: it is the
oracle of the equivalence suites (``tests/graph/test_backend_equivalence.py``,
``tests/resilience/test_sweep_equivalence.py``) and the slow side of the
CSR-speedup benches.  (The percolation sweep's reference is
:func:`repro.resilience.attack.removal_sweep`.)  Each function returns
what its production namesake returns, bit-for-bit except betweenness
(float accumulation order differs; ~1e-12 relative).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..resilience.attack import AttackStrategy, victim_order
from ..resilience.sweep import InflationTrajectory, _sample_sources, _validate_sweep_args
from ..stats.rng import SeedLike, make_rng
from .betweenness import _plan
from .graph import Graph
from .shortest_paths import PathLengthStats, _path_sources
from .traversal import bfs_distances

__all__ = [
    "connected_components", "is_connected", "giant_component",
    "triangles_per_node", "total_triangles", "core_numbers",
    "average_neighbor_degree", "degree_assortativity", "rich_club_coefficient",
    "betweenness_centrality", "approximate_betweenness",
    "path_length_distribution", "eccentricities", "diameter",
    "inflation_sweep", "shortcut_fraction", "metric_groups", "REFERENCE_GROUPS",
]

Node = Hashable

# ------------------------------------------------------------ traversal


def connected_components(graph: Graph) -> List[Set[Node]]:
    """Connected components, largest first."""
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        component: Set[Node] = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (empty graphs count as connected)."""
    if graph.num_nodes == 0:
        return True
    first = next(iter(graph.nodes()))
    return len(bfs_distances(graph, first)) == graph.num_nodes


def giant_component(graph: Graph) -> Graph:
    """Subgraph induced on the largest connected component."""
    components = connected_components(graph)
    if not components:
        return Graph(name=graph.name)
    return graph.subgraph(components[0])


# ------------------------------------------------------------ clustering


def triangles_per_node(graph: Graph) -> Dict[Node, int]:
    """Number of triangles through each node.

    Neighbor-intersection counting: for each node, intersect the adjacency
    sets of neighbor pairs via hash lookups, iterating the smaller side.
    O(sum_e min(d_u, d_v)) overall.
    """
    counts: Dict[Node, int] = {node: 0 for node in graph.nodes()}
    adj = {node: graph.neighbor_weights(node) for node in graph.nodes()}
    for u in graph.nodes():
        nbrs_u = adj[u]
        for v in nbrs_u:
            if not _ordered_before(u, v):
                continue
            # Iterate the smaller adjacency to bound the intersection cost.
            small, large = (nbrs_u, adj[v]) if len(nbrs_u) <= len(adj[v]) else (adj[v], nbrs_u)
            for w in small:
                if w != u and w != v and w in large and _ordered_before(v, w):
                    counts[u] += 1
                    counts[v] += 1
                    counts[w] += 1
    return counts


def _ordered_before(a: Node, b: Node) -> bool:
    """Stable ordering for arbitrary hashable ids (id() fallback for
    non-comparable mixes); node ids within one graph are homogeneous in
    practice, so the common path is a plain ``<``."""
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return id(a) < id(b)


def total_triangles(graph: Graph) -> int:
    """Total number of distinct triangles in the graph."""
    return sum(triangles_per_node(graph).values()) // 3


# ----------------------------------------------------------------- cores


def core_numbers(graph: Graph) -> Dict[Node, int]:
    """Coreness of every node via bucket peeling."""
    degrees = dict(graph.degrees())
    if not degrees:
        return {}
    max_degree = max(degrees.values())
    # Bucket nodes by current degree.
    buckets: List[List[Node]] = [[] for _ in range(max_degree + 1)]
    for node, k in degrees.items():
        buckets[k].append(node)
    core: Dict[Node, int] = {}
    current = 0
    remaining = dict(degrees)
    removed = set()
    for k in range(max_degree + 1):
        bucket = buckets[k]
        while bucket:
            node = bucket.pop()
            if node in removed or remaining[node] != k:
                continue  # stale entry: the node moved buckets already
            current = max(current, k)
            core[node] = current
            removed.add(node)
            for nbr in graph.neighbors(node):
                if nbr in removed:
                    continue
                d = remaining[nbr]
                if d > k:
                    remaining[nbr] = d - 1
                    buckets[d - 1].append(nbr)
    return core


# ---------------------------------------------------------- correlations


def average_neighbor_degree(graph: Graph) -> Dict[Node, float]:
    """Mean degree of each node's neighbors (0 for isolated nodes)."""
    out: Dict[Node, float] = {}
    for node in graph.nodes():
        k = graph.degree(node)
        if k == 0:
            out[node] = 0.0
            continue
        out[node] = sum(graph.degree(v) for v in graph.neighbors(node)) / k
    return out


def degree_assortativity(graph: Graph) -> float:
    """Pearson correlation of degrees across edges (Newman's r)."""
    sum_x = sum_x2 = sum_xy = 0.0
    count = 0
    for u, v in graph.edges():
        ku = graph.degree(u)
        kv = graph.degree(v)
        # Both orientations: (ku, kv) and (kv, ku).
        sum_x += ku + kv
        sum_x2 += ku * ku + kv * kv
        sum_xy += 2.0 * ku * kv
        count += 2
    if count == 0:
        return 0.0
    mean_x = sum_x / count
    var_x = sum_x2 / count - mean_x * mean_x
    if var_x <= 0:
        return 0.0
    cov = sum_xy / count - mean_x * mean_x
    return cov / var_x


# ------------------------------------------------------------- rich club


def rich_club_coefficient(graph: Graph) -> Dict[int, float]:
    """φ(k) for every degree k present: density among nodes with degree > k.

    Computed incrementally from high k downward in O(E + N log N): for each
    threshold k, ``φ(k) = 2 E_{>k} / (N_{>k} (N_{>k} - 1))``.  Thresholds
    where fewer than two nodes qualify are omitted.
    """
    degrees = graph.degrees()
    if not degrees:
        return {}
    # Sort thresholds descending; sweep nodes into the club as k decreases.
    max_k = max(degrees.values())
    nodes_by_degree: Dict[int, List[Node]] = {}
    for node, k in degrees.items():
        nodes_by_degree.setdefault(k, []).append(node)
    club: set = set()
    edges_inside = 0
    phi: Dict[int, float] = {}
    for k in range(max_k - 1, -1, -1):
        # Nodes of degree k+1 enter the club when the threshold drops to k.
        for node in nodes_by_degree.get(k + 1, ()):
            for nbr in graph.neighbors(node):
                if nbr in club:
                    edges_inside += 1
            club.add(node)
        size = len(club)
        if size >= 2:
            phi[k] = 2.0 * edges_inside / (size * (size - 1))
    return dict(sorted(phi.items()))


# ----------------------------------------------------------- betweenness


def _accumulate_from_source(graph: Graph, source: Node, scores: Dict[Node, float]) -> None:
    """One Brandes source iteration: BFS + dependency back-propagation."""
    sigma: Dict[Node, float] = {source: 1.0}
    distance: Dict[Node, int] = {source: 0}
    predecessors: Dict[Node, List[Node]] = {source: []}
    order: List[Node] = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.neighbors(u):
            if v not in distance:
                distance[v] = distance[u] + 1
                sigma[v] = 0.0
                predecessors[v] = []
                queue.append(v)
            if distance[v] == distance[u] + 1:
                sigma[v] += sigma[u]
                predecessors[v].append(u)
    delta: Dict[Node, float] = {u: 0.0 for u in order}
    for u in reversed(order):
        for p in predecessors[u]:
            delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
        if u != source:
            scores[u] += delta[u]


def _scored(graph: Graph, sources: Sequence[Node], scale: float) -> Dict[Node, float]:
    scores: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
    for source in sources:
        _accumulate_from_source(graph, source, scores)
    return {node: score * scale for node, score in scores.items()}


def betweenness_centrality(graph: Graph, normalized: bool = True) -> Dict[Node, float]:
    """Exact Freeman betweenness of every node (Brandes' algorithm)."""
    return _scored(graph, *_plan(graph, normalized=normalized))


def approximate_betweenness(
    graph: Graph,
    num_pivots: int,
    seed: SeedLike = None,
    normalized: bool = True,
) -> Dict[Node, float]:
    """Pivot-sampled betweenness from the same pivots as the CSR kernel."""
    if graph.num_nodes == 0:
        return {}
    return _scored(graph, *_plan(graph, num_pivots, seed, normalized))


# ---------------------------------------------------------------- paths


def path_length_distribution(
    graph: Graph,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
) -> PathLengthStats:
    """Distribution of shortest-path lengths, one dict BFS per root."""
    if graph.num_nodes == 0:
        return PathLengthStats(counts={}, sources=0, exact=True)
    sources, exact = _path_sources(graph, max_sources, seed)
    counts: Dict[int, int] = {}
    for source in sources:
        for distance in bfs_distances(graph, source).values():
            if distance > 0:
                counts[distance] = counts.get(distance, 0) + 1
    return PathLengthStats(counts=counts, sources=len(sources), exact=exact)


def eccentricities(graph: Graph) -> Dict[Node, int]:
    """Eccentricity of every node (max distance to any reachable node)."""
    out: Dict[Node, int] = {}
    for node in graph.nodes():
        distances = bfs_distances(graph, node)
        out[node] = max(distances.values()) if len(distances) > 1 else 0
    return out


def diameter(graph: Graph) -> int:
    """Exact diameter; :class:`ValueError` on a disconnected graph."""
    nodes = list(graph.nodes())
    if not nodes:
        return 0
    best = 0
    n = len(nodes)
    for node in nodes:
        distances = bfs_distances(graph, node)
        if len(distances) != n:
            raise ValueError("diameter is undefined on a disconnected graph")
        best = max(best, max(distances.values()))
    return best


# ------------------------------------------------------------ resilience


def inflation_sweep(
    graph: Graph,
    strategy: AttackStrategy = AttackStrategy.RANDOM,
    max_fraction: float = 0.5,
    steps: int = 5,
    samples: int = 32,
    seed: SeedLike = 0,
    betweenness_pivots: int = 100,
) -> InflationTrajectory:
    """Reference :func:`repro.resilience.sweep.path_inflation_sweep`:
    graph copy, per-batch removal, dict BFS."""
    _validate_sweep_args(graph, max_fraction, steps)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = make_rng(seed)
    work = graph.copy()
    n = graph.num_nodes
    total = int(max_fraction * n)
    adaptive = strategy is AttackStrategy.DEGREE
    order: List[Node] = []
    if not adaptive:
        order = victim_order(work, strategy, rng, betweenness_pivots)

    def measure(step: int) -> float:
        active = list(work.nodes())
        distance_sum = 0
        pairs = 0
        for source in _sample_sources(active, samples, seed, step):
            distances = bfs_distances(work, source)
            distance_sum += sum(distances.values())
            pairs += len(distances) - 1
        return distance_sum / pairs if pairs else float("nan")

    fractions = [0.0]
    means = [measure(0)]
    batch = max(total // steps, 1)
    removed = 0
    cursor = 0
    step = 0
    while removed < total:
        for _ in range(min(batch, total - removed)):
            if adaptive:
                victim = max(work.nodes(), key=work.degree)
            else:
                victim = order[cursor]
                cursor += 1
            work.remove_node(victim)
            removed += 1
        step += 1
        fractions.append(removed / n)
        means.append(measure(step))
    return InflationTrajectory(
        strategy=strategy,
        fractions_removed=tuple(fractions),
        mean_distances=tuple(means),
        samples=samples,
    )


def shortcut_fraction(graph: Graph) -> float:
    """Fraction of links with a two-hop bypass, by per-edge neighbor-set
    intersection."""
    m = graph.num_edges
    if m == 0:
        return float("nan")
    shortcuts = 0
    for u, v in graph.edges():
        u_neighbors = graph.neighbor_weights(u)
        v_neighbors = graph.neighbor_weights(v)
        if len(v_neighbors) < len(u_neighbors):
            u_neighbors, v_neighbors = v_neighbors, u_neighbors
        if any(w in v_neighbors for w in u_neighbors):
            shortcuts += 1
    return shortcuts / m


# -------------------------------------------------------- battery groups

#: The battery groups whose values come from the kernels above; ``size``
#: and ``tail`` read only the degree sequence and have one implementation.
REFERENCE_GROUPS = ("clustering", "mixing", "core", "paths")


def metric_groups(
    gc: Graph,
    groups: Sequence[str] = REFERENCE_GROUPS,
    path_sample_threshold: int = 1500,
    path_samples: int = 400,
    seed: SeedLike = 0,
    **_,
) -> Dict[str, Dict[str, float]]:
    """Reference values of *groups* on the giant component *gc*, in the
    shape of :func:`repro.core.metrics.compute_metric_groups` (which takes
    the whole graph and extracts the giant itself)."""
    unknown = [g for g in groups if g not in REFERENCE_GROUPS]
    if unknown:
        raise KeyError(f"no reference for metric group(s) {unknown!r}")
    out: Dict[str, Dict[str, float]] = {}
    for group in groups:
        if group == "clustering":
            triangles = triangles_per_node(gc)
            local = []
            for node in gc.nodes():
                k = gc.degree(node)
                local.append(2.0 * triangles[node] / (k * (k - 1)) if k >= 2 else 0.0)
            triples = sum(k * (k - 1) // 2 for k in gc.degrees().values())
            total = sum(triangles.values()) // 3
            out[group] = {
                "average_clustering": sum(local) / len(local) if local else 0.0,
                "transitivity": 3.0 * total / triples if triples else 0.0,
                "triangles": total,
            }
        elif group == "mixing":
            out[group] = {"assortativity": degree_assortativity(gc)}
        elif group == "core":
            cores = core_numbers(gc)
            out[group] = {"degeneracy": max(cores.values()) if cores else 0}
        else:
            max_sources = None if gc.num_nodes <= path_sample_threshold else path_samples
            paths = path_length_distribution(gc, max_sources=max_sources, seed=seed)
            out[group] = {"average_path_length": paths.mean}
    return out
