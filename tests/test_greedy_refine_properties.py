"""The Algorithm 1 kernel against the literal greedy pass, order included.

``centralized_k_clustering`` — a cluster tree's strict cut plus its
single-scan forest refinement — is pinned to
:func:`repro.verify.oracles.oracle_ordered_partition`: the dendrogram
cut, then the literal pass-until-fixpoint (re-enumerate and re-sort the
edges every pass, remove one edge at a time, plain BFS after each
removal) on every cut piece of >= 2k vertices.  Each connected component
must match group for group, in order.  The kernel lists components by
ascending smallest vertex and the dendrogram cut by root order, so
whole-graph partitions are compared after a stable sort of the groups by
their component's smallest vertex.  Bridge-rich graphs (a random
spanning tree plus chords) make most removals real keep/split decisions.
"""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.clustering.centralized import centralized_k_clustering
from repro.graph.components import connected_components
from repro.graph.wpg import WeightedProximityGraph
from repro.verify.oracles import oracle_greedy_partition, oracle_ordered_partition


def bridge_rich_graph(rng: random.Random, n: int, chords: int) -> WeightedProximityGraph:
    """A random spanning tree plus ``chords`` extra edges.

    Every tree edge not covered by a chord cycle is a bridge, so the
    greedy pass meets both non-bridges and keep/split decisions.
    """
    graph = WeightedProximityGraph()
    graph.add_vertex(0)
    for vertex in range(1, n):
        graph.add_vertex(vertex)
        graph.add_edge(vertex, rng.randrange(vertex), float(rng.randint(1, 9)))
    for _ in range(chords):
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, float(rng.randint(1, 9)))
    return graph


def by_component(graph: WeightedProximityGraph, groups) -> list[set[int]]:
    """``groups`` stable-sorted by their component's smallest vertex."""
    low: dict[int, int] = {}
    for component in connected_components(graph):
        low.update(dict.fromkeys(component, min(component)))
    return sorted((set(group) for group in groups), key=lambda g: low[min(g)])


def kernel_groups(graph: WeightedProximityGraph, k: int, method: str):
    partition = centralized_k_clustering(graph, k, method=method)  # type: ignore[arg-type]
    return list(partition.all_groups())


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 26),
    density=st.floats(0.05, 0.35),
    k=st.integers(1, 5),
)
def test_fast_refine_equals_naive_refine(seed, n, density, k):
    rng = random.Random(seed)
    graph = WeightedProximityGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.randint(1, 6)))
    kernel = kernel_groups(graph, k, "greedy")
    # The kernel's own order: clusters, then invalid pieces, each by
    # ascending smallest vertex of their component.
    ordered = by_component(graph, kernel)
    assert kernel == [g for g in ordered if len(g) >= k] + [
        g for g in ordered if len(g) < k
    ]
    assert ordered == by_component(
        graph, oracle_ordered_partition(graph, k)
    )
    literal = oracle_greedy_partition(graph, k)
    assert sorted(map(sorted, kernel)) == sorted(map(sorted, literal))


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 30),
    chords=st.integers(0, 12),
    k=st.integers(1, 5),
)
def test_kernel_equals_ordered_oracle_on_bridge_rich_graphs(seed, n, chords, k):
    graph = bridge_rich_graph(random.Random(seed), n, chords)
    for method in ("strict", "greedy"):
        assert kernel_groups(graph, k, method) == oracle_ordered_partition(
            graph, k, method
        ), method
