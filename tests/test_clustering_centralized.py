"""Tests for centralized t-connectivity k-clustering (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.centralized import (
    centralized_k_clustering,
    greedy_partition,
    strict_partition,
)
from repro.errors import ConfigurationError
from repro.graph.generators import random_weighted_graph, small_world_graph
from repro.graph.wpg import WeightedProximityGraph
from repro.verify.oracles import oracle_greedy_partition, oracle_strict_partition


def canonical(groups):
    """Order-free partition form (never sort sets: subset partial order)."""
    return sorted(tuple(sorted(group)) for group in groups)


class TestHandExamples:
    def test_two_blobs_strict_k4(self, two_blobs_graph):
        partition = strict_partition(two_blobs_graph, 4)
        partition.validate()
        assert sorted(sorted(c) for c in partition.clusters) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]

    def test_two_blobs_strict_k5(self, two_blobs_graph):
        """Splitting at the bridge would create two 4-clusters < k: frozen."""
        partition = strict_partition(two_blobs_graph, 5)
        assert partition.clusters == [set(range(8))]

    def test_two_blobs_greedy_k4(self, two_blobs_graph):
        partition = greedy_partition(two_blobs_graph, 4)
        partition.validate()
        assert sorted(sorted(c) for c in partition.clusters) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]

    def test_fig6_style_recursion(self):
        """The Fig. 6 narrative: remove heavy bridges, recurse into pieces.

        Two pairs joined at weight 4, joined to another two pairs across
        a weight-8 bridge.  2-clustering must find the four pairs.
        """
        g = WeightedProximityGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(1, 2, 4.0)
        g.add_edge(4, 5, 1.0)
        g.add_edge(6, 7, 1.0)
        g.add_edge(5, 6, 4.0)
        g.add_edge(3, 4, 8.0)
        for method in ("strict", "greedy"):
            partition = centralized_k_clustering(g, 2, method=method)
            partition.validate()
            assert sorted(sorted(c) for c in partition.clusters) == [
                [0, 1], [2, 3], [4, 5], [6, 7],
            ]

    def test_invalid_components_reported(self):
        g = WeightedProximityGraph.from_edges([(0, 1, 1.0)], vertices=[2])
        partition = centralized_k_clustering(g, 2, method="greedy")
        assert partition.clusters == [{0, 1}]
        assert partition.invalid == [{2}]

    def test_greedy_splits_where_strict_freezes(self):
        """A straggler blocks strict but not greedy.

        A 5-clique at weight 1 plus a pendant vertex at weight 2, bridged
        (weight 2) to another 4-clique.  With k = 4, strict cannot remove
        the weight-2 class (the pendant would be stranded); greedy skips
        only the pendant's edge and still separates the cliques.
        """
        g = WeightedProximityGraph()
        clique_a = [0, 1, 2, 3, 4]
        for i in clique_a:
            for j in clique_a:
                if i < j:
                    g.add_edge(i, j, 1.0)
        clique_b = [6, 7, 8, 9]
        for i in clique_b:
            for j in clique_b:
                if i < j:
                    g.add_edge(i, j, 1.0)
        g.add_edge(4, 5, 2.0)   # pendant vertex 5
        g.add_edge(0, 6, 2.0)   # bridge between cliques
        strict = strict_partition(g, 4)
        greedy = greedy_partition(g, 4)
        assert strict.clusters == [set(range(10))]
        assert sorted(len(c) for c in greedy.clusters) == [4, 6]

    def test_k_validation(self, two_blobs_graph):
        with pytest.raises(ConfigurationError):
            centralized_k_clustering(two_blobs_graph, 0)

    def test_unknown_method(self, two_blobs_graph):
        with pytest.raises(ConfigurationError):
            centralized_k_clustering(two_blobs_graph, 2, method="magic")  # type: ignore[arg-type]

    def test_vertices_restriction(self, two_blobs_graph):
        partition = centralized_k_clustering(
            two_blobs_graph, 2, vertices=[0, 1, 2, 3]
        )
        assert partition.covered == 4


class TestNaiveVsFast:
    """The cluster-tree kernel against the literal Algorithm 1 oracles."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 400), k=st.integers(2, 5))
    def test_strict_naive_equals_dendrogram(self, seed, k):
        graph = random_weighted_graph(16, edge_probability=0.25, seed=seed)
        fast = strict_partition(graph, k)
        naive = oracle_strict_partition(graph, k)
        assert canonical(fast.clusters) == canonical(
            group for group in naive if len(group) >= k
        )
        assert canonical(fast.invalid) == canonical(
            group for group in naive if len(group) < k
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300), k=st.integers(2, 4))
    def test_greedy_naive_equals_fast(self, seed, k):
        graph = small_world_graph(24, base_degree=4, rewire_probability=0.3, seed=seed)
        fast = greedy_partition(graph, k)
        naive = oracle_greedy_partition(graph, k)
        assert canonical(fast.all_groups()) == canonical(naive)


class TestUnderTwoK:
    """A target of fewer than 2k users comes back as its components."""

    def test_disconnected_target_keeps_components_in_vertex_order(self):
        g = WeightedProximityGraph.from_edges(
            [(9, 3, 1.0), (3, 7, 2.0), (8, 1, 1.0), (5, 6, 4.0)],
            vertices=[4, 0],
        )
        for method in ("strict", "greedy"):
            partition = centralized_k_clustering(g, 5, method=method)
            assert partition.clusters == []
            assert partition.invalid == [{0}, {1, 8}, {3, 7, 9}, {4}, {5, 6}]
            restricted = centralized_k_clustering(
                g, 3, method=method, vertices=[9, 8, 7, 5, 3]
            )
            assert restricted.clusters == [{3, 7, 9}]
            assert restricted.invalid == [{5}, {8}]

    @staticmethod
    def _chain_of_cliques(k: int) -> WeightedProximityGraph:
        """Two k-cliques (weight 1) joined by one weight-5 bridge."""
        g = WeightedProximityGraph()
        for base in (0, k):
            for i in range(base, base + k):
                for j in range(i + 1, base + k):
                    g.add_edge(i, j, 1.0)
        g.add_edge(k - 1, k, 5.0)
        return g

    def test_two_k_target_splits_into_halves(self):
        k = 3
        g = self._chain_of_cliques(k)
        for method in ("strict", "greedy"):
            partition = centralized_k_clustering(g, k, method=method)
            assert canonical(partition.clusters) == [(0, 1, 2), (3, 4, 5)]
            assert partition.invalid == []

    def test_one_user_short_comes_back_whole(self):
        k = 3
        g = self._chain_of_cliques(k)
        rest = set(range(1, 2 * k))
        for method in ("strict", "greedy"):
            partition = centralized_k_clustering(g, k, method=method, vertices=rest)
            assert partition.clusters == [rest]
            assert partition.invalid == []


class TestPartitionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 500),
        k=st.integers(2, 6),
        method=st.sampled_from(["strict", "greedy"]),
    )
    def test_property_valid_partition(self, seed, k, method):
        """Both semantics always return a valid, complete partition."""
        graph = random_weighted_graph(22, edge_probability=0.18, seed=seed)
        partition = centralized_k_clustering(graph, k, method=method)
        partition.validate()
        assert partition.covered == graph.vertex_count

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300), k=st.integers(2, 4))
    def test_property_greedy_refines_strict(self, seed, k):
        """Every greedy cluster lies inside some strict cluster.

        Greedy accepts every strict split and then keeps going, so its
        partition is a refinement.
        """
        graph = small_world_graph(26, base_degree=4, rewire_probability=0.2, seed=seed)
        strict = strict_partition(graph, k)
        greedy = greedy_partition(graph, k)
        strict_groups = list(strict.all_groups())
        for cluster in greedy.all_groups():
            assert any(cluster <= outer for outer in strict_groups)

    def test_greedy_does_not_mutate_input(self, two_blobs_graph):
        before = sorted((e.key(), e.weight) for e in two_blobs_graph.edges())
        greedy_partition(two_blobs_graph, 4)
        after = sorted((e.key(), e.weight) for e in two_blobs_graph.edges())
        assert before == after
