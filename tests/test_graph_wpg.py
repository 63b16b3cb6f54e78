"""Tests for the WPG data structure and union-find."""

import random

import pytest

from repro.errors import GraphError
from repro.graph.unionfind import UnionFind
from repro.graph.wpg import Edge, WeightedProximityGraph


class TestEdge:
    def test_make_normalises(self):
        e = Edge.make(5, 2, 1.5)
        assert (e.u, e.v) == (2, 5)

    def test_self_loop_raises(self):
        with pytest.raises(GraphError):
            Edge.make(3, 3, 1.0)

    def test_other(self):
        e = Edge.make(1, 2, 1.0)
        assert e.other(1) == 2
        assert e.other(2) == 1
        with pytest.raises(GraphError):
            e.other(9)


class TestGraphBasics:
    def test_add_edge_creates_vertices(self):
        g = WeightedProximityGraph()
        g.add_edge(1, 2, 3.0)
        assert 1 in g and 2 in g
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_weight_symmetric(self):
        g = WeightedProximityGraph()
        g.add_edge(1, 2, 3.0)
        assert g.weight(1, 2) == g.weight(2, 1) == 3.0

    def test_readd_same_weight_is_noop(self):
        g = WeightedProximityGraph()
        g.add_edge(1, 2, 3.0)
        g.add_edge(2, 1, 3.0)
        assert g.edge_count == 1

    def test_readd_different_weight_raises(self):
        g = WeightedProximityGraph()
        g.add_edge(1, 2, 3.0)
        with pytest.raises(GraphError):
            g.add_edge(1, 2, 4.0)

    def test_self_loop_raises(self):
        g = WeightedProximityGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 1.0)

    def test_remove_edge(self):
        g = WeightedProximityGraph()
        g.add_edge(1, 2, 3.0)
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.edge_count == 0
        assert 1 in g  # vertices survive

    def test_remove_missing_raises(self):
        g = WeightedProximityGraph()
        g.add_vertex(1)
        g.add_vertex(2)
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_unknown_vertex_queries_raise(self):
        g = WeightedProximityGraph()
        with pytest.raises(GraphError):
            list(g.neighbors(1))
        with pytest.raises(GraphError):
            g.degree(1)
        with pytest.raises(GraphError):
            g.weight(1, 2)

    def test_edges_reported_once(self):
        g = WeightedProximityGraph.from_edges([(1, 2, 1.0), (2, 3, 2.0)])
        keys = sorted(e.key() for e in g.edges())
        assert keys == [(1, 2), (2, 3)]

    def test_adjacency_message_is_copy(self):
        g = WeightedProximityGraph.from_edges([(1, 2, 1.0)])
        msg = g.adjacency_message(1)
        msg[99] = 5.0
        assert not g.has_edge(1, 99)
        assert g.adjacency_message(1) == {2: 1.0}

    def test_from_edges_with_isolated_vertices(self):
        g = WeightedProximityGraph.from_edges([(1, 2, 1.0)], vertices=[7])
        assert 7 in g
        assert g.degree(7) == 0

    def test_edit_edges_adds_removes_and_reweights(self):
        g = WeightedProximityGraph.from_arrays(4, [0, 1], [1, 2], [1.0, 2.0])
        g.edit_edges([(0, 1, 1.0, None), (1, 2, 2.0, 3.0), (2, 3, None, 1.0)])
        assert sorted((e.key(), e.weight) for e in g.edges()) == [
            ((1, 2), 3.0),
            ((2, 3), 1.0),
        ]
        assert g.weight(2, 1) == 3.0
        assert g.edge_count == 2

    def test_edit_edges_refuses_a_stale_view_whole(self):
        g = WeightedProximityGraph.from_edges([(1, 2, 1.0), (2, 3, 2.0)])
        for stale in ((1, 2, 2.0, 3.0), (1, 3, 1.0, None), (2, 3, None, 1.0)):
            with pytest.raises(GraphError):
                g.edit_edges([(1, 2, 1.0, None), stale])
        assert sorted((e.key(), e.weight) for e in g.edges()) == [
            ((1, 2), 1.0),
            ((2, 3), 2.0),
        ]
        assert g.edge_count == 2


class TestDerivedGraphs:
    @pytest.fixture()
    def triangle_plus(self):
        return WeightedProximityGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0)]
        )

    def test_subgraph_keeps_internal_edges_only(self, triangle_plus):
        sub = triangle_plus.subgraph([0, 1, 2])
        assert sub.edge_count == 3
        assert not sub.has_edge(2, 3)

    def test_subgraph_unknown_vertex_raises(self, triangle_plus):
        with pytest.raises(GraphError):
            triangle_plus.subgraph([0, 99])

    def test_copy_is_independent(self, triangle_plus):
        clone = triangle_plus.copy()
        clone.remove_edge(0, 1)
        assert triangle_plus.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_subgraph_unknown_ids_reported_sorted(self, triangle_plus):
        with pytest.raises(GraphError, match=r"\[5, 6, 7, 8, 9\]"):
            triangle_plus.subgraph([0, 12, 9, 5, 11, 8, 6, 7, 10])

    @pytest.mark.parametrize("lazy", [False, True], ids=["edges", "arrays"])
    def test_subgraph_matches_filtered_edge_list(self, lazy):
        """Random subsets of a random graph, built edge by edge or via
        ``from_arrays``: the induced adjacency and edge count are exactly
        the filtered edge list's, and the copy is independent."""
        rng = random.Random(17)
        n = 70
        edges = [
            (u, v, float(rng.randint(1, 6)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.08
        ]
        for _ in range(30):
            if lazy:
                us, vs, ws = zip(*edges)
                graph = WeightedProximityGraph.from_arrays(n, us, vs, ws)
            else:
                graph = WeightedProximityGraph.from_edges(edges, vertices=range(n))
            keep = set(rng.sample(range(n), rng.randint(0, n)))
            sub = graph.subgraph(keep)
            kept = [(u, v, w) for u, v, w in edges if u in keep and v in keep]
            adjacency: dict[int, dict[int, float]] = {u: {} for u in keep}
            for u, v, w in kept:
                adjacency[u][v] = w
                adjacency[v][u] = w
            assert sub.edge_count == len(kept)
            assert {u: dict(sub.neighbor_weights(u)) for u in sub.vertices()} == (
                adjacency
            )
            if kept:
                u, v, _w = kept[0]
                sub.remove_edge(u, v)
                assert graph.has_edge(u, v)


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind([1, 2, 3])
        assert not uf.connected(1, 2)
        assert uf.component_size(1) == 1

    def test_union_and_find(self):
        uf = UnionFind()
        assert uf.union(1, 2) is True
        assert uf.union(1, 2) is False
        assert uf.connected(1, 2)
        assert uf.component_size(2) == 2

    def test_transitive_union(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        uf.union(2, 3)
        assert uf.connected(1, 4)
        assert uf.component_size(1) == 4

    def test_components(self):
        uf = UnionFind([5])
        uf.union(1, 2)
        uf.union(3, 4)
        groups = sorted(sorted(g) for g in uf.components().values())
        assert groups == [[1, 2], [3, 4], [5]]

    def test_lazy_element_creation(self):
        uf = UnionFind()
        assert uf.find("a") == "a"
        assert "a" in uf

    def test_union_chain_sizes(self):
        uf = UnionFind()
        for i in range(9):
            uf.union(i, i + 1)
        assert uf.component_size(0) == 10
        assert len(uf.components()) == 1
