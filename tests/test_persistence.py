"""Tests for WPG and cluster-registry persistence."""

import pytest

from repro.clustering.base import ClusterRegistry
from repro.clustering.distributed import DistributedClustering
from repro.clustering.registry_io import load_registry, save_registry
from repro.datasets import uniform_points
from repro.errors import ClusteringError, GraphError
from repro.graph.build import build_wpg_fast
from repro.graph.io import load_wpg, save_wpg
from repro.graph.wpg import WeightedProximityGraph


class TestWPGRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        dataset = uniform_points(120, seed=5)
        graph = build_wpg_fast(dataset, delta=0.12, max_peers=6)
        path = tmp_path / "graph.csv"
        save_wpg(graph, path)
        loaded = load_wpg(path)
        assert set(loaded.vertices()) == set(graph.vertices())
        assert sorted((e.key(), e.weight) for e in loaded.edges()) == sorted(
            (e.key(), e.weight) for e in graph.edges()
        )

    def test_isolated_vertices_survive(self, tmp_path):
        graph = WeightedProximityGraph.from_edges(
            [(0, 1, 2.5)], vertices=[7, 9]
        )
        path = tmp_path / "graph.csv"
        save_wpg(graph, path)
        loaded = load_wpg(path)
        assert 7 in loaded and 9 in loaded
        assert loaded.degree(7) == 0

    def test_float_weights_exact(self, tmp_path):
        graph = WeightedProximityGraph.from_edges([(0, 1, 0.1 + 0.2)])
        path = tmp_path / "graph.csv"
        save_wpg(graph, path)
        assert load_wpg(path).weight(0, 1) == 0.1 + 0.2  # repr() roundtrip

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_wpg(tmp_path / "nope.csv")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v,weight\n0,1,2.0\n")
        with pytest.raises(GraphError):
            load_wpg(path)

    def test_malformed_edge_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# wpg v1\n# isolated:\nu,v,weight\n0,zero,1\n")
        with pytest.raises(GraphError):
            load_wpg(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(GraphError, match="empty"):
            load_wpg(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "future.csv"
        path.write_text("# wpg v2\n# isolated:\nu,v,weight\n0,1,0.5\n")
        with pytest.raises(GraphError, match="v2"):
            load_wpg(path)

    def test_missing_isolated_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# wpg v1\nu,v,weight\n0,1,0.5\n")
        with pytest.raises(GraphError):
            load_wpg(path)

    def test_malformed_column_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# wpg v1\n# isolated:\nsource,target,w\n0,1,0.5\n")
        with pytest.raises(GraphError):
            load_wpg(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "# wpg v1\n# isolated:\nu,v,weight\n0,1,0.5\n1,0,0.6\n"
        )
        with pytest.raises(GraphError, match="duplicate"):
            load_wpg(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# wpg v1\n# isolated:\nu,v,weight\n0,1,0.5\n2,3\n"
        )
        with pytest.raises(GraphError, match=":5:"):
            load_wpg(path)

    def test_clustering_identical_on_loaded_graph(self, tmp_path):
        """The acid test: algorithms behave identically on a reloaded WPG."""
        from repro.experiments.workloads import sample_hosts

        dataset = uniform_points(200, seed=8)
        graph = build_wpg_fast(dataset, delta=0.15, max_peers=6)
        host = sample_hosts(graph, 5, 1, seed=0)[0]
        path = tmp_path / "graph.csv"
        save_wpg(graph, path)
        loaded = load_wpg(path)
        a = DistributedClustering(graph, 5).request(host)
        b = DistributedClustering(loaded, 5).request(host)
        assert a.members == b.members
        assert a.involved == b.involved


class TestRegistryRoundtrip:
    def test_roundtrip_preserves_ids_and_members(self, tmp_path):
        registry = ClusterRegistry()
        registry.register({3, 1, 2})
        registry.register({9, 8})
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        loaded = load_registry(path)
        assert len(loaded) == 2
        assert loaded.cluster_by_id(0) == frozenset({1, 2, 3})
        assert loaded.cluster_of(8) == frozenset({8, 9})
        loaded.check_reciprocity()

    def test_empty_registry(self, tmp_path):
        path = tmp_path / "registry.json"
        save_registry(ClusterRegistry(), path)
        assert len(load_registry(path)) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ClusteringError):
            load_registry(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(ClusteringError):
            load_registry(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "clusters": []}')
        with pytest.raises(ClusteringError):
            load_registry(path)

    def test_resumed_session_serves_from_cache(self, tmp_path):
        """Restart semantics: a reloaded registry answers cached hosts."""
        from repro.experiments.workloads import sample_hosts

        dataset = uniform_points(200, seed=8)
        graph = build_wpg_fast(dataset, delta=0.15, max_peers=6)
        host = sample_hosts(graph, 5, 1, seed=0)[0]
        first_session = DistributedClustering(graph, 5)
        original = first_session.request(host)
        path = tmp_path / "registry.json"
        save_registry(first_session.registry, path)

        second_session = DistributedClustering(
            graph, 5, registry=load_registry(path)
        )
        resumed = second_session.request(host)
        assert resumed.from_cache
        assert resumed.members == original.members
