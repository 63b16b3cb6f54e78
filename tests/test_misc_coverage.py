"""Focused tests for corners the broader suites pass over."""

import pytest

from repro.errors import (
    BoundingError,
    ClusteringError,
    ConfigurationError,
    DatasetError,
    GraphError,
    ProtocolError,
    ReproError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            BoundingError,
            ClusteringError,
            ConfigurationError,
            DatasetError,
            GraphError,
            ProtocolError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")


class TestPublicAPI:
    def test_package_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__


class TestRegularGraphSwaps:
    def test_swapped_graph_stays_regular(self):
        from repro.graph.generators import random_regular_graph

        for seed in (0, 1, 2):
            graph = random_regular_graph(14, 4, seed=seed)
            assert all(graph.degree(v) == 4 for v in graph.vertices())
            assert graph.edge_count == 14 * 4 // 2

    def test_different_seeds_differ(self):
        from repro.graph.generators import random_regular_graph

        a = random_regular_graph(20, 4, seed=1)
        b = random_regular_graph(20, 4, seed=2)
        assert {e.key() for e in a.edges()} != {e.key() for e in b.edges()}

    def test_odd_degree_even_vertices(self):
        from repro.graph.generators import random_regular_graph

        graph = random_regular_graph(10, 3, seed=4)
        assert all(graph.degree(v) == 3 for v in graph.vertices())

    def test_degree_zero(self):
        from repro.graph.generators import random_regular_graph

        graph = random_regular_graph(5, 0, seed=0)
        assert graph.edge_count == 0


class TestNetworkSizes:
    def test_response_size_accounted(self):
        from repro.network.simulator import PeerNetwork

        net = PeerNetwork()
        net.register(2, "blob", lambda s, p: "data")
        net.call(1, 2, "blob", response_size=500.0)
        # 1 request (size 1) + 1 response (size 500).
        assert net.stats.total_size == 501.0

    def test_stats_by_kind_separates_replies(self):
        from repro.network.simulator import PeerNetwork

        net = PeerNetwork()
        net.register(2, "ping", lambda s, p: "pong")
        net.call(1, 2, "ping")
        assert net.stats.by_kind["ping"] == 1
        assert net.stats.by_kind["ping:reply"] == 1


class TestHarnessCache:
    def test_shared_setup_is_cached(self):
        from repro.experiments.harness import shared_setup

        assert shared_setup(users=1200, requests=10) is shared_setup(
            users=1200, requests=10
        )

    def test_full_scale_delta_unchanged(self):
        from repro.experiments.harness import ExperimentSetup

        setup = ExperimentSetup.paper_default(users=104_770, requests=10)
        assert setup.base_config.delta == pytest.approx(2e-3)


class TestMaterializingView:
    def test_subgraph_served_locally(self):
        """Step 3's subgraph call must not issue network traffic."""
        from repro.clustering.protocol import _MaterializingView
        from repro.datasets import uniform_points
        from repro.graph.build import build_wpg_fast
        from repro.network.node import populate_network
        from repro.network.remote_graph import RemoteGraphView
        from repro.network.simulator import PeerNetwork

        dataset = uniform_points(60, seed=2)
        graph = build_wpg_fast(dataset, delta=0.3, max_peers=5)
        net = PeerNetwork()
        populate_network(net, graph, list(dataset.points))
        view = _MaterializingView(
            RemoteGraphView(net, 0, graph.adjacency_message(0)), graph
        )
        sent_before = net.stats.sent
        sub = view.subgraph([0, 1, 2])
        assert net.stats.sent == sent_before
        assert sub.vertex_count == 3
