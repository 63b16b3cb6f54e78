"""Tests for the end-to-end message-level cloaking session."""

import pytest

from repro.cloaking.engine import CloakingEngine
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.errors import ConfigurationError, ProtocolError
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast
from repro.graph.wpg import WeightedProximityGraph
from repro.network.failures import FailurePlan
from repro.network.simulator import PeerNetwork


@pytest.fixture(scope="module")
def world():
    config = SimulationConfig(
        user_count=400, delta=0.08, max_peers=8, k=6, request_count=20
    )
    dataset = uniform_points(400, seed=41)
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    return config, dataset, graph


class TestSession:
    def test_region_covers_cluster(self, world):
        config, dataset, graph = world
        session = P2PCloakingSession.bootstrapped(dataset, graph, config)
        result = session.request(3)
        assert result.region.satisfies(config.k)
        for member in result.cluster.members:
            assert result.region.rect.contains(dataset[member])
        assert result.unresolved_members == frozenset()

    def test_matches_analytic_engine_clusters(self, world):
        config, dataset, graph = world
        session = P2PCloakingSession.bootstrapped(dataset, graph, config)
        engine = CloakingEngine(dataset, graph, config, policy="secure")
        wire = session.request(3)
        analytic = engine.request(3)
        assert wire.cluster.members == analytic.cluster.members

    def test_region_cached_for_cluster(self, world):
        config, dataset, graph = world
        session = P2PCloakingSession.bootstrapped(dataset, graph, config)
        first = session.request(3)
        member = next(iter(first.cluster.members - {3}))
        second = session.request(member)
        assert second.region_from_cache
        assert second.bounding_messages == 0
        assert second.region.rect == first.region.rect

    def test_message_accounting_positive(self, world):
        config, dataset, graph = world
        session = P2PCloakingSession.bootstrapped(dataset, graph, config)
        result = session.request(3)
        assert result.clustering_messages > 0
        assert result.bounding_messages > 0
        assert result.messages_dropped == 0

    def test_lossy_network_still_correct(self, world):
        config, dataset, graph = world
        net = PeerNetwork(FailurePlan(drop_probability=0.2, seed=77))
        session = P2PCloakingSession.bootstrapped(
            dataset, graph, config, network=net, retries=40
        )
        result = session.request(3)
        assert result.messages_dropped > 0
        for member in result.cluster.members:
            assert result.region.rect.contains(dataset[member])

    def test_crashed_peer_aborts_phase1(self, world):
        config, dataset, graph = world
        # Find who host 3 would cluster with, then crash one of them.
        probe = P2PCloakingSession.bootstrapped(dataset, graph, config)
        victim = next(iter(probe.request(3).cluster.members - {3}))
        net = PeerNetwork(FailurePlan(crashed=[victim]))
        session = P2PCloakingSession.bootstrapped(
            dataset, graph, config, network=net
        )
        with pytest.raises(ProtocolError):
            session.request(3)
        assert session.registry.assigned_count == 0

    def test_region_clipped_to_unit_square(self, world):
        config, dataset, graph = world
        session = P2PCloakingSession.bootstrapped(dataset, graph, config)
        result = session.request(3)
        assert Rect.unit_square().contains_rect(result.region.rect)

    def test_size_mismatch_rejected(self, world):
        config, dataset, _graph = world
        with pytest.raises(ConfigurationError):
            P2PCloakingSession(
                PeerNetwork(), WeightedProximityGraph(), dataset, config
            )
