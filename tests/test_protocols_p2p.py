"""Message-level protocol tests: clustering and bounding over the network."""

import pytest

from repro.bounding.p2p import p2p_upper_bound
from repro.bounding.policies import LinearPolicy
from repro.clustering.distributed import DistributedClustering
from repro.clustering.protocol import P2PClusteringProtocol
from repro.datasets import uniform_points
from repro.errors import ClusteringError, ProtocolError
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.node import populate_network
from repro.network.simulator import PeerNetwork


@pytest.fixture(scope="module")
def world():
    ds = uniform_points(300, seed=21)
    graph = build_wpg_fast(ds, delta=0.09, max_peers=8)
    return ds, graph


@pytest.fixture()
def clean_network(world):
    _ds, graph = world
    net = PeerNetwork()
    populate_network(net, graph, list(world[0].points))
    return net


class TestP2PClustering:
    def test_matches_analytic_result(self, world, clean_network):
        _ds, graph = world
        analytic = DistributedClustering(graph, 6).request(3)
        protocol = P2PClusteringProtocol(clean_network, graph, 6)
        report = protocol.request(3)
        assert report.result.members == analytic.members
        assert report.result.connectivity == analytic.connectivity

    def test_fetch_count_equals_involved(self, world, clean_network):
        _ds, graph = world
        analytic = DistributedClustering(graph, 6).request(3)
        protocol = P2PClusteringProtocol(clean_network, graph, 6)
        report = protocol.request(3)
        assert report.adjacency_fetches == analytic.involved
        # Two messages (request + reply) per fetch.
        assert report.messages_sent == 2 * report.adjacency_fetches

    def test_cached_request_sends_nothing(self, world, clean_network):
        _ds, graph = world
        protocol = P2PClusteringProtocol(clean_network, graph, 6)
        first = protocol.request(3)
        member = next(iter(first.result.members - {3}))
        again = protocol.request(member)
        assert again.result.from_cache
        assert again.messages_sent == 0

    def test_unknown_host_raises(self, world, clean_network):
        _ds, graph = world
        protocol = P2PClusteringProtocol(clean_network, graph, 6)
        with pytest.raises(ClusteringError):
            protocol.request(9999)

    def test_lossy_network_with_retries_matches(self, world):
        ds, graph = world
        net = PeerNetwork(FailurePlan(drop_probability=0.25, seed=5))
        populate_network(net, graph, list(ds.points))
        analytic = DistributedClustering(graph, 6).request(3)
        protocol = P2PClusteringProtocol(net, graph, 6, retries=30)
        report = protocol.request(3)
        assert report.result.members == analytic.members
        assert report.messages_dropped > 0

    def test_dead_peer_aborts_cleanly(self, world):
        ds, graph = world
        analytic = DistributedClustering(graph, 6).request(3)
        victim = next(iter(analytic.members - {3}))
        net = PeerNetwork(FailurePlan(crashed=[victim]))
        populate_network(net, graph, list(ds.points))
        protocol = P2PClusteringProtocol(net, graph, 6)
        with pytest.raises(ProtocolError):
            protocol.request(3)
        # Nothing half-registered.
        assert protocol.registry.assigned_count == 0


class TestP2PBounding:
    def test_bound_covers_members(self, world, clean_network):
        ds, _graph = world
        members = [3, 10, 25, 40]
        report = p2p_upper_bound(
            clean_network,
            host=3,
            members=members,
            axis=0,
            sign=1.0,
            start=ds[3].x,
            policy=LinearPolicy(0.05),
        )
        assert report.outcome.bound >= max(ds[m].x for m in members)
        assert report.unresolved == frozenset()

    def test_lower_bound_via_negation(self, world, clean_network):
        ds, _graph = world
        members = [3, 10, 25, 40]
        report = p2p_upper_bound(
            clean_network,
            host=3,
            members=members,
            axis=1,
            sign=-1.0,
            start=-ds[3].y,
            policy=LinearPolicy(0.05),
        )
        assert -report.outcome.bound <= min(ds[m].y for m in members)

    def test_messages_exclude_host_self_checks(self, world, clean_network):
        ds, _graph = world
        members = [3, 10]
        report = p2p_upper_bound(
            clean_network, 3, members, 0, 1.0, ds[3].x, LinearPolicy(0.05)
        )
        # Host verifications are local: at most one message per round for
        # the single remote member.
        assert report.outcome.messages <= report.outcome.iterations + 1

    def test_drops_are_conservative(self, world):
        ds, graph = world
        net = PeerNetwork(FailurePlan(drop_probability=0.3, seed=13))
        populate_network(net, graph, list(ds.points))
        members = [3, 10, 25, 40]
        report = p2p_upper_bound(
            net, 3, members, 0, 1.0, ds[3].x, LinearPolicy(0.03), retries=0
        )
        # Even with drops the final bound still covers everyone.
        assert report.outcome.bound >= max(ds[m].x for m in members)

    def test_crashed_member_reported_unresolved(self, world):
        ds, graph = world
        net = PeerNetwork(FailurePlan(crashed=[25]))
        populate_network(net, graph, list(ds.points))
        report = p2p_upper_bound(
            net, 3, [3, 10, 25], 0, 1.0, ds[3].x, LinearPolicy(0.05)
        )
        assert report.unresolved == frozenset({25})
        # The live members are still correctly bounded.
        assert report.outcome.bound >= max(ds[m].x for m in (3, 10))

    def test_bad_direction_rejected(self, world, clean_network):
        with pytest.raises(Exception):
            p2p_upper_bound(
                clean_network, 3, [3], 2, 1.0, 0.0, LinearPolicy(0.05)
            )

    def test_empty_members_rejected(self, world, clean_network):
        with pytest.raises(Exception):
            p2p_upper_bound(clean_network, 3, [], 0, 1.0, 0.0, LinearPolicy(0.05))
