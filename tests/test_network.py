"""Tests for the P2P network simulator, devices and failure injection."""

import pytest

from repro.datasets import uniform_points
from repro.errors import ProtocolError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.message import Message, MessageStats
from repro.network.node import UserDevice, populate_network
from repro.network.remote_graph import RemoteGraphView
from repro.network.simulator import MessageDropped, PeerCrashed, PeerNetwork


class TestMessageStats:
    def test_record_and_snapshot(self):
        stats = MessageStats()
        stats.record(Message(1, 2, "adjacency"))
        stats.record(Message(2, 1, "adjacency:reply", size=3.0))
        stats.record_drop(Message(1, 2, "adjacency"))
        snap = stats.snapshot()
        assert snap["sent"] == 2
        assert snap["dropped"] == 1
        assert snap["total_size"] == 4.0
        assert snap["kind:adjacency"] == 1

    def test_reset(self):
        stats = MessageStats()
        stats.record(Message(1, 2, "x"))
        stats.reset()
        assert stats.sent == 0
        assert not stats.by_kind


class TestPeerNetwork:
    def test_call_roundtrip(self):
        net = PeerNetwork()
        net.register(7, "echo", lambda sender, payload: (sender, payload))
        assert net.call(1, 7, "echo", "hi") == (1, "hi")
        assert net.stats.sent == 2  # request + reply

    def test_missing_handler_raises(self):
        net = PeerNetwork()
        with pytest.raises(ProtocolError):
            net.call(1, 7, "echo")

    def test_drops_exhaust_retries(self):
        net = PeerNetwork(FailurePlan(drop_probability=0.999, seed=1))
        net.register(7, "echo", lambda s, p: p)
        with pytest.raises(MessageDropped):
            net.call(1, 7, "echo", retries=3)
        assert net.stats.dropped >= 1

    def test_retries_eventually_succeed(self):
        net = PeerNetwork(FailurePlan(drop_probability=0.5, seed=2))
        net.register(7, "echo", lambda s, p: p)
        assert net.call(1, 7, "echo", "x", retries=50) == "x"

    def test_crashed_peer_raises_immediately(self):
        net = PeerNetwork(FailurePlan(crashed=[7]))
        net.register(7, "echo", lambda s, p: p)
        with pytest.raises(PeerCrashed):
            net.call(1, 7, "echo")

    def test_negative_retries_rejected(self):
        with pytest.raises(ProtocolError):
            PeerNetwork(default_retries=-1)


class TestFailurePlan:
    def test_validation(self):
        with pytest.raises(Exception):
            FailurePlan(drop_probability=1.0)

    def test_no_failures_by_default(self):
        plan = FailurePlan()
        assert not any(plan.should_drop(1, 2) for _ in range(100))

    def test_crash_extends(self):
        plan = FailurePlan().crash(5)
        assert plan.should_drop(1, 5)
        assert plan.should_drop(5, 1)
        assert not plan.should_drop(1, 2)

    def test_deterministic_replay(self):
        plan_a = FailurePlan(drop_probability=0.5, seed=9)
        plan_b = FailurePlan(drop_probability=0.5, seed=9)
        a = [plan_a.should_drop(1, 2) for _ in range(20)]
        b = [plan_b.should_drop(1, 2) for _ in range(20)]
        assert a == b
        assert any(a) and not all(a)  # actually random, not constant


class TestUserDevice:
    @pytest.fixture()
    def wired(self):
        ds = uniform_points(30, seed=6)
        graph = build_wpg_fast(ds, delta=0.4, max_peers=5)
        net = PeerNetwork()
        devices = populate_network(net, graph, list(ds.points))
        return ds, graph, net, devices

    def test_adjacency_handler(self, wired):
        _ds, graph, net, _devices = wired
        assert net.call(0, 3, "adjacency") == graph.adjacency_message(3)

    def test_verify_bound_one_bit(self, wired):
        ds, _graph, net, _devices = wired
        x = ds[3].x
        assert net.call(0, 3, "verify_bound", (0, 1.0, x + 0.01)) is True
        assert net.call(0, 3, "verify_bound", (0, 1.0, x - 0.01)) is False
        # Negated direction bounds the minimum.
        assert net.call(0, 3, "verify_bound", (0, -1.0, -(x - 0.01))) is True

    def test_verify_bound_malformed_payload(self, wired):
        _ds, _graph, net, _devices = wired
        with pytest.raises(ProtocolError):
            net.call(0, 3, "verify_bound", "nonsense")
        with pytest.raises(ProtocolError):
            net.call(0, 3, "verify_bound", (2, 1.0, 0.5))

    def test_device_ids(self):
        from repro.graph.wpg import WeightedProximityGraph

        g = WeightedProximityGraph()
        g.add_vertex(4)
        device = UserDevice(4, Point(0.1, 0.2), g)
        assert device.user_id == 4


class TestRemoteGraphView:
    @pytest.fixture()
    def wired(self):
        ds = uniform_points(40, seed=8)
        graph = build_wpg_fast(ds, delta=0.3, max_peers=5)
        net = PeerNetwork()
        populate_network(net, graph, list(ds.points))
        return graph, net

    def test_reads_match_graph(self, wired):
        graph, net = wired
        view = RemoteGraphView(net, 0, graph.adjacency_message(0))
        for v in list(graph.vertices())[:10]:
            assert dict(view.neighbor_weights(v)) == graph.adjacency_message(v)
            assert view.degree(v) == graph.degree(v)

    def test_fetch_counts_distinct_peers(self, wired):
        graph, net = wired
        view = RemoteGraphView(net, 0, graph.adjacency_message(0))
        list(view.neighbors(0))  # own adjacency: free
        assert view.fetched == 0
        list(view.neighbors(1))
        list(view.neighbors(1))  # cached
        list(view.neighbors(2))
        assert view.fetched == 2

    def test_weight_lookup(self, wired):
        graph, net = wired
        view = RemoteGraphView(net, 0, graph.adjacency_message(0))
        edge = next(graph.edges())
        assert view.weight(edge.u, edge.v) == edge.weight
