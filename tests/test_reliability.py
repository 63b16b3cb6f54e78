"""Unit and metamorphic tests for the fault-tolerant protocol runtime."""

import numpy as np
import pytest

from repro import obs
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.errors import ConfigurationError, ProtocolError
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.node import populate_network
from repro.network.reliability import (
    ABORT_BELOW_K,
    ABORT_REASONS,
    ProtocolAbort,
    ReliabilityPolicy,
    ReliableTransport,
    abort,
)
from repro.network.simulator import MessageDropped, PeerCrashed, PeerNetwork
from repro.obs import names as metric
from repro.obs.registry import MetricsRegistry


@pytest.fixture(scope="module")
def world():
    ds = uniform_points(300, seed=21)
    graph = build_wpg_fast(ds, delta=0.09, max_peers=8)
    return ds, graph


def _populated(world, plan=None):
    ds, graph = world
    net = PeerNetwork(plan)
    devices = populate_network(net, graph, list(ds.points))
    return net, devices


class TestReliabilityPolicy:
    def test_defaults_enabled_off_disabled(self, world):
        # A default policy turns the reliable transport on; None is the
        # one way to say off.
        ds, graph = world
        config = SimulationConfig(k=5)
        on = P2PCloakingSession.bootstrapped(
            ds, graph, config, reliability=ReliabilityPolicy()
        )
        assert on.transport is not None
        assert on.transport.policy == ReliabilityPolicy()
        off = P2PCloakingSession.bootstrapped(ds, graph, config, reliability=None)
        assert off.transport is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": 0.0},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"crash_after": 0},
            {"max_reforms": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReliabilityPolicy(**kwargs)

    def test_delay_is_capped_exponential(self):
        policy = ReliabilityPolicy(
            base_delay=0.1, backoff_factor=2.0, max_delay=0.5, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay(i, rng) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = ReliabilityPolicy(base_delay=0.1, jitter=0.2)
        first = [policy.delay(i, np.random.default_rng(3)) for i in range(4)]
        second = [policy.delay(i, np.random.default_rng(3)) for i in range(4)]
        assert first == second
        for attempt, delay in enumerate(first):
            raw = min(0.1 * 2.0**attempt, policy.max_delay)
            assert abs(delay - raw) <= 0.2 * raw


class TestFailurePlanValidation:
    def test_certain_loss_rejected_with_guidance(self):
        with pytest.raises(ConfigurationError, match="crashed"):
            FailurePlan(drop_probability=1.0)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            FailurePlan(drop_probability=p)

    def test_audit_counts_decisions_and_drops(self):
        plan = FailurePlan(drop_probability=0.5, seed=3)
        drops = sum(plan.should_drop(0, 1) for _ in range(100))
        assert plan.decisions == 100
        assert plan.drop_decisions == drops
        assert plan.deliveries() == 100 - drops

    def test_derived_crash_plan_shares_audit(self):
        plan = FailurePlan(drop_probability=0.5, seed=3)
        plan.should_drop(0, 1)
        derived = plan.crash(7)
        derived.should_drop(0, 7)  # crashed: always a drop
        assert plan.decisions == derived.decisions == 2
        assert derived.drop_decisions >= 1
        assert 7 in derived.crashed and 7 not in plan.crashed


class _AlwaysDrop(FailurePlan):
    """Every message is lost — the link the validation forbids modeling
    with drop_probability=1.0, available to tests via subclassing."""

    def should_drop(self, sender, recipient):
        self._audit.decisions += 1
        self._audit.dropped += 1
        return True


class _DropNth(FailurePlan):
    """Drops exactly the nth loss decision (1-based), delivers the rest."""

    def __init__(self, nth):
        super().__init__()
        self._nth = nth

    def should_drop(self, sender, recipient):
        self._audit.decisions += 1
        if self._audit.decisions == self._nth:
            self._audit.dropped += 1
            return True
        return False


class TestReliableTransport:
    def test_retries_until_success_under_loss(self, world):
        net, _devices = _populated(
            world, FailurePlan(drop_probability=0.5, seed=9)
        )
        transport = ReliableTransport(
            net, ReliabilityPolicy(max_attempts=32, seed=9)
        )
        result = transport.call(3, 10, "verify_bound", (0, 1.0, 2.0))
        assert result is True  # every coordinate is below 2.0
        assert transport.retries > 0
        assert transport.simulated_delay > 0.0
        assert transport.suspected == frozenset()

    def test_retries_param_accepted_for_surface_compat(self, world):
        net, _devices = _populated(world)
        transport = ReliableTransport(net, ReliabilityPolicy())
        assert transport.call(3, 10, "adjacency", retries=99) == dict(
            net._handlers[10]["adjacency"](3, None)
        )
        assert transport.knows(10) and not transport.knows(9999)

    def test_suspicion_after_consecutive_exhausted_budgets(self, world):
        net, devices = _populated(world, _AlwaysDrop())
        transport = ReliableTransport(
            net, ReliabilityPolicy(max_attempts=2, crash_after=2)
        )
        with pytest.raises(MessageDropped) as dropped:
            transport.call(3, 10, "adjacency")
        assert dropped.value.peer == 10
        with pytest.raises(PeerCrashed) as crashed:
            transport.call(3, 10, "adjacency")
        assert crashed.value.peer == 10
        assert transport.suspected == frozenset({10})
        # Fail-fast: a suspected peer costs no further messages.
        sent_before = net.stats.sent
        with pytest.raises(PeerCrashed):
            transport.call(3, 10, "adjacency")
        assert net.stats.sent == sent_before
        assert devices[10].adjacency_invocations == 0

    def test_success_resets_consecutive_failures(self, world):
        net, _devices = _populated(world, FailurePlan(drop_probability=0.5, seed=2))
        transport = ReliableTransport(
            net, ReliabilityPolicy(max_attempts=64, crash_after=1, seed=2)
        )
        for _ in range(10):
            transport.call(3, 10, "verify_bound", (0, 1.0, 2.0))
        assert transport.suspected == frozenset()

    def test_crashed_peer_is_suspected_immediately(self, world):
        net, _devices = _populated(world, FailurePlan(crashed=[10]))
        transport = ReliableTransport(net, ReliabilityPolicy())
        with pytest.raises(PeerCrashed) as crashed:
            transport.call(3, 10, "adjacency")
        assert crashed.value.peer == 10
        assert transport.suspected == frozenset({10})

    def test_lost_reply_is_deduplicated_not_recomputed(self, world):
        # Decision 1 is the request leg, decision 2 the response leg:
        # dropping exactly the reply forces a retransmission the
        # recipient must answer from its replay cache.
        net, devices = _populated(world, _DropNth(2))
        transport = ReliableTransport(net, ReliabilityPolicy(max_attempts=4))
        result = transport.call(3, 10, "verify_bound", (0, 1.0, 2.0))
        assert result is True
        assert net.stats.deduped == 1
        assert devices[10].verify_invocations == 1
        assert devices[10].questions_answered == {(0, 1.0, 2.0)}

    def test_distinct_calls_are_not_deduplicated(self, world):
        net, devices = _populated(world)
        transport = ReliableTransport(net, ReliabilityPolicy())
        transport.call(3, 10, "verify_bound", (0, 1.0, 2.0))
        transport.call(3, 10, "verify_bound", (0, 1.0, 2.0))
        assert net.stats.deduped == 0
        assert devices[10].verify_invocations == 2


class TestProtocolAbort:
    def test_fields_and_typing(self):
        exc = ProtocolAbort(
            ABORT_BELOW_K, "only 2 survive", host=3, evicted={7, 9}
        )
        assert isinstance(exc, ProtocolError)
        assert exc.reason == ABORT_BELOW_K
        assert exc.host == 3
        assert exc.evicted == frozenset({7, 9})
        assert "below_k" in str(exc) and "only 2 survive" in str(exc)

    def test_unknown_reason_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolAbort("out_of_coffee", "detail")

    def test_factory_counts_through_obs(self):
        obs.enable(MetricsRegistry())
        try:
            exc = abort(ABORT_BELOW_K, "detail")
            assert isinstance(exc, ProtocolAbort)
            counters = obs.snapshot()["counters"]
            assert counters[metric.PROTOCOL_ABORTS] == 1.0
        finally:
            obs.disable()

    def test_reason_vocabulary_is_closed(self):
        assert ABORT_REASONS == {
            "below_k",
            "host_failed",
            "message_loss",
            "reform_budget_exhausted",
            "no_convergence",
        }


class TestMetamorphic:
    """The two defining equivalences of the runtime (ISSUE satellites)."""

    def test_enabled_policy_clean_network_matches_seed_session(self, world):
        ds, graph = world
        config = SimulationConfig(k=5)
        seed = P2PCloakingSession.bootstrapped(ds, graph, config)
        reliable = P2PCloakingSession.bootstrapped(
            ds, graph, config, reliability=ReliabilityPolicy(seed=1)
        )
        for host in (3, 17, 42):
            a = seed.request(host)
            b = reliable.request(host)
            assert a.cluster.members == b.cluster.members
            assert a.region.rect == b.region.rect
        assert reliable.transport.retries == 0
        assert reliable.evicted == frozenset()

    def test_unbounded_retries_recover_the_failure_free_cloak(self, world):
        # Failures + enough retries that no budget is ever exhausted (so
        # no evictions) must converge to the exact failure-free result:
        # dedup keeps every logical answer identical however often the
        # network forces a resend.
        ds, graph = world
        config = SimulationConfig(k=5)
        clean = P2PCloakingSession.bootstrapped(
            ds, graph, config, reliability=ReliabilityPolicy(seed=4)
        )
        lossy_net = PeerNetwork(FailurePlan(drop_probability=0.08, seed=4))
        lossy = P2PCloakingSession.bootstrapped(
            ds, graph, config, network=lossy_net,
            reliability=ReliabilityPolicy(
                max_attempts=64, crash_after=10**6, seed=4
            ),
        )
        for host in (3, 17, 42):
            a = clean.request(host)
            b = lossy.request(host)
            assert a.cluster.members == b.cluster.members
            assert a.region.rect == b.region.rect
        assert lossy.transport.retries > 0
        assert lossy.evicted == frozenset()
        assert lossy.transport.suspected == frozenset()


class TestEngineWiring:
    """Fault-tolerant cloaking is served by the message-level engine,
    :class:`P2PCloakingSession` (``repro.cloaking.p2p_engine``)."""

    def test_reliable_engine_serves_and_caches(self, world):
        ds, graph = world
        config = SimulationConfig(k=5)
        session = P2PCloakingSession.bootstrapped(
            ds, graph, config,
            network=PeerNetwork(FailurePlan(drop_probability=0.05, seed=2)),
            reliability=ReliabilityPolicy(seed=2),
        )
        first = session.request(3)
        assert first.region.satisfies(config.k)
        member = next(iter(first.cluster.members - {3}))
        again = session.request(member)
        assert again.region_from_cache
        assert again.region.rect == first.region.rect
        assert len(session.regions) == 1

    def test_below_k_aborts_cleanly_with_empty_registry(self, world):
        ds, graph = world
        config = SimulationConfig(k=301)  # unsatisfiable over 300 users
        session = P2PCloakingSession.bootstrapped(
            ds, graph, config, reliability=ReliabilityPolicy(seed=2)
        )
        with pytest.raises(ProtocolAbort) as aborted:
            session.request(3)
        assert aborted.value.reason in ABORT_REASONS
        assert session.registry.assigned_count == 0
