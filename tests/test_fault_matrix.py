"""The randomized fault-matrix invariant suite (ISSUE 3 tentpole tests).

A seeded sweep over (drop_probability x crashed-peer sets x k): every
combination must end in one of exactly two outcomes —

* a **correct** cloak: cluster of >= k members containing the host, a
  region covering the host, never undersized; or
* a **clean** :class:`~repro.network.reliability.ProtocolAbort` with a
  typed reason from the fixed vocabulary.

Hangs, undersized clusters and untyped failures are all test failures.
On top of the outcome dichotomy, every combination must *reconcile*: the
network's message counters against the failure plan's decision audit,
the obs counters against the transport's own tallies, and the devices'
disclosure ledgers against the designed one-bit-per-hypothesis leakage
(retransmissions answered from the replay cache, never recomputed).

``REPRO_FAULT_MATRIX=smoke`` shrinks the sweep for quick CI jobs; the
full matrix (the default) covers >= 50 combinations.
"""

import os

import pytest

from repro import obs
from repro.config import SimulationConfig
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.datasets import uniform_points
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.node import populate_network
from repro.network.reliability import (
    ABORT_REASONS,
    ProtocolAbort,
    ReliabilityPolicy,
)
from repro.network.simulator import PeerNetwork
from repro.obs import names as metric
from repro.obs.registry import MetricsRegistry

_SMOKE = os.environ.get("REPRO_FAULT_MATRIX", "").lower() == "smoke"

#: The hosts each combination serves; never in any crash set.
HOSTS = (3, 41)

if _SMOKE:
    DROPS = (0.0, 0.15)
    CRASH_SETS = (frozenset(), frozenset({10, 50, 90}))
    KS = (5,)
    SEEDS = (11,)
else:
    DROPS = (0.0, 0.05, 0.15, 0.30)
    CRASH_SETS = (
        frozenset(),
        frozenset({10}),
        frozenset({10, 50, 90}),
    )
    KS = (3, 5, 8)
    SEEDS = (11, 23)

MATRIX = [
    pytest.param(
        drop, crashed, k, seed,
        id=f"drop{drop}-crash{len(crashed)}-k{k}-seed{seed}",
    )
    for drop in DROPS
    for crashed in CRASH_SETS
    for k in KS
    for seed in SEEDS
]


def _policy(seed: int) -> ReliabilityPolicy:
    return ReliabilityPolicy(
        max_attempts=6, crash_after=2, max_reforms=10, seed=seed
    )


@pytest.fixture(scope="module")
def world():
    ds = uniform_points(300, seed=21)
    graph = build_wpg_fast(ds, delta=0.09, max_peers=8)
    return ds, graph


def _run_combo(world, drop, crashed, k, seed):
    """One fault-matrix cell: serve every host, collect every ledger."""
    ds, graph = world
    plan = FailurePlan(drop_probability=drop, crashed=crashed, seed=seed)
    network = PeerNetwork(plan)
    devices = populate_network(network, graph, list(ds.points))
    session = P2PCloakingSession(
        network, graph, ds, SimulationConfig(k=k),
        reliability=_policy(seed),
    )
    outcomes = []
    obs.enable(MetricsRegistry())
    try:
        for host in HOSTS:
            try:
                outcomes.append(("ok", host, session.request(host)))
            except ProtocolAbort as exc:
                outcomes.append(("abort", host, exc))
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    return plan, network, devices, session, outcomes, counters


def test_matrix_covers_fifty_combinations():
    if _SMOKE:
        pytest.skip("smoke matrix is intentionally small")
    assert len(MATRIX) >= 50


@pytest.mark.parametrize("drop,crashed,k,seed", MATRIX)
def test_fault_matrix_invariants(world, drop, crashed, k, seed):
    ds, _graph = world
    plan, network, devices, session, outcomes, counters = _run_combo(
        world, drop, crashed, k, seed
    )
    transport = session.transport
    stats = network.stats

    # --- outcome dichotomy: correct cloak or typed clean abort -----------
    aborts = 0
    for status, host, payload in outcomes:
        if status == "ok":
            result = payload
            assert result.cluster.size >= k
            assert host in result.cluster.members
            assert result.region.anonymity >= k
            assert result.region.rect.contains(ds[host])
            # Degradation never hands out an undersized cloak: the
            # region's anonymity counts bounding *survivors*.
            assert result.region.anonymity <= result.cluster.size
        else:
            aborts += 1
            exc = payload
            assert exc.reason in ABORT_REASONS
            assert exc.host == host
            # Evicted peers were either planned crashes or loss victims.
            assert exc.evicted <= set(devices)

    # --- network counters reconcile with the failure-plan audit ----------
    assert stats.dropped == plan.drop_decisions + stats.crash_dropped
    assert plan.deliveries() == stats.sent - stats.dropped
    assert stats.crash_dropped >= 0
    if drop == 0.0 and not crashed:
        assert stats.dropped == 0 and aborts == 0

    # --- obs counters reconcile with the transport and the plan ----------
    assert counters.get(metric.NETWORK_MESSAGES_SENT, 0.0) == stats.sent
    assert counters.get(metric.NETWORK_MESSAGES_DROPPED, 0.0) == stats.dropped
    assert counters.get(metric.NETWORK_DEDUP_REPLAYS, 0.0) == stats.deduped
    assert counters.get(metric.NETWORK_RETRIES, 0.0) == transport.retries
    assert counters.get(metric.PROTOCOL_ABORTS, 0.0) == aborts
    assert counters.get(metric.NETWORK_PEERS_SUSPECTED, 0.0) == len(
        transport.suspected
    )
    backoff = counters.get(metric.NETWORK_BACKOFF_SECONDS, 0.0)
    assert abs(backoff - transport.simulated_delay) < 1e-9
    assert (transport.retries == 0) == (transport.simulated_delay == 0.0)

    # --- non-exposure: disclosure never exceeds the designed leakage -----
    replies = sum(
        count
        for kind, count in stats.by_kind.items()
        if kind.endswith(":reply")
    )
    invocations = sum(
        d.adjacency_invocations + d.verify_invocations
        for d in devices.values()
    )
    # Every recorded reply is one handler computation or one replay from
    # the dedup cache — retransmissions never recompute an answer.
    assert replies == invocations + stats.deduped
    for device in devices.values():
        if device.user_id in crashed:
            # A dead device computes nothing and discloses nothing.
            assert device.adjacency_invocations == 0
            assert device.verify_invocations == 0
            assert device.questions_answered == frozenset()
        for question in device.questions_answered:
            axis, sign, _bound = question
            assert axis in (0, 1) and sign in (-1.0, 1.0)
        # One bit per distinct hypothesis: a device never answers more
        # distinct questions than it ran the verify handler.
        assert len(device.questions_answered) <= max(
            device.verify_invocations, 0
        )

    # --- degradation bookkeeping ----------------------------------------
    assert session.evicted <= set(devices)
    assert transport.suspected >= session.evicted & transport.suspected
    evictions = counters.get(metric.CLUSTERING_EVICTIONS, 0.0)
    assert evictions == 0 or session.evicted


@pytest.mark.parametrize(
    "drop,crashed,k,seed",
    [
        pytest.param(0.15, frozenset({10, 50, 90}), 5, 11, id="replay-lossy"),
        pytest.param(0.30, frozenset({10}), 8, 23, id="replay-harsh"),
    ],
)
def test_fault_matrix_is_deterministic(world, drop, crashed, k, seed):
    """The same cell replayed from scratch lands on the same outcome."""

    def signature():
        _plan, _net, _devices, _session, outcomes, _counters = _run_combo(
            world, drop, crashed, k, seed
        )
        return [
            (status, host, payload.region.rect)
            if status == "ok"
            else (status, host, payload.reason)
            for status, host, payload in outcomes
        ]

    assert signature() == signature()


def test_crashed_quorum_aborts_not_hangs(world):
    """Crash the host's whole neighbourhood: a clean below-k abort."""
    ds, graph = world
    probe = P2PCloakingSession.bootstrapped(
        ds, graph, SimulationConfig(k=5)
    )
    members = probe.request(3).cluster.members
    crashed = frozenset(members - {3})
    plan = FailurePlan(crashed=crashed)
    network = PeerNetwork(plan)
    populate_network(network, graph, list(ds.points))
    session = P2PCloakingSession(
        network, graph, ds, SimulationConfig(k=299),
        reliability=_policy(7),
    )
    with pytest.raises(ProtocolAbort) as aborted:
        session.request(3)
    assert aborted.value.reason in ABORT_REASONS
    assert session.registry.assigned_count == 0
