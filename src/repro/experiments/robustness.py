"""Robustness to noisy proximity measurements (beyond the paper's figures).

The paper's algorithms consume RSS *rankings* and its experiments use a
noise-free inverse-distance RSS model; real devices observe shadowed,
fading signals (its own Fig. 1 is genuinely noisy).  This experiment
quantifies what that costs: build the WPG under log-distance path loss
with increasing shadowing sigma, serve the same workload, and measure
how communication cost and cloaked size degrade relative to the
noise-free rankings.

Noise perturbs the rank order of near-equidistant peers; since the
clustering only needs *mutually close* groups, moderate shadowing should
(and does) leave the results largely intact — the concrete evidence
behind the paper's "robust under various proximity topologies" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.reporting import format_series
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.experiments.harness import (
    ClusteringWorkloadResult,
    ExperimentSetup,
    default_request_count,
    run_clustering_workload,
)
from repro.experiments.workloads import sample_hosts
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.node import populate_network
from repro.network.reliability import ProtocolAbort, ReliabilityPolicy
from repro.network.simulator import PeerNetwork
from repro.radio.rss import LogDistanceRSSModel

DEFAULT_SIGMAS: tuple[float, ...] = (0.0, 2.0, 4.0, 8.0)

DEFAULT_DROP_RATES: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10)


@dataclass(frozen=True, slots=True)
class RobustnessResult:
    """Workload metrics per shadowing level."""

    sigmas: tuple[float, ...]
    workloads: tuple[ClusteringWorkloadResult, ...]

    def series(self) -> dict[str, list[float]]:
        """The named metric series of this result."""
        return {
            "avg comm cost": [w.avg_comm_cost for w in self.workloads],
            "avg cloaked size": [w.avg_cloaked_area for w in self.workloads],
            "failures": [float(w.failures) for w in self.workloads],
        }

    def format(self) -> str:
        """Render the result as the benchmark-report text."""
        return format_series(
            "shadowing sigma (dB)",
            list(self.sigmas),
            self.series(),
            title="Robustness: distributed t-Conn under noisy RSS rankings",
        )


def run_robustness(
    setup: Optional[ExperimentSetup] = None,
    sigmas: Sequence[float] = DEFAULT_SIGMAS,
    requests: Optional[int] = None,
    seed: int = 29,
) -> RobustnessResult:
    """Serve the same workload under increasing RSS shadowing."""
    setup = setup if setup is not None else ExperimentSetup.paper_default()
    request_count = requests if requests is not None else default_request_count()
    config = setup.base_config.with_overrides(request_count=request_count)
    workloads: list[ClusteringWorkloadResult] = []
    for sigma in sigmas:
        graph = build_wpg_fast(
            setup.dataset,
            config.delta,
            config.max_peers,
            model=LogDistanceRSSModel(shadowing_sigma_db=sigma, seed=seed),
        )
        hosts = sample_hosts(graph, config.k, request_count, seed=seed)
        workloads.append(
            run_clustering_workload(setup, "t-conn", config, hosts, graph=graph)
        )
    return RobustnessResult(sigmas=tuple(sigmas), workloads=tuple(workloads))


@dataclass(frozen=True, slots=True)
class MessageLossResult:
    """Fault-tolerant runtime metrics per message-loss level.

    Every tuple is indexed by ``drop_rates``; ``requests`` is the
    per-level workload size.  ``avg_messages`` counts every transmitted
    leg (retransmissions included) per served request — its growth over
    the zero-loss column is the runtime's retry overhead.
    """

    drop_rates: tuple[float, ...]
    requests: int
    avg_messages: tuple[float, ...]
    retries_per_request: tuple[float, ...]
    abort_rates: tuple[float, ...]
    evictions: tuple[int, ...]
    messages_dropped: tuple[int, ...]

    def series(self) -> dict[str, list[float]]:
        """The named metric series of this result."""
        return {
            "avg messages": list(self.avg_messages),
            "retries per request": list(self.retries_per_request),
            "abort rate": list(self.abort_rates),
            "evictions": [float(e) for e in self.evictions],
        }

    def format(self) -> str:
        """Render the result as the benchmark-report text."""
        return format_series(
            "message drop probability",
            list(self.drop_rates),
            self.series(),
            title="Robustness: fault-tolerant runtime under message loss",
        )

    def to_json(self, users: int, k: int, seed: int) -> dict:
        """The BENCH-style JSON payload for this result."""
        return {
            "schema": "bench_message_loss/v1",
            "users": users,
            "k": k,
            "seed": seed,
            "requests": self.requests,
            "rates": [
                {
                    "drop_probability": rate,
                    "avg_messages": round(self.avg_messages[i], 2),
                    "retries_per_request": round(self.retries_per_request[i], 2),
                    "abort_rate": round(self.abort_rates[i], 4),
                    "evictions": self.evictions[i],
                    "messages_dropped": self.messages_dropped[i],
                }
                for i, rate in enumerate(self.drop_rates)
            ],
        }


def run_message_loss(
    drop_rates: Sequence[float] = DEFAULT_DROP_RATES,
    users: int = 300,
    requests: int = 40,
    k: int = 5,
    seed: int = 17,
) -> MessageLossResult:
    """Serve the same workload while the network loses more messages.

    Each loss level gets a fresh peer network with a seeded
    :class:`FailurePlan` and a fresh session under the default
    :class:`ReliabilityPolicy`, so the columns differ only in the
    injected loss.  The world is deliberately small: every adjacency
    fetch and bound verification is a simulated RPC, so this measures
    protocol overhead, not throughput.
    """
    dataset = uniform_points(users, seed=seed)
    config = SimulationConfig(k=k)
    graph = build_wpg_fast(dataset, delta=0.09, max_peers=8)
    hosts = sample_hosts(graph, k, requests, seed=seed)
    avg_messages: list[float] = []
    retries_per_request: list[float] = []
    abort_rates: list[float] = []
    evictions: list[int] = []
    dropped: list[int] = []
    for rate in drop_rates:
        network = PeerNetwork(FailurePlan(drop_probability=rate, seed=seed))
        populate_network(network, graph, list(dataset.points))
        session = P2PCloakingSession(
            network,
            graph,
            dataset,
            config,
            reliability=ReliabilityPolicy(
                max_attempts=6, crash_after=3, max_reforms=10, seed=seed
            ),
        )
        aborted = 0
        for host in hosts:
            try:
                session.request(host)
            except ProtocolAbort:
                aborted += 1
        avg_messages.append(network.stats.sent / len(hosts))
        retries_per_request.append(session.transport.retries / len(hosts))
        abort_rates.append(aborted / len(hosts))
        evictions.append(len(session.evicted))
        dropped.append(network.stats.dropped)
    return MessageLossResult(
        drop_rates=tuple(drop_rates),
        requests=len(hosts),
        avg_messages=tuple(avg_messages),
        retries_per_request=tuple(retries_per_request),
        abort_rates=tuple(abort_rates),
        evictions=tuple(evictions),
        messages_dropped=tuple(dropped),
    )


if __name__ == "__main__":
    print(run_robustness().format())
    print(run_message_loss().format())
