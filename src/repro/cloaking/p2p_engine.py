"""End-to-end message-level cloaking (both phases over the wire).

:class:`~repro.cloaking.engine.CloakingEngine` runs the algorithms
analytically; this module runs the complete Fig. 3 workflow as actual
network traffic: phase 1 gathers adjacency lists by RPC
(:class:`~repro.clustering.protocol.P2PClusteringProtocol`) and phase 2
issues four directional progressive-bounding runs whose every
verification is a ``verify_bound`` round trip
(:func:`~repro.bounding.p2p.p2p_upper_bound`).

The host's device is the only process that ever sees the gathered data,
and what it sees is adjacency lists and yes/no answers — never a peer
coordinate.  Failure injection applies to both phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bounding.p2p import p2p_upper_bound, resilient_bounding_box
from repro.bounding.policies import IncrementPolicy
from repro.bounding.presets import paper_policy
from repro.clustering.base import ClusterRegistry, ClusterResult
from repro.clustering.protocol import P2PClusteringProtocol
from repro.cloaking.region import CloakedRegion
from repro.config import SimulationConfig
from repro.datasets.base import PointDataset
from repro.errors import ConfigurationError
from repro.geometry.rect import Rect
from repro.graph.wpg import WeightedProximityGraph
from repro.network.node import populate_network
from repro.network.reliability import (
    ProtocolAbort,
    ReliabilityPolicy,
    ReliableTransport,
    resolve,
)
from repro.network.simulator import PeerNetwork
from repro.obs import trace as _trace


@dataclass(frozen=True, slots=True)
class P2PCloakingResult:
    """One wire-level cloaking request's outcome and traffic."""

    host: int
    region: CloakedRegion
    cluster: ClusterResult
    clustering_messages: int
    bounding_messages: int
    messages_dropped: int
    region_from_cache: bool
    unresolved_members: frozenset[int]


class P2PCloakingSession:
    """Serves cloaking requests entirely through the peer network.

    Parameters
    ----------
    network:
        The peer network; if the devices are not yet attached, pass
        ``dataset``/``graph`` and call :func:`attach_devices` or use
        :meth:`bootstrapped`.
    graph:
        The WPG (hosts read their own adjacency from it; everyone else's
        crosses the network).
    dataset:
        Private positions, used ONLY to instantiate each user's device —
        the session logic itself never reads a peer coordinate.
    config:
        Table I parameters.
    policy_name:
        The bounding preset for phase 2 (``secure`` by default).
    retries:
        Per-call retransmission budget under lossy networks.
    """

    def __init__(
        self,
        network: PeerNetwork,
        graph: WeightedProximityGraph,
        dataset: PointDataset,
        config: SimulationConfig,
        policy_name: str = "secure",
        retries: int = 0,
        registry: Optional[ClusterRegistry] = None,
        reliability: Optional[ReliabilityPolicy] = None,
    ) -> None:
        if len(dataset) != graph.vertex_count:
            raise ConfigurationError(
                f"dataset has {len(dataset)} users but the WPG has "
                f"{graph.vertex_count} vertices"
            )
        self._network = network
        self._graph = graph
        self._dataset = dataset
        self._config = config
        self._policy_name = policy_name
        self._retries = retries
        self._reliability = resolve(reliability)
        # One transport shared by both phases: a crash detected while
        # clustering is already known when bounding starts.
        self._transport = (
            ReliableTransport(network, self._reliability)
            if self._reliability is not None
            else None
        )
        self._clustering = P2PClusteringProtocol(
            network,
            graph,
            config.k,
            registry=registry,
            retries=retries,
            reliability=self._reliability,
            transport=self._transport,
        )
        self._regions: dict[frozenset[int], CloakedRegion] = {}
        # Monotonic so region ids stay unique across invalidations.
        self._next_region_id = 0

    @classmethod
    def bootstrapped(
        cls,
        dataset: PointDataset,
        graph: WeightedProximityGraph,
        config: SimulationConfig,
        network: Optional[PeerNetwork] = None,
        **kwargs: object,
    ) -> "P2PCloakingSession":
        """Create a network, attach every user's device, build a session."""
        net = network if network is not None else PeerNetwork()
        populate_network(net, graph, list(dataset.points))
        return cls(net, graph, dataset, config, **kwargs)  # type: ignore[arg-type]

    @property
    def registry(self) -> ClusterRegistry:
        """The shared cluster-assignment registry."""
        return self._clustering.registry

    @property
    def network(self) -> PeerNetwork:
        """The peer network carrying both phases (traffic stats live here)."""
        return self._network

    @property
    def transport(self) -> Optional[ReliableTransport]:
        """The reliable transport, when a policy is enabled."""
        return self._transport

    @property
    def regions(self) -> dict[frozenset[int], CloakedRegion]:
        """The cluster -> cloaked-region cache (shared with the engine)."""
        return self._regions

    @property
    def evicted(self) -> frozenset[int]:
        """Peers evicted during clustering (reliability runs only)."""
        return self._clustering.evicted

    def request(self, host: int) -> P2PCloakingResult:
        """Serve one cloaking request over the wire, end to end.

        With a reliability policy, transport failures degrade gracefully
        (evictions, restarts) and unrecoverable ones surface as a typed
        :class:`~repro.network.reliability.ProtocolAbort`; without one,
        they propagate as raw :class:`~repro.errors.ProtocolError`\\ s,
        exactly the seed behavior.

        Runs under a trace scope of its own; when called from the
        engine's reliable path it adopts the engine's trace instead, and
        only the scope *owner* emits the request start/end events.
        """
        owner = _trace._current is None
        with _trace.request_scope():
            recorder = _trace._recorder
            if recorder is None:
                return self._request_wire(host)
            if owner:
                recorder.record(_trace.EVT_REQUEST_START, host=host)
            try:
                result = self._request_wire(host)
            except ProtocolAbort as exc:
                if owner:
                    recorder.record(
                        _trace.EVT_REQUEST_END, host=host,
                        status=f"abort:{exc.reason}",
                    )
                raise
            except Exception as exc:
                if owner:
                    recorder.record(
                        _trace.EVT_REQUEST_END, host=host,
                        status=f"error:{type(exc).__name__}",
                    )
                raise
            if owner:
                recorder.record(
                    _trace.EVT_REQUEST_END, host=host,
                    status="cache_hit" if result.region_from_cache else "ok",
                )
            return result

    def _request_wire(self, host: int) -> P2PCloakingResult:
        clustering_report = self._clustering.request(host)
        cluster = clustering_report.result
        cached = self._regions.get(cluster.members)
        recorder = _trace._recorder
        if recorder is not None:
            recorder.record(
                _trace.EVT_CACHE_HIT if cached is not None
                else _trace.EVT_CACHE_MISS,
                host=host,
            )
        if cached is not None:
            return P2PCloakingResult(
                host=host,
                region=cached,
                cluster=cluster,
                clustering_messages=clustering_report.messages_sent,
                bounding_messages=0,
                messages_dropped=clustering_report.messages_dropped,
                region_from_cache=True,
                unresolved_members=frozenset(),
            )
        if self._reliability is not None:
            return self._finish_reliable(host, cluster, clustering_report)
        region, bounding_messages, dropped, unresolved = self._bound(host, cluster)
        cloaked = CloakedRegion(
            rect=region,
            cluster_id=self._next_region_id,
            anonymity=cluster.size,
        )
        self._next_region_id += 1
        self._regions[cluster.members] = cloaked
        return P2PCloakingResult(
            host=host,
            region=cloaked,
            cluster=cluster,
            clustering_messages=clustering_report.messages_sent,
            bounding_messages=bounding_messages,
            messages_dropped=clustering_report.messages_dropped + dropped,
            region_from_cache=False,
            unresolved_members=unresolved,
        )

    def _finish_reliable(
        self,
        host: int,
        cluster: ClusterResult,
        clustering_report,  # noqa: ANN001 - ProtocolRunReport
    ) -> P2PCloakingResult:
        """Phase 2 under the reliability policy: restartable bounding.

        The cloak is built over the members that survive bounding (>= k
        guaranteed, else the helper aborts), so a member crashing between
        the two phases degrades the region, never the guarantee.
        """
        report = resilient_bounding_box(
            self._transport,
            host,
            cluster.members,
            self._dataset[host],  # the host's own private coordinate
            self._policy,
            k=self._config.k,
            max_restarts=self._reliability.max_reforms,
            clip_to=Rect.unit_square(),
        )
        cloaked = CloakedRegion(
            rect=report.region,
            cluster_id=self._next_region_id,
            anonymity=len(report.survivors),
        )
        self._next_region_id += 1
        self._regions[cluster.members] = cloaked
        return P2PCloakingResult(
            host=host,
            region=cloaked,
            cluster=cluster,
            clustering_messages=clustering_report.messages_sent,
            bounding_messages=report.messages,
            messages_dropped=clustering_report.messages_dropped
            + report.messages_dropped,
            region_from_cache=False,
            unresolved_members=report.evicted,
        )

    def _bound(
        self, host: int, cluster: ClusterResult
    ) -> tuple[Rect, int, int, frozenset[int]]:
        members = sorted(cluster.members)
        size = len(members)
        position = self._dataset[host]  # the host's own private coordinate
        directions = (
            (0, 1.0, position.x),
            (0, -1.0, -position.x),
            (1, 1.0, position.y),
            (1, -1.0, -position.y),
        )
        bounds: list[float] = []
        messages = 0
        dropped = 0
        unresolved: set[int] = set()
        for axis, sign, start in directions:
            policy = self._policy(size)
            report = p2p_upper_bound(
                self._network,
                host,
                members,
                axis=axis,
                sign=sign,
                start=start,
                policy=policy,
                retries=self._retries,
            )
            bounds.append(report.outcome.bound)
            messages += report.outcome.messages
            dropped += report.messages_dropped
            unresolved |= report.unresolved
        x_max, neg_x_min, y_max, neg_y_min = bounds
        region = Rect(-neg_x_min, x_max, -neg_y_min, y_max).clipped_to(
            Rect.unit_square()
        )
        return region, messages, dropped, frozenset(unresolved)

    def _policy(self, size: int) -> IncrementPolicy:
        return paper_policy(self._policy_name, size, self._config)

