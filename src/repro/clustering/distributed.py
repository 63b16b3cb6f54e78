"""Distributed t-connectivity k-clustering (paper Algorithm 2).

The host user finds its *smallest valid t-connectivity cluster* locally
(step 1), enlarges it until Theorem 4.4's sufficient condition for
cluster-isolation holds (step 2), and finally runs the centralized
Algorithm 1 on the gathered cluster to carve out the minimum-MEW cluster
containing the host (step 3).

Step 1 is a Prim-style span: repeatedly absorb the minimum-weight frontier
edge until |C| = k.  By the minimax-path property of Prim's algorithm, the
maximum weight popped so far is then exactly the minimal connectivity t
whose t-component around the host holds >= k users.

Two readings of "the smallest valid t-connectivity cluster" exist and we
implement both (``closure`` flag):

* ``closure=False`` (default) — C is the bare Prim result of size k.
  This matches the paper's Fig. 7 walkthrough (a vertex adjacent to the
  grown cluster stays an *external border vertex* instead of being
  absorbed) and its measured communication costs (~2-3x k involved
  users); the theoretical t-component can be 50x larger near the
  percolation threshold of rank-weighted WPGs, which would contradict
  Fig. 9a.
* ``closure=True`` — C is closed under t-reachability, i.e. the full
  t-connectivity equivalence class Theorem 4.4 is stated over.  Used by
  the isolation property tests and the closure ablation benchmark.

Step 2 checks every external border vertex v: if v has no t-connectivity
cluster of size >= k in the remaining WPG, v is merged into C, t grows to
the connecting weight (re-closing when ``closure=True``), and newly
exposed border vertices join the queue.  A vertex that passes once is
never re-checked (the paper's observation: t only increases).

All traversals exclude already-assigned users (the registry), because a
user belongs to exactly one cluster forever (reciprocity).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Container, Optional

from repro import obs
from repro.errors import ClusteringError, ConfigurationError
from repro.clustering.base import ClusterRegistry, ClusterResult, InvolvementMeter
from repro.obs import names as metric
from repro.clustering.centralized import Method, centralized_k_clustering
from repro.graph.components import external_border, t_component
from repro.graph.wpg import WeightedProximityGraph

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class ClusterProposal:
    """The uncommitted outcome of one distributed clustering computation."""

    host: int
    groups: tuple[frozenset[int], ...] | list[frozenset[int]]
    involved: int
    connectivity: float

    def members(self) -> frozenset[int]:
        """Every user any of the proposal's groups would claim."""
        result: set[int] = set()
        for group in self.groups:
            result |= group
        return frozenset(result)


class DistributedClustering:
    """Answers k-clustering requests one host at a time (Algorithm 2).

    Parameters
    ----------
    graph:
        The WPG; never mutated.
    k:
        Anonymity requirement.
    registry:
        Cluster assignments shared across requests; a fresh one is created
        when omitted.  Cached hosts are answered at zero cost.
    method:
        Partition semantics for step 3 (see
        :mod:`repro.clustering.centralized`).
    """

    def __init__(
        self,
        graph: WeightedProximityGraph,
        k: int,
        registry: Optional[ClusterRegistry] = None,
        method: Method = "greedy",
        closure: bool = False,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self._graph = graph
        self._k = k
        self._registry = registry if registry is not None else ClusterRegistry()
        self._method = method
        self._closure = closure

    @property
    def registry(self) -> ClusterRegistry:
        """The shared cluster-assignment registry."""
        return self._registry

    @property
    def k(self) -> int:
        """The anonymity requirement."""
        return self._k

    def request(self, host: int) -> ClusterResult:
        """Serve one cloaking request; registers every cluster it forms."""
        cached = self._cached_result(host)
        if cached is not None:
            return cached
        return self.commit(self.propose(host))

    def _cached_result(self, host: int) -> Optional[ClusterResult]:
        if host not in self._graph:
            raise ClusteringError(f"unknown host {host}")
        cached = self._registry.cluster_of(host)
        if cached is not None:
            if obs.enabled():
                obs.inc(metric.CLUSTERING_REQUESTS)
                obs.inc(metric.CLUSTERING_CACHE_HITS)
            return ClusterResult(host, cached, involved=0, from_cache=True)
        return None

    def propose(self, host: int) -> "ClusterProposal":
        """Compute the clusters one request would form, without committing.

        The propose/commit split exists for the concurrency controller
        (Section VII): several hosts may propose against the same registry
        snapshot, and only the commit detects conflicts.
        """
        if host not in self._graph:
            raise ClusteringError(f"unknown host {host}")
        if host in self._registry:
            raise ClusteringError(f"host {host} is already clustered")
        with obs.span(metric.SPAN_PROPOSE):
            exclude = self._registry.assigned_view()
            meter = InvolvementMeter(host)
            cluster, t = self._smallest_valid_cluster(host, exclude, meter)
            cluster, t = self._enforce_isolation(cluster, t, exclude, meter)

            # Step 3: carve the minimum-MEW clusters out of the gathered set.
            partition = centralized_k_clustering(
                self._graph, self._k, method=self._method, vertices=cluster
            )
            partition.validate()
        if obs.enabled():
            obs.inc(metric.CLUSTERING_REQUESTS)
            obs.inc(metric.CLUSTERING_INVOLVED_USERS, meter.count)
        return ClusterProposal(
            host=host,
            groups=[frozenset(group) for group in partition.clusters],
            involved=meter.count,
            connectivity=t,
        )

    def commit(self, proposal: "ClusterProposal") -> ClusterResult:
        """Register a proposal's clusters; fails cleanly on any conflict.

        A conflict (some member was clustered by a concurrent request
        between propose and commit) raises :class:`ClusteringError` with
        nothing registered, so the caller can recompute and retry.
        """
        conflicted = [
            v for group in proposal.groups for v in group if v in self._registry
        ]
        if conflicted:
            raise ClusteringError(
                f"stale proposal: users {sorted(conflicted)[:5]} were "
                "clustered concurrently"
            )
        host_cluster: Optional[frozenset[int]] = None
        for group in proposal.groups:
            cluster_id = self._registry.register(group)
            if proposal.host in group:
                host_cluster = self._registry.cluster_by_id(cluster_id)
        if host_cluster is None:
            raise ClusteringError(
                f"partition of the gathered cluster lost host {proposal.host}"
            )
        return ClusterResult(
            proposal.host,
            host_cluster,
            involved=proposal.involved,
            connectivity=proposal.connectivity,
        )

    # -- step 1 ---------------------------------------------------------------

    def _smallest_valid_cluster(
        self, host: int, exclude: Container[int], meter: InvolvementMeter
    ) -> tuple[set[int], float]:
        """Prim span to size k, then closure under t-reachability."""
        cluster = {host}
        heap: list[tuple[float, int, int]] = []  # (weight, vertex, via)
        self._push_neighbors(host, cluster, exclude, heap)
        t = 0.0
        absorbed = 0
        while len(cluster) < self._k:
            popped = self._pop_new(heap, cluster)
            if popped is None:
                raise ClusteringError(
                    f"host {host}: fewer than k={self._k} reachable users remain"
                )
            weight, vertex = popped
            t = max(t, weight)
            cluster.add(vertex)
            absorbed += 1
            meter.touch(vertex)
            self._push_neighbors(vertex, cluster, exclude, heap)
        if absorbed and obs.enabled():
            # One MEW absorption per Prim pop; reported per run, not per
            # loop iteration, to keep the hot path clean.
            obs.inc(metric.CLUSTERING_MEW_ITERATIONS, absorbed)
        if self._closure:
            # Absorb everything still t-reachable (full equivalence class).
            while heap and heap[0][0] <= t:
                popped = self._pop_new(heap, cluster, limit=t)
                if popped is None:
                    break
                _weight, vertex = popped
                cluster.add(vertex)
                meter.touch(vertex)
                self._push_neighbors(vertex, cluster, exclude, heap)
        return cluster, t

    def _push_neighbors(
        self,
        vertex: int,
        cluster: set[int],
        exclude: Container[int],
        heap: list[tuple[float, int, int]],
    ) -> None:
        for neighbor, weight in self._graph.neighbor_weights(vertex):
            if neighbor not in cluster and neighbor not in exclude:
                heapq.heappush(heap, (weight, neighbor, vertex))

    @staticmethod
    def _pop_new(
        heap: list[tuple[float, int, int]],
        cluster: set[int],
        limit: float = math.inf,
    ) -> Optional[tuple[float, int]]:
        """Pop the lightest heap entry for a vertex not yet in the cluster."""
        while heap:
            if heap[0][0] > limit:
                return None
            weight, vertex, _via = heapq.heappop(heap)
            if vertex not in cluster:
                return weight, vertex
        return None

    # -- step 2 ---------------------------------------------------------------

    def _enforce_isolation(
        self,
        cluster: set[int],
        t: float,
        exclude: Container[int],
        meter: InvolvementMeter,
    ) -> tuple[set[int], float]:
        """Grow the cluster until Theorem 4.4's border condition holds."""
        queue = deque(sorted(self._border_of(cluster, exclude)))
        passed: set[int] = set()
        checks = 0
        merges = 0
        while queue:
            vertex = queue.popleft()
            if vertex in cluster or vertex in passed:
                continue
            meter.touch(vertex)
            checks += 1
            if self._has_valid_t_cluster(vertex, t, cluster, exclude, meter):
                passed.add(vertex)
                continue
            merges += 1
            # Merge the failing border vertex and re-close at the new t.
            connect_weight = min(
                weight
                for neighbor, weight in self._graph.neighbor_weights(vertex)
                if neighbor in cluster
            )
            t = max(t, connect_weight)
            before = set(cluster)
            cluster.add(vertex)
            if self._closure:
                # Re-close: span from all members at the (possibly) new t.
                cluster = t_component_multi(self._graph, cluster, t, exclude)
            meter.touch_all(cluster - before)
            queue.extend(sorted(self._border_of(cluster, exclude) - passed))
        if checks and obs.enabled():
            obs.inc(metric.CLUSTERING_ISOLATION_CHECKS, checks)
            obs.inc(metric.CLUSTERING_ISOLATION_MERGES, merges)
        return cluster, t

    def _border_of(self, cluster: set[int], exclude: Container[int]) -> set[int]:
        return {
            v
            for v in external_border(self._graph, cluster, cluster)
            if v not in exclude
        }

    def _has_valid_t_cluster(
        self,
        vertex: int,
        t: float,
        cluster: set[int],
        exclude: Container[int],
        meter: InvolvementMeter,
    ) -> bool:
        """Algorithm 2 line 11: does v reach k users at t in the remaining WPG?"""
        component = t_component(
            self._graph,
            vertex,
            t,
            exclude=_UnionContainer(cluster, exclude),
            spy=meter,
            size_limit=self._k,
        )
        return len(component) >= self._k


def t_component_multi(
    graph: WeightedProximityGraph,
    seeds: set[int],
    t: float,
    exclude: Container[int],
) -> set[int]:
    """The union of t-components of all ``seeds`` (seeds stay included)."""
    component = set(seeds)
    stack = list(seeds)
    while stack:
        vertex = stack.pop()
        for neighbor, weight in graph.neighbor_weights(vertex):
            if weight <= t and neighbor not in component and neighbor not in exclude:
                component.add(neighbor)
                stack.append(neighbor)
    return component


class _UnionContainer:
    """Membership test over the union of two containers, without copying."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: Container[int], b: Container[int]) -> None:
        self._a = a
        self._b = b

    def __contains__(self, item: int) -> bool:
        return item in self._a or item in self._b
