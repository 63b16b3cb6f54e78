"""Tree-backed distributed k-clustering: Algorithm 2 by ancestor walks.

:class:`TreeClustering` serves the same requests as
``DistributedClustering(graph, k, registry, method, closure=True)`` — the
t-reachability-closure reading of Algorithm 2 — but resolves them against
a persistent :class:`~repro.graph.cluster_tree.ClusterTree` instead of
re-running Prim spans and t-component floods per request:

* **Step 1** (smallest valid t-connectivity cluster): under closure the
  gathered set is the full t-component at the minimal t whose component
  holds >= k users — exactly the lowest dendrogram ancestor of the host
  with >= k leaves (:meth:`ClusterTree.smallest_valid_node`), one
  O(depth) walk.
* **Step 2** (Theorem 4.4 isolation): a border vertex b's test "does b
  have a valid t-cluster in the remaining WPG" is ``node_at(b, t)`` has
  >= k leaves (same-level t-components are disjoint, so excluding the
  host's cluster from b's flood changes nothing).  A merge raises t to
  the connecting weight; the re-closed cluster is then just a higher
  ancestor of the host (the border edge's weight exceeds t, so t grows
  strictly and the cluster stays a t-component) — ``node_at(host, t)``.
* **Step 3**: :meth:`ClusterTree.node_partition` — the partition the
  distributed path's ``centralized_k_clustering`` call computes on a
  tree of its own, here read off the persistent tree and memoized per
  node, so repeated requests inside one component never re-run a greedy
  refinement.

The tree answers are assignment-*oblivious*: they ignore the registry
exclusions the distributed path applies everywhere.  Theorem 4.4 makes
that sound — every registered cluster was isolation-enforced, so its
removal never changes an outside resolution — but the service does not
*assume* it: the tree tracks assigned users as marked leaves, and the
moment any consulted node contains one, the request falls back to a real
:class:`DistributedClustering` pass (exclusion-aware, unconditionally
correct).  Correctness therefore never depends on the theorem; the
theorem only predicts the fallback is rare.  The ``cluster-tree-equal``
fuzz invariant cross-validates the two services record for record.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro import obs
from repro.errors import ClusteringError, ConfigurationError
from repro.clustering.base import ClusterRegistry, ClusterResult
from repro.clustering.centralized import Method
from repro.clustering.distributed import DistributedClustering
from repro.graph.cluster_tree import ClusterTree, NodeRef
from repro.graph.components import external_border
from repro.graph.incremental import ChurnPatch
from repro.graph.wpg import WeightedProximityGraph
from repro.obs import names as metric


class TreeClustering:
    """Answers k-clustering requests via a persistent cluster tree.

    Drop-in for :class:`DistributedClustering` in its ``closure=True``
    configuration: identical member sets, registered clusters,
    connectivity values and error messages (``involved`` counts measure
    the *distributed* protocol's communication cost and are reported the
    same way, but a tree walk consults the same users without messaging
    them — the fuzz invariant compares members, not meters).

    Parameters
    ----------
    graph:
        The WPG; the same live object the engine patches under churn.
    k:
        Anonymity requirement.
    registry:
        Shared assignment registry; a fresh one is created when omitted.
        Pre-assigned users are adopted as marked leaves.
    method:
        Step-3 partition semantics (:mod:`repro.clustering.centralized`).
    tree:
        An existing :class:`ClusterTree` over ``graph`` to adopt; built
        fresh when omitted.
    """

    def __init__(
        self,
        graph: WeightedProximityGraph,
        k: int,
        registry: Optional[ClusterRegistry] = None,
        method: Method = "greedy",
        tree: Optional[ClusterTree] = None,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self._graph = graph
        self._k = k
        self._registry = registry if registry is not None else ClusterRegistry()
        self._method = method
        if tree is None:
            with obs.span(metric.SPAN_TREE_BUILD):
                tree = ClusterTree(graph)
        self._tree = tree
        self._fallback = DistributedClustering(
            graph, k, self._registry, method=method, closure=True
        )
        if self._registry.assigned_count:
            self._tree.mark(self._registry.assigned_view())

    @property
    def registry(self) -> ClusterRegistry:
        """The shared cluster-assignment registry."""
        return self._registry

    @property
    def k(self) -> int:
        """The anonymity requirement."""
        return self._k

    @property
    def tree(self) -> ClusterTree:
        """The underlying cluster tree (shared, live)."""
        return self._tree

    def request(self, host: int) -> ClusterResult:
        """Serve one cloaking request; registers every cluster it forms."""
        if host not in self._graph:
            raise ClusteringError(f"unknown host {host}")
        cached = self._registry.cluster_of(host)
        if cached is not None:
            if obs.enabled():
                obs.inc(metric.CLUSTERING_REQUESTS)
                obs.inc(metric.CLUSTERING_CACHE_HITS)
            return ClusterResult(host, cached, involved=0, from_cache=True)
        result = self._fast_request(host)
        if result is None:
            result = self._fallback_request(host)
        return result

    def adopt(self, members: Iterable[int]) -> None:
        """Mark members of an externally registered cluster.

        The engine's replica-sync path (``CloakingEngine.adopt_cluster``)
        registers the cluster in the shared registry and then calls this
        hook so the tree's marked-leaf bookkeeping matches what it would
        be had this service formed the cluster itself.
        """
        self._tree.mark(members)

    def apply_churn_patch(self, patch: ChurnPatch) -> int:
        """Consume a churn patch: re-derive the disturbed component trees.

        Returns the number of component trees rebuilt.  The engine calls
        this from ``apply_moves`` right after the incremental WPG patch,
        so the tree tracks the live graph batch for batch.
        """
        with obs.span(metric.SPAN_TREE_PATCH):
            rebuilt = self._tree.apply_patch(patch)
        if rebuilt and obs.enabled():
            obs.inc(metric.CLUSTERING_TREE_REBUILDS, rebuilt)
        return rebuilt

    # -- the tree fast path ----------------------------------------------------

    def _fast_request(self, host: int) -> Optional[ClusterResult]:
        """Resolve by tree walks, or None when a marked node forces fallback."""
        tree, k = self._tree, self._k
        with obs.span(metric.SPAN_PROPOSE):
            # Step 1: the lowest ancestor with >= k leaves IS the closed
            # smallest valid cluster.  A component below k fails cleanly
            # with the distributed path's exact message (marks can only
            # shrink the reachable set further, so no fallback needed).
            node = tree.smallest_valid_node(host, k)
            if node is None:
                if obs.enabled():
                    obs.inc(metric.CLUSTERING_REQUESTS)
                raise ClusteringError(
                    f"host {host}: fewer than k={k} reachable users remain"
                )
            if tree.marked_below(node):
                return None
            grown = self._enforce_isolation_by_tree(host, node)
            if grown is None:
                return None
            cluster_node, t, involved = grown
            # Step 3: memoized partition of the gathered node.  Every
            # group is conflict-free (the node is unmarked) and k-valid.
            groups = tree.node_partition(cluster_node, k, self._method)
        host_cluster: Optional[frozenset[int]] = None
        for group in groups:
            cluster_id = self._registry.register(group)
            if host in group:
                host_cluster = self._registry.cluster_by_id(cluster_id)
        if host_cluster is None:  # pragma: no cover - partition covers the node
            raise ClusteringError(
                f"partition of the gathered cluster lost host {host}"
            )
        tree.mark(tree.leaves(cluster_node))
        if obs.enabled():
            obs.inc(metric.CLUSTERING_REQUESTS)
            obs.inc(metric.CLUSTERING_INVOLVED_USERS, involved)
            obs.inc(metric.CLUSTERING_TREE_FAST)
        return ClusterResult(
            host, host_cluster, involved=involved, connectivity=t
        )

    def _enforce_isolation_by_tree(
        self, host: int, node: NodeRef
    ) -> Optional[tuple[NodeRef, float, int]]:
        """Step 2's border loop with tree lookups for every decision.

        Mirrors ``DistributedClustering._enforce_isolation`` under
        closure: the queue, pass/merge decisions and re-closure all
        resolve through the tree.  Returns ``(cluster node, t,
        involved)`` or None when any consulted node is marked.
        ``involved`` counts the distinct non-host users the distributed
        protocol would touch: cluster members plus checked borders.
        """
        tree, k, graph = self._tree, self._k, self._graph
        t = tree.weight(node)
        members = tree.leaves(node)
        involved: set[int] = set(members)
        queue = deque(sorted(self._border_of(members)))
        passed: set[int] = set()
        checks = 0
        merges = 0
        while queue:
            vertex = queue.popleft()
            if vertex in members or vertex in passed:
                continue
            involved.add(vertex)
            checks += 1
            # Line 11: b's t-component in the remaining WPG.  Same-level
            # t-components are disjoint, so the host's cluster never
            # intersects it and the raw tree node is the exact flood —
            # unless marked leaves would have been excluded.
            border_node = tree.node_at(vertex, t)
            if tree.marked_below(border_node):
                return None
            if tree.size(border_node) >= k:
                passed.add(vertex)
                continue
            merges += 1
            # Merge and re-close: the connecting weight exceeds t (the
            # vertex was outside the t-component), so t grows strictly
            # and the re-closed cluster is node_at(host, new t).
            connect_weight = min(
                weight
                for neighbor, weight in graph.neighbor_weights(vertex)
                if neighbor in members
            )
            t = max(t, connect_weight)
            node = tree.node_at(host, t)
            if tree.marked_below(node):
                return None
            members = tree.leaves(node)
            involved.update(members)
            queue.extend(sorted(self._border_of(members) - passed))
        if checks and obs.enabled():
            obs.inc(metric.CLUSTERING_ISOLATION_CHECKS, checks)
            obs.inc(metric.CLUSTERING_ISOLATION_MERGES, merges)
        involved.discard(host)
        return node, t, len(involved)

    def _border_of(self, members: frozenset[int]) -> set[int]:
        """External border minus assigned users, as the distributed path."""
        return {
            v
            for v in external_border(self._graph, members, members)
            if v not in self._registry
        }

    # -- the exclusion-aware fallback ------------------------------------------

    def _fallback_request(self, host: int) -> ClusterResult:
        """Delegate to the real distributed path (marked node en route)."""
        if obs.enabled():
            obs.inc(metric.CLUSTERING_TREE_FALLBACKS)
        proposal = self._fallback.propose(host)
        result = self._fallback.commit(proposal)
        self._tree.mark(proposal.members())
        return result
