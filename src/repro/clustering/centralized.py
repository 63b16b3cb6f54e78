"""Centralized t-connectivity k-clustering (paper Algorithm 1).

Algorithm 1 partitions each connected component of the WPG by removing
edges in descending weight order until the component disconnects, then
recurses into the pieces, stopping when "a further partition will lead to
an invalid cluster" (size < k).  Two faithful readings exist (see
DESIGN.md, "Partition semantics of Algorithm 1"):

``strict``
    A partition step lowers the connectivity threshold t to the next
    weight level, so pieces are genuine t-connectivity clusters
    (Definition 4.1), and the step is accepted only when *every* piece is
    valid.  Matches the proofs; can freeze large components when a single
    straggler piece is invalid.

``greedy``
    Edge removals are attempted one at a time in descending (weight, key)
    order and skipped when they would create a piece smaller than k;
    passes repeat until a fixpoint.  Produces near-k clusters in practice
    and reproduces the paper's measured cluster sizes.

Both are served by one kernel, :class:`~repro.graph.cluster_tree.ClusterTree`:
the strict partition is its dendrogram cut and the greedy one refines each
cut piece with a single ordered scan over its constrained Kruskal forest.
The literal edge-removal translations live in :mod:`repro.verify.oracles`
as the differential reference; the kernel returns the same groups, and on
a connected target the same order as the dendrogram cut followed by the
literal greedy pass.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

from repro.errors import ConfigurationError
from repro.clustering.base import Partition
from repro.graph.cluster_tree import ClusterTree
from repro.graph.components import connected_components
from repro.graph.wpg import WeightedProximityGraph

Method = Literal["strict", "greedy"]


def centralized_k_clustering(
    graph: WeightedProximityGraph,
    k: int,
    method: Method = "greedy",
    vertices: Optional[Iterable[int]] = None,
) -> Partition:
    """Partition ``graph`` (or the induced subgraph on ``vertices``).

    Returns a :class:`Partition`: valid clusters of size >= k plus the
    components that simply do not contain k users.  Groups come in the
    cluster tree's order: components by ascending smallest vertex, each
    component's groups in dendrogram-cut order.

    A target with fewer than 2k users is returned as its connected
    components without building a tree — Algorithm 1's own stopping
    rule: no split of fewer than 2k users leaves two valid pieces.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if method not in ("strict", "greedy"):
        raise ConfigurationError(f"unknown method {method!r}")
    target = graph if vertices is None else graph.subgraph(vertices)
    if len(target) < 2 * k:
        groups = connected_components(target, sorted(target.vertices()))
    elif method == "strict":
        groups = ClusterTree(target).strict_partition(k)
    else:
        groups = ClusterTree(target).greedy_partition(k)
    partition = Partition(k=k)
    for group in groups:
        (partition.clusters if len(group) >= k else partition.invalid).append(group)
    return partition


def strict_partition(graph: WeightedProximityGraph, k: int) -> Partition:
    """Algorithm 1 under strict t-component semantics."""
    return centralized_k_clustering(graph, k, method="strict")


def greedy_partition(graph: WeightedProximityGraph, k: int) -> Partition:
    """Algorithm 1 under greedy edge-skip semantics (experiment default)."""
    return centralized_k_clustering(graph, k, method="greedy")
