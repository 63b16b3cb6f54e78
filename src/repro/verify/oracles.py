"""Exact from-definition oracles for the WPG, clustering and bounding layers.

Every function here re-derives a quantity the optimized pipeline computes
— but straight from the paper's definitions, sharing *no* code with the
implementation under test:

* :func:`oracle_bounding_box` — direct coordinate min/max scan (no
  :meth:`Rect.from_points`);
* :func:`oracle_smallest_cluster` — Definition 4.1 level scan: ascending
  distinct edge weights, plain BFS per level, first t whose component
  reaches k (the dendrogram computes the same thing via single linkage);
* :func:`bottleneck_connectivity` — Kruskal-style union scan for the
  minimum bottleneck value connecting a subset;
* :func:`oracle_min_mew_clusters` — brute-force enumeration of every
  subset containing the host (the minimum-MEW k-cluster problem solved
  by exhaustion, exact for components up to :data:`ORACLE_MAX_VERTICES`);
* :func:`oracle_isolation_violations` — Property 4.1 checked vertex by
  vertex with the level-scan rule before/after cluster removal;
* :func:`oracle_tree_columns` / :func:`oracle_kruskal_forest` — the
  cluster tree's exact layout, by a preorder walk of
  :func:`~repro.graph.dendrogram.single_linkage_dendrogram` and a
  sequential constrained Kruskal scan over ``Edge`` objects;
* :func:`oracle_strict_partition` / :func:`oracle_greedy_partition` —
  Algorithm 1 as its prose reads: edge removal on an explicit graph
  copy, connectivity by plain BFS after every removal;
  :func:`oracle_ordered_partition` fixes the group order the cluster
  tree must reproduce (dendrogram cut, then the literal greedy pass on
  every piece of >= 2k users);
* :func:`oracle_build_wpg` — Section VI's WPG recipe as a per-user loop:
  one :meth:`~repro.spatial.grid.GridIndex.query_radius` call and one
  :meth:`~repro.radio.measurement.ProximityMeter.rank_peers` sort per
  user, then the mutual-rank minimum edge by edge.  Both reused pieces
  are scalar and pinned on their own (the grid against a brute-force
  scan, the meter against distance order); the batch kernel it checks,
  :func:`~repro.graph.build.directed_picks`, is never called.

The subset enumeration is exponential by design — it is only *correct*,
never fast.  Asking it about a component larger than
:data:`ORACLE_MAX_VERTICES` raises :class:`VerificationError` instead of
silently taking minutes.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Container, Iterable, Optional, Sequence

from repro.datasets.base import PointDataset
from repro.errors import VerificationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.graph.dendrogram import cut_smallest_valid, single_linkage_dendrogram
from repro.graph.unionfind import UnionFind
from repro.graph.wpg import Edge, WeightedProximityGraph
from repro.radio.measurement import ProximityMeter
from repro.radio.rss import RSSModel
from repro.spatial.grid import GridIndex

#: Hard cap on the component size the exponential oracles accept.  2^12
#: subsets with a Kruskal scan each stays well under a second.
ORACLE_MAX_VERTICES = 12

_EMPTY: frozenset[int] = frozenset()


def oracle_bounding_box(points: Sequence[Point]) -> Rect:
    """The exact bounding box, computed by a direct coordinate scan."""
    if not points:
        raise VerificationError("cannot box an empty point set")
    x_min = x_max = points[0].x
    y_min = y_max = points[0].y
    for p in points[1:]:
        if p.x < x_min:
            x_min = p.x
        if p.x > x_max:
            x_max = p.x
        if p.y < y_min:
            y_min = p.y
        if p.y > y_max:
            y_max = p.y
    return Rect(x_min, x_max, y_min, y_max)


def oracle_build_wpg(
    dataset: PointDataset,
    delta: float,
    max_peers: int,
    model: Optional[RSSModel] = None,
) -> WeightedProximityGraph:
    """The WPG of ``dataset``, one user at a time (Section VI as it reads).

    Each user keeps its ``max_peers`` closest peers within ``delta``,
    ranked by ``model`` (default ideal RSS) with ties by id; an edge
    weighs the smaller of its two ranks, or the one rank when only one
    side picked.  A stateful ``model`` is read user by user, each user's
    candidates in ``query_radius`` order — the order the build's kernel
    must reproduce.
    """
    grid = GridIndex(dataset.points, cell_size=delta)
    meter = ProximityMeter(dataset, model)
    graph = WeightedProximityGraph()
    peer_lists: list[list[int]] = []
    for user in range(len(dataset)):
        graph.add_vertex(user)
        nearby = [
            peer for peer in grid.query_radius(dataset[user], delta) if peer != user
        ]
        peer_lists.append(meter.rank_peers(user, nearby)[:max_peers])
    rank_of = [
        {peer: rank for rank, peer in enumerate(peers, start=1)}
        for peers in peer_lists
    ]
    for user, peers in enumerate(peer_lists):
        for rank, peer in enumerate(peers, start=1):
            if graph.has_edge(user, peer):
                continue
            back_rank = rank_of[peer].get(user)
            weight = rank if back_rank is None else min(rank, back_rank)
            graph.add_edge(user, peer, float(weight))
    return graph


def _level_component(
    graph: WeightedProximityGraph,
    start: int,
    t: float,
    exclude: Container[int] = _EMPTY,
) -> set[int]:
    """Plain BFS over edges of weight <= t (Definition 4.1, verbatim)."""
    component = {start}
    queue: deque[int] = deque([start])
    while queue:
        vertex = queue.popleft()
        for neighbor, weight in graph.neighbor_weights(vertex):
            if weight <= t and neighbor not in component and neighbor not in exclude:
                component.add(neighbor)
                queue.append(neighbor)
    return component


def oracle_smallest_cluster(
    graph: WeightedProximityGraph,
    host: int,
    k: int,
    exclude: Container[int] = _EMPTY,
) -> Optional[tuple[frozenset[int], float]]:
    """The smallest valid t-connectivity cluster of ``host``, by level scan.

    Walks the distinct edge weights in ascending order and returns the
    first t-component of ``host`` with at least ``k`` vertices, together
    with that t.  Returns ``None`` when even the full component (t = max
    weight) stays below k — the paper's Fig. 5 failure case.
    """
    if host not in graph:
        raise VerificationError(f"unknown host {host}")
    if host in exclude:
        raise VerificationError(f"host {host} is excluded")
    if k <= 1:
        return frozenset({host}), 0.0
    previous_size = 1
    for t in sorted({edge.weight for edge in graph.edges()}):
        component = _level_component(graph, host, t, exclude=exclude)
        if len(component) < previous_size:
            raise VerificationError(
                f"t-component of {host} shrank as t grew to {t}"
            )
        previous_size = len(component)
        if len(component) >= k:
            return frozenset(component), t
    return None


def bottleneck_connectivity(
    graph: WeightedProximityGraph, subset: Iterable[int]
) -> Optional[float]:
    """The minimum t at which ``subset`` is mutually t-connected *within itself*.

    Kruskal scan over the induced subgraph's edges in ascending weight
    order: the answer is the weight of the edge whose addition first puts
    all of ``subset`` in one component.  ``None`` when the induced
    subgraph never connects (paths through outside vertices don't count —
    this is the bottleneck of the subset as a standalone cluster).
    """
    members = sorted(set(subset))
    if not members:
        raise VerificationError("cannot measure an empty subset")
    if len(members) == 1:
        return 0.0
    keep = set(members)
    internal = sorted(
        (edge.weight, edge.u, edge.v)
        for edge in graph.edges()
        if edge.u in keep and edge.v in keep
    )
    parent = {v: v for v in members}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    remaining = len(members) - 1
    for weight, u, v in internal:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            remaining -= 1
            if remaining == 0:
                return weight
    return None


def oracle_min_mew_clusters(
    graph: WeightedProximityGraph, host: int, k: int
) -> Optional[tuple[float, tuple[frozenset[int], ...]]]:
    """Brute-force the minimum-MEW k-cluster problem around ``host``.

    Enumerates every subset of the host's connected component that
    contains the host and has at least ``k`` vertices, measures each
    subset's bottleneck connectivity, and returns the minimum value with
    *every* subset achieving it.  Exact by exhaustion; raises
    :class:`VerificationError` for components larger than
    :data:`ORACLE_MAX_VERTICES`, returns ``None`` when the component is
    smaller than k (no valid cluster exists).

    By the minimax-path property this minimum equals the level-scan t of
    :func:`oracle_smallest_cluster`, and every minimizer is a subset of
    the level-scan cluster — the cross-checks the oracle test suite runs.
    """
    if k < 1:
        raise VerificationError(f"k must be >= 1, got {k}")
    component = sorted(_level_component(graph, host, float("inf")))
    if len(component) > ORACLE_MAX_VERTICES:
        raise VerificationError(
            f"component of {host} has {len(component)} vertices; the "
            f"subset oracle is exact only up to {ORACLE_MAX_VERTICES}"
        )
    if len(component) < k:
        return None
    others = [v for v in component if v != host]
    best: Optional[float] = None
    minimizers: list[frozenset[int]] = []
    for extra in range(k - 1, len(others) + 1):
        for chosen in combinations(others, extra):
            subset = frozenset((host, *chosen))
            value = bottleneck_connectivity(graph, subset)
            if value is None:
                continue
            if best is None or value < best:
                best = value
                minimizers = [subset]
            elif value == best:
                minimizers.append(subset)
    if best is None:
        return None
    return best, tuple(minimizers)


def oracle_isolation_violations(
    graph: WeightedProximityGraph,
    cluster: Iterable[int],
    k: int,
) -> list[int]:
    """Property 4.1 from the definition: vertices whose cluster changes.

    For every vertex outside ``cluster``, compares its smallest valid
    t-connectivity cluster (level scan) computed on the full graph with
    the one computed after removing ``cluster``.  Returns the violating
    vertices ("changes" includes becoming impossible — Fig. 5's vertex g).
    An empty list means ``cluster`` is isolated.
    """
    removed = frozenset(cluster)
    violations: list[int] = []
    for vertex in sorted(graph.vertices()):
        if vertex in removed:
            continue
        before = oracle_smallest_cluster(graph, vertex, k)
        after = oracle_smallest_cluster(graph, vertex, k, exclude=removed)
        before_set = None if before is None else before[0]
        after_set = None if after is None else after[0]
        if before_set != after_set:
            violations.append(vertex)
    return violations


def oracle_tree_columns(
    graph: WeightedProximityGraph,
) -> list[tuple[list[int], list[float], list[int], list[int], list[int]]]:
    """``(parent, weight, size, leaf_lo, leaf_order)`` per dendrogram root.

    The preorder layout :meth:`ClusterTree.component_columns` must
    reproduce, child order included: a stack walk of each
    :func:`single_linkage_dendrogram` root that visits children in list
    order, numbering nodes as they are popped.
    """
    columns = []
    for root in single_linkage_dendrogram(graph):
        parent: list[int] = []
        weight: list[float] = []
        size: list[int] = []
        leaf_lo: list[int] = []
        leaf_order: list[int] = []
        stack = [(root, -1)]
        while stack:
            node, par = stack.pop()
            index = len(parent)
            parent.append(par)
            weight.append(node.merge_weight)
            size.append(node.size)
            leaf_lo.append(len(leaf_order))
            if node.vertex is not None:
                leaf_order.append(node.vertex)
            else:
                stack.extend((child, index) for child in reversed(node.children))
        columns.append((parent, weight, size, leaf_lo, leaf_order))
    return columns


def oracle_kruskal_forest(
    graph: WeightedProximityGraph,
) -> dict[int, list[tuple[int, float]]]:
    """The constrained Kruskal forest as per-vertex adjacency lists.

    Edges scanned ascending by weight, descending ``(u, v)`` key, each
    accepted when it joins two sets and appended to both endpoints'
    lists in acceptance order.
    """
    adjacency: dict[int, list[tuple[int, float]]] = {
        vertex: [] for vertex in graph.vertices()
    }
    forest = UnionFind(graph.vertices())
    for edge in sorted(graph.edges(), key=lambda e: (e.weight, -e.u, -e.v)):
        if forest.union(edge.u, edge.v):
            adjacency[edge.u].append((edge.v, edge.weight))
            adjacency[edge.v].append((edge.u, edge.weight))
    return adjacency


# -- Algorithm 1, literally ----------------------------------------------------


def _components(graph: WeightedProximityGraph) -> list[set[int]]:
    """Connected components by plain BFS, in vertex iteration order."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for vertex in graph.vertices():
        if vertex not in seen:
            component = _level_component(graph, vertex, math.inf)
            seen |= component
            components.append(component)
    return components


def _induced(
    graph: WeightedProximityGraph, vertices: Iterable[int]
) -> WeightedProximityGraph:
    """A private, mutable copy of the subgraph induced by ``vertices``."""
    keep = set(vertices)
    copy = WeightedProximityGraph()
    for u in keep:
        copy.add_vertex(u)
        for v, weight in graph.neighbor_weights(u):
            if v in keep and u < v:
                copy.add_edge(u, v, weight)
    return copy


def oracle_strict_partition(
    graph: WeightedProximityGraph, k: int
) -> list[set[int]]:
    """Algorithm 1 under strict semantics: recursive weight-class removal.

    Each component of at least 2k vertices loses its heaviest remaining
    weight class until it disconnects; the split is kept only when every
    piece has >= k vertices, and the pieces recurse.  Groups come in
    work-list order (compare as sets).
    """
    result: list[set[int]] = []
    work = _components(graph)
    while work:
        component = work.pop()
        pieces = _strict_split_once(graph, component, k)
        if pieces is None:
            result.append(component)
        else:
            work.extend(pieces)
    return result


def _strict_split_once(
    graph: WeightedProximityGraph, component: set[int], k: int
) -> Optional[list[set[int]]]:
    """One strict partition step, or None when the component is final."""
    if len(component) < 2 * k:
        return None  # cannot split into two valid pieces
    sub = _induced(graph, component)
    levels = sorted({edge.weight for edge in sub.edges()}, reverse=True)
    for level in levels:
        for edge in [e for e in sub.edges() if e.weight == level]:
            sub.remove_edge(edge.u, edge.v)
        pieces = _components(sub)
        if len(pieces) > 1:
            if all(len(piece) >= k for piece in pieces):
                return pieces
            return None  # a further partition leads to an invalid cluster
    return None  # edgeless without ever disconnecting: single vertex


def oracle_greedy_partition(
    graph: WeightedProximityGraph, k: int
) -> list[set[int]]:
    """Algorithm 1 under greedy semantics: one edge at a time, to a fixpoint.

    Every pass re-enumerates a component's edges in descending
    ``(weight, key)`` order and removes each in turn.  A removal that
    leaves the endpoints connected stands; one that disconnects is kept
    only if both sides hold >= k vertices, and the sides then recurse
    (far side first).  Passes repeat while any edge was removed.
    """
    sub = _induced(graph, graph.vertices())
    result: list[set[int]] = []
    work = _components(sub)
    while work:
        component = work.pop()
        split = (
            None
            if len(component) < 2 * k
            else _literal_greedy_split(sub, component, k)
        )
        if split is None:
            result.append(component)
        else:
            work.extend(split)
    return result


def _literal_greedy_split(
    sub: WeightedProximityGraph, component: set[int], k: int
) -> Optional[list[set[int]]]:
    """Removal passes over ``component`` until a valid split or a fixpoint."""
    while True:
        removed_any = False
        edges = sorted(
            (
                Edge(u, v, w)
                for u in component
                for v, w in sub.neighbor_weights(u)
                if u < v
            ),
            key=lambda e: (-e.weight, e.key()),
        )
        for edge in edges:
            sub.remove_edge(edge.u, edge.v)
            side = _side_after_removal(sub, edge.u, edge.v)
            if side is None:
                removed_any = True  # still connected; removal stands
                continue
            other = component - side
            if len(side) >= k and len(other) >= k:
                return [side, other]
            sub.add_edge(edge.u, edge.v, edge.weight)  # invalid split: skip
        if not removed_any:
            return None


def _side_after_removal(
    sub: WeightedProximityGraph, u: int, v: int
) -> Optional[set[int]]:
    """BFS from ``u``: None once ``v`` is reached, else u's whole side."""
    seen = {u}
    queue: deque[int] = deque([u])
    while queue:
        vertex = queue.popleft()
        for neighbor in sub.neighbors(vertex):
            if neighbor == v:
                return None
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def oracle_ordered_partition(
    graph: WeightedProximityGraph, k: int, method: str = "greedy"
) -> list[set[int]]:
    """Algorithm 1 in the group order the cluster tree must reproduce.

    The strict partition is the dendrogram cut
    (:func:`~repro.graph.dendrogram.cut_smallest_valid` over
    :func:`single_linkage_dendrogram`); under greedy semantics every cut
    piece of >= 2k vertices is replaced by
    :func:`oracle_greedy_partition` of that piece.  On a connected graph
    this is the order of ``centralized_k_clustering``; a disconnected
    graph's components come in dendrogram-root order here and in
    ascending smallest-vertex order there, each component's groups
    contiguous and identically ordered in both.
    """
    groups: list[set[int]] = []
    for piece in cut_smallest_valid(single_linkage_dendrogram(graph), k):
        if method == "strict" or len(piece) < 2 * k:
            groups.append(piece)
        else:
            groups.extend(oracle_greedy_partition(_induced(graph, piece), k))
    return groups
