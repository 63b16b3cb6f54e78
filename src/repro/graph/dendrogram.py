"""Single-linkage dendrogram of a WPG (the reference form of Algorithm 1).

Algorithm 1 removes edges from a connected component in descending weight
order "until this cluster is no longer connected and is thus partitioned
into some smaller connected components".  Under Definition 4.1 the
resulting pieces must be *t-connectivity clusters*, i.e. connected
components of the subgraph keeping only edges of weight <= t — so a
partition step lowers the connectivity threshold t to the next smaller
edge weight present in the component and removes the whole weight class.
(Removing strictly one edge at a time could strand a piece that is not a
t-component for any t, breaking the equivalence-class structure that
Theorems 4.1/4.3 rely on.)

Decreasing t through the distinct weight levels of the graph traces out a
dendrogram: each node is a t-component at some level, its children the
components it splits into at the next level down.  Building it bottom-up
with Kruskal's algorithm and union-find costs O(E log E); Algorithm 1 then
becomes a top-down cut (:func:`cut_smallest_valid`).  Nodes merge
*multi-way*: all components joined by edges of one weight level become
children of a single node.

The literal translation, :func:`repro.verify.oracles.oracle_strict_partition`,
removes descending weight classes from an explicit graph copy; the test
suite verifies it computes exactly the same partition as the dendrogram
cut.  This module is the reference form: the serving kernel is
:class:`~repro.graph.cluster_tree.ClusterTree`, whose layout is pinned to
these dendrograms column for column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator, Optional

from repro.graph.unionfind import UnionFind
from repro.graph.wpg import WeightedProximityGraph


@dataclass(slots=True)
class DendrogramNode:
    """A t-component of the graph at some connectivity level.

    ``merge_weight`` is the smallest t at which this component is
    connected (0 for leaves); ``children`` are its components at the next
    level down.  ``size`` counts leaves.
    """

    merge_weight: float
    size: int
    vertex: Optional[int] = None  # set for leaves only
    children: list["DendrogramNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """True when this node is a single vertex."""
        return self.vertex is not None

    def leaves(self) -> Iterator[int]:
        """All vertex ids below this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.vertex is not None:
                yield node.vertex
            else:
                stack.extend(node.children)


def single_linkage_dendrogram(
    graph: WeightedProximityGraph,
) -> list[DendrogramNode]:
    """Build the dendrogram forest of ``graph`` (one root per component).

    Kruskal's algorithm processed one weight level at a time: all
    components connected by edges of weight w collapse into a single node
    of ``merge_weight`` w whose children are the pre-level components.
    Isolated vertices remain singleton (leaf) roots.
    """
    node_of: dict[object, DendrogramNode] = {}  # union-find root -> node
    forest = UnionFind()
    for vertex in graph.vertices():
        forest.add(vertex)
        node_of[vertex] = DendrogramNode(merge_weight=0.0, size=1, vertex=vertex)

    edges = sorted(graph.edges(), key=lambda e: (e.weight, e.key()))
    for weight, group in groupby(edges, key=lambda e: e.weight):
        created_this_level: set[int] = set()
        for edge in group:
            rep_u, rep_v = forest.find(edge.u), forest.find(edge.v)
            if rep_u == rep_v:
                continue
            node_u, node_v = node_of.pop(rep_u), node_of.pop(rep_v)
            merged = _merge_nodes(node_u, node_v, weight, created_this_level)
            forest.union(edge.u, edge.v)
            node_of[forest.find(edge.u)] = merged
    return list(node_of.values())


def _merge_nodes(
    a: DendrogramNode, b: DendrogramNode, weight: float, this_level: set[int]
) -> DendrogramNode:
    """Merge two components at ``weight``, flattening same-level nodes.

    If either side is itself a node created at this weight level, its
    children are absorbed directly so one level of the dendrogram equals
    one weight class (multi-way merge), not a chain of binary merges.
    """
    children: list[DendrogramNode] = []
    for node in (a, b):
        if id(node) in this_level:
            children.extend(node.children)
        else:
            children.append(node)
    merged = DendrogramNode(
        merge_weight=weight, size=a.size + b.size, children=children
    )
    this_level.add(id(merged))
    return merged


def cut_smallest_valid(roots: list[DendrogramNode], k: int) -> list[set[int]]:
    """Partition into smallest valid t-connectivity clusters (Algorithm 1).

    Top-down: a node splits into its children iff *every* child has at
    least ``k`` leaves ("a further partition will lead to an invalid
    cluster" stops the recursion).  Roots smaller than ``k`` are returned
    as-is — they are invalid clusters the caller must deal with (the
    paper's disconnected-component caveat, Fig. 5).
    """
    clusters: list[set[int]] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.is_leaf or any(child.size < k for child in node.children):
            clusters.append(set(node.leaves()))
        else:
            stack.extend(node.children)
    return clusters


def smallest_valid_component(
    roots: list[DendrogramNode], vertex: int, k: int
) -> Optional[set[int]]:
    """The lowest dendrogram node containing ``vertex`` with size >= k.

    This is the *per-vertex* smallest valid t-connectivity cluster,
    ignoring the partition constraint — the quantity Algorithm 2's step 1
    computes locally.  Returns ``None`` when even the root component of
    ``vertex`` is smaller than k (no valid cluster exists, Fig. 5).
    """
    for root in roots:
        if not _contains(root, vertex):
            continue
        node: Optional[DendrogramNode] = root
        best: Optional[DendrogramNode] = None
        while node is not None and node.size >= k:
            best = node
            node = next(
                (child for child in node.children if _contains(child, vertex)), None
            )
        return set(best.leaves()) if best is not None else None
    return None


def _contains(node: DendrogramNode, vertex: int) -> bool:
    return any(leaf == vertex for leaf in node.leaves())
