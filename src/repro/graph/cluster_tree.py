"""Persistent bottleneck cluster tree over the WPG.

The single-linkage dendrogram (:mod:`repro.graph.dendrogram`) answers
every t-connectivity question Algorithms 1/2 ask — but as built it is a
throwaway object: pointer-chasing nodes without parent links, traversed
from the root for every query and rebuilt from scratch per request.
:class:`ClusterTree` is the persistent, query-oriented form:

* one array-backed tree per connected component (parent/weight/size per
  node, children in visit order, leaves as a contiguous slice of a
  DFS-ordered vertex array), so a vertex's ancestor path is an O(depth)
  walk — and depth is bounded by the number of distinct weight levels,
  which mutual-rank WPG weights cap at ``max_peers``;
* per-vertex *minimum-MEW k-cluster* lookup
  (:meth:`smallest_valid_cluster`): the lowest ancestor with >= k
  leaves.  By the minimax-path property this is exactly the level-scan
  cluster of :func:`repro.verify.oracles.oracle_smallest_cluster` and
  the set Algorithm 2's step 1 gathers under t-reachability closure;
* memoized strict/greedy partitions (Algorithm 1) and per-node step-3
  partitions, computed natively on the tree: a strict cut below a node
  is a subtree descent (the node is a t-component, so its subtree *is*
  the dendrogram of its induced subgraph), and the greedy refinement
  runs over the persistent *constrained Kruskal forest* instead of the
  full induced subgraph — reverse-delete discards every non-forest edge
  as a non-bridge before making any keep/split decision, so restricting
  the pass to the forest is decision-for-decision identical (see
  :meth:`node_partition`).  This is the repo's only Algorithm 1
  implementation: ``centralized_k_clustering`` builds a tree over its
  target and returns these partitions.  They are bit-identical — same
  groups, same order within each component — to
  :func:`repro.verify.oracles.oracle_ordered_partition`, the dendrogram
  cut followed by the literal greedy pass, and equal as sets to the
  literal edge-removal oracles (``tests/test_cluster_tree.py``,
  ``tests/test_greedy_refine_properties.py`` and the
  ``cluster-tree-equal`` fuzz invariant);
* exact Property 4.1 *isolation bits* (:meth:`is_isolated`): a
  >=k-node C is isolated iff at every proper ancestor all off-path
  sibling subtrees have >= k leaves — then no outside vertex resolves
  through an ancestor of C, so removing C changes nobody's smallest
  valid cluster (cross-validated against
  :func:`~repro.verify.oracles.oracle_isolation_violations`);
* *marked leaves* bookkeeping (:meth:`mark` / :meth:`marked_below`):
  callers flag assigned users so a lookup can prove, in O(1) per node,
  that a resolved cluster is untouched by registry exclusions and the
  assignment-oblivious tree answer is exact.

**The builder** is array-native: the tree keeps the graph's edges as
int64 ``(u, v)`` keys (ascending) with float64 weights, and one numpy
pass derives every component tree of a vertex scope from them.

1. Edges are grouped by weight level in ``(weight, key)`` order — the
   scan order of :func:`~repro.graph.dendrogram.single_linkage_dendrogram`.
2. Per level, the edges joining two pre-level components are contracted
   by Borůvka rounds (:func:`_spanning_forest`: hook every component to
   its earliest edge, shortcut by pointer jumping).  With edges ranked by
   key the spanning forest is unique, so it is exactly the set of edges
   the Kruskal scan merges on; the contraction gives the level's
   component labels, and every label that absorbed two or more
   pre-level components is a dendrogram node of that weight.
3. The child order of ``single_linkage_dendrogram`` — each merge
   appends the v-side's children to the u-side's — is replayed over the
   merging edges alone (:func:`_concatenation_order`, the only per-edge
   Python loop: a linked-list union-find).
4. The same Borůvka contraction ranked by *descending* key yields the
   level's slice of the constrained Kruskal forest.
5. Subtree sizes, sibling offsets and preorder indices are prefix sums
   per level (:func:`_tree_columns`), and the columns are sliced into
   one :class:`_ComponentTree` per component, with marked counters as
   prefix sums over leaf order.

No dendrogram node objects, edge objects or subgraph copies are made.
The result equals ``single_linkage_dendrogram`` column for column,
child order included (pinned by ``tests/test_cluster_tree.py`` against
:func:`repro.verify.oracles.oracle_tree_columns`).

**Churn** (:meth:`apply_patch`): the edge columns are patched from the
patch's changed edges, with the new weights read off the live graph,
and exactly the old components incident to a changed edge are rebuilt.
No other component can be affected: an unchanged edge joined two
vertices of one old component, and a changed edge has both endpoints in
rebuilt components, so the rebuild scope is closed under edges.  Every
untouched component tree, with all its memos, survives.  After the call
the tree is bit-identical to a fresh build over the patched graph — the
``cluster-tree-equal`` fuzz invariant checks exactly that.

The tree is *eager*: :meth:`apply_patch` lays every rebuilt component
out in full, so requests never pay for construction.  A labels-only
tree that lays nodes out on demand would make patches cheaper still,
but the request that first reaches a large node would then build it —
about 0.4 s for a 40k-user component of a 50k-user WPG.

Node handles are ``(component id, node index)`` pairs; they are
invalidated for rebuilt components by :meth:`apply_patch` (their
component id disappears), never silently reused.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graph.unionfind import UnionFind
from repro.graph.wpg import WeightedProximityGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.incremental import ChurnPatch

#: A node handle: (component id, node index within that component's tree).
NodeRef = tuple[int, int]


def _is_cut(
    x: int, y: int, parent: dict[int, int], tops: set[int]
) -> bool:
    """Whether tree edge (x, y) has been cut (its child endpoint is a top)."""
    return (parent[y] == x and y in tops) or (parent[x] == y and x in tops)


# -- the array-native builder ----------------------------------------------------


def _pointer_jump(succ: np.ndarray) -> np.ndarray:
    """Every element's root under ``succ`` (roots point to themselves)."""
    while True:
        hop = succ[succ]
        if np.array_equal(hop, succ):
            return succ
        succ = hop


def _spanning_forest(
    x: np.ndarray, y: np.ndarray, labels: int
) -> tuple[np.ndarray, np.ndarray]:
    """The edges a Kruskal scan in array order accepts, by Borůvka rounds.

    ``x``/``y`` are endpoint labels in ``0..labels-1``, never equal.
    Ranking edges by position makes every rank distinct, so the minimum
    spanning forest is unique and is exactly the set the sequential scan
    accepts.  Each round adds every component's earliest incident edge
    and contracts along them (two components that picked each other
    picked the same edge; the smaller label becomes the root), at least
    halving the components that still have edges.  Returns the accepted
    mask and each label's representative after contraction.
    """
    count = len(x)
    accepted = np.zeros(count, dtype=bool)
    rep = np.arange(labels)
    edge = np.arange(count)
    while edge.size:
        first = np.full(labels, count)
        np.minimum.at(first, x, edge)
        np.minimum.at(first, y, edge)
        comps = np.flatnonzero(first < count)
        picked = first[comps]
        accepted[picked] = True
        at = np.searchsorted(edge, picked)
        succ = np.arange(labels)
        succ[comps] = np.where(x[at] == comps, y[at], x[at])
        mutual = (succ[succ[comps]] == comps) & (comps < succ[comps])
        succ[comps[mutual]] = comps[mutual]
        succ = _pointer_jump(succ)
        rep = succ[rep]
        x, y = succ[x], succ[y]
        live = x != y
        edge, x, y = edge[live], x[live], y[live]
    return accepted, rep


def _concatenation_order(
    us: np.ndarray, vs: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Replay ``single_linkage_dendrogram``'s child-list concatenations.

    ``us``/``vs`` are one level's merging edges in key order, as compact
    ids ``0..count-1`` of the pre-level components they join.  Every
    merge appends the v-side's child list to the u-side's; linked lists
    under a union-find replay that in one pass over the merging edges.
    The u-side's root always stays the root, so a set's root is the head
    of its list.  Returns each component's merged set (its root id) and
    its distance from the end of that set's child list.
    """
    parent = list(range(count))
    tail = list(range(count))
    after = [-1] * count
    for p, q in zip(us.tolist(), vs.tolist()):
        while parent[p] != p:  # find, with path halving
            parent[p] = p = parent[parent[p]]
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        after[tail[p]] = q
        tail[p] = tail[q]
        parent[q] = p
    nxt = np.array(after)
    dist = (nxt >= 0).astype(np.int64)
    more = np.flatnonzero(nxt >= 0)
    while more.size:  # list ranking by pointer jumping
        dist[more] += dist[nxt[more]]
        nxt[more] = nxt[nxt[more]]
        more = more[nxt[more] >= 0]
    return _pointer_jump(np.array(parent)), dist


def _exclusive_offsets(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-group exclusive prefix sums of ``values`` (groups begin at
    ``starts``, contiguous)."""
    sums = np.cumsum(values) - values
    lengths = np.diff(np.append(starts, len(values)))
    return sums - np.repeat(sums[starts], lengths)


def _tree_columns(
    m: int, a: np.ndarray, b: np.ndarray, w: np.ndarray
) -> dict[str, np.ndarray]:
    """Preorder columns of the dendrogram forest of an edge-column graph.

    Vertices are ``0..m-1``; ``a < b`` are edge endpoints sorted by the
    ``(a, b)`` key, ``w`` their weights.  Node ids: leaves are the
    vertices, internal nodes follow in creation order (so a child's id
    is always below its parent's).  Returns, over all nodes in global
    preorder (components contiguous, ordered by smallest vertex):
    ``parent`` (component-local, -1 at roots), ``weight``, ``size`` and
    ``leaf_lo`` (component-local) plus the global ``leaf_at``; over leaf
    positions, ``leaf_vertex`` and its component-local ``leaf_node``;
    per component, ``node_start``/``node_count`` and
    ``leaf_start``/``leaf_count``; and ``forest``, the constrained
    Kruskal forest's edge indices in acceptance order.
    """
    levels, level_of = np.unique(w, return_inverse=True)
    order = np.argsort(level_of, kind="stable")
    bounds = np.searchsorted(level_of[order], np.arange(len(levels) + 1))
    capacity = max(2 * m - 1, 0)
    parent = np.full(capacity, -1, dtype=np.int64)
    weight = np.zeros(capacity)
    leaves = np.ones(capacity, dtype=np.int64)
    nodes = np.ones(capacity, dtype=np.int64)
    leaf_off = np.zeros(capacity, dtype=np.int64)
    node_off = np.zeros(capacity, dtype=np.int64)
    label = np.arange(m)  # pre-level component label of every vertex
    node_of = np.arange(m)  # label -> the node of its component
    created = m
    merged_levels: list[np.ndarray] = []
    forest: list[np.ndarray] = []
    for level in range(len(levels)):
        edges = order[bounds[level] : bounds[level + 1]]
        x, y = label[a[edges]], label[b[edges]]
        cross = x != y
        edges, x, y = edges[cross], x[cross], y[cross]
        if not edges.size:
            continue
        merging, rep = _spanning_forest(x, y, m)
        kept, _ = _spanning_forest(x[::-1], y[::-1], m)
        forest.append(edges[::-1][kept])
        mx, my = x[merging], y[merging]
        comps, compact = np.unique(np.concatenate((mx, my)), return_inverse=True)
        root, dist = _concatenation_order(
            compact[: len(mx)], compact[len(mx) :], len(comps)
        )
        seq = np.lexsort((-dist, root))
        children = node_of[comps[seq]]
        starts = np.flatnonzero(np.diff(root[seq], prepend=-1))
        new = np.arange(created, created + len(starts))
        created += len(starts)
        parent[children] = np.repeat(new, np.diff(np.append(starts, len(seq))))
        leaf_off[children] = _exclusive_offsets(leaves[children], starts)
        node_off[children] = _exclusive_offsets(nodes[children], starts)
        leaves[new] = np.add.reduceat(leaves[children], starts)
        nodes[new] = np.add.reduceat(nodes[children], starts) + 1
        weight[new] = levels[level]
        node_of[rep[comps[seq[starts]]]] = new
        label = rep[label]
        merged_levels.append(children)
    finals, smallest = np.unique(label, return_index=True)
    roots = node_of[finals[np.argsort(smallest)]]

    # Top-down: preorder index and first leaf position of every node.
    pre = np.zeros(created, dtype=np.int64)
    lo = np.zeros(created, dtype=np.int64)
    pre[roots] = np.cumsum(nodes[roots]) - nodes[roots]
    lo[roots] = np.cumsum(leaves[roots]) - leaves[roots]
    for children in reversed(merged_levels):
        pre[children] = pre[parent[children]] + 1 + node_off[children]
        lo[children] = lo[parent[children]] + leaf_off[children]
    at = np.empty(created, dtype=np.int64)
    at[pre] = np.arange(created)
    node_start, node_count = pre[roots], nodes[roots]
    leaf_start, leaf_count = lo[roots], leaves[roots]
    node_base = np.repeat(node_start, node_count)
    par = parent[at]
    local_parent = np.where(par >= 0, pre[np.maximum(par, 0)] - node_base, -1)
    leaf_vertex = np.empty(m, dtype=np.int64)
    leaf_vertex[lo[:m]] = np.arange(m)
    return {
        "parent": local_parent,
        "weight": weight[at],
        "size": leaves[at],
        "leaf_at": lo[at],
        "leaf_lo": lo[at] - np.repeat(leaf_start, node_count),
        "leaf_vertex": leaf_vertex,
        "leaf_node": pre[leaf_vertex] - np.repeat(node_start, leaf_count),
        "node_start": node_start,
        "node_count": node_count,
        "leaf_start": leaf_start,
        "leaf_count": leaf_count,
        "forest": (
            np.concatenate(forest) if forest else np.zeros(0, dtype=np.int64)
        ),
    }


class _ComponentTree:
    """The array form of one component's dendrogram (internal).

    Nodes are stored in DFS preorder, so every node's leaves occupy the
    contiguous slice ``leaf_order[leaf_lo[i]:leaf_hi[i]]``.  Parent
    weights strictly increase along every root path (the dendrogram's
    level flattening), which the ancestor walks rely on.
    """

    __slots__ = (
        "parent",
        "weight",
        "size",
        "children",
        "leaf_lo",
        "leaf_hi",
        "leaf_order",
        "leaf_node",
        "marked_below",
        "cut_memo",
        "anc_ok_memo",
        "partition_memo",
        "refine_memo",
    )

    @classmethod
    def _from_arrays(
        cls,
        parent: list[int],
        weight: list[float],
        size: list[int],
        leaf_lo: list[int],
        leaf_order: list[int],
        leaf_nodes: list[int],
        marked_below: list[int],
    ) -> "_ComponentTree":
        """A component tree from its preorder columns (adopted, not copied).

        ``leaf_nodes[j]`` is the node index of ``leaf_order[j]``.  The
        rest is derived from the preorder layout: children are the nodes
        naming ``i`` as parent in ascending index (visit order), and
        ``leaf_hi = leaf_lo + size``.  Memos start empty.
        """
        tree = cls.__new__(cls)
        tree.parent = parent
        tree.weight = weight
        tree.size = size
        tree.leaf_lo = leaf_lo
        tree.leaf_hi = list(map(add, leaf_lo, size))
        tree.leaf_order = leaf_order
        children: list[list[int]] = [[] for _ in parent]
        for index in range(1, len(parent)):  # node 0 is the root
            children[parent[index]].append(index)
        tree.children = children
        tree.leaf_node = dict(zip(leaf_order, leaf_nodes))
        tree.marked_below = marked_below
        #: k -> node indices of the strict Algorithm 1 cut.
        tree.cut_memo: dict[int, list[int]] = {}
        #: k -> per-node "every ancestor's off-path siblings are >= k".
        tree.anc_ok_memo: dict[int, list[bool]] = {}
        #: (node, k, method) -> step-3 partition clusters, in order.
        tree.partition_memo: dict[
            tuple[int, int, str], tuple[frozenset[int], ...]
        ] = {}
        #: (cut-piece node, k) -> its greedy refinement, in order.  Cut
        #: pieces are tree nodes shared by every ancestor's partition,
        #: so this memo dedupes across overlapping node partitions.
        tree.refine_memo: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}
        return tree

    def leaves(self, index: int) -> list[int]:
        return self.leaf_order[self.leaf_lo[index] : self.leaf_hi[index]]

    def strict_cut(self, k: int) -> list[int]:
        """Node indices of the strict partition (memoized per k)."""
        memo = self.cut_memo.get(k)
        if memo is not None:
            return memo
        cut = self.strict_cut_below(0, k)
        self.cut_memo[k] = cut
        return cut

    def strict_cut_below(self, index: int, k: int) -> list[int]:
        """Strict-cut node indices of the subtree rooted at ``index``.

        The same stack mechanics — and therefore the same output order —
        as :func:`repro.graph.dendrogram.cut_smallest_valid` applied to
        the node's induced subgraph.
        """
        cut: list[int] = []
        stack = [index]
        while stack:
            node = stack.pop()
            kids = self.children[node]
            if not kids or any(self.size[c] < k for c in kids):
                cut.append(node)
            else:
                stack.extend(kids)
        return cut

    def anc_ok(self, k: int) -> list[bool]:
        """Per-node Property 4.1 bit (memoized per k): see ClusterTree."""
        memo = self.anc_ok_memo.get(k)
        if memo is not None:
            return memo
        ok = [False] * len(self.parent)
        ok[0] = True  # the root has no proper ancestors
        stack = [0]
        while stack:
            index = stack.pop()
            kids = self.children[index]
            if not kids:
                continue
            below_k = [c for c in kids if self.size[c] < k]
            for child in kids:
                off_path_ok = not below_k or (
                    len(below_k) == 1 and below_k[0] == child
                )
                ok[child] = ok[index] and off_path_ok
            stack.extend(kids)
        self.anc_ok_memo[k] = ok
        return ok


class ClusterTree:
    """Bottleneck cluster tree of ``graph`` (see module docstring).

    The tree keeps a reference to ``graph`` — the same live object the
    engine patches in place under churn — and reads it only for its
    edge columns at construction and, in :meth:`apply_patch`, for the
    new weights of the changed edges.
    """

    def __init__(self, graph: WeightedProximityGraph) -> None:
        self._graph = graph
        self._components: dict[int, _ComponentTree] = {}
        self._component_of: dict[int, int] = {}
        self._next_id = 0
        self._marked: set[int] = set()
        self._forest_adj: dict[int, list[tuple[int, float]]] = {}
        ids, us, vs, ws = graph.edge_columns()
        #: Vertex ids ascending; edges are keyed by dense index a * n + b.
        self._ids = ids
        self._keys = self._index(us) * len(ids) + self._index(vs)
        self._weights = ws
        #: The component id of every dense index (the array twin of
        #: ``_component_of``, for the patch path).
        self._component = np.zeros(len(ids), dtype=np.int64)
        self._build(np.arange(len(ids)))

    def _index(self, vertices: np.ndarray) -> np.ndarray:
        """Dense indices of vertex ids (GraphError for unknown ids)."""
        index = np.searchsorted(self._ids, vertices)
        if len(vertices) and (
            index.max() >= len(self._ids)
            or not np.array_equal(self._ids[index], vertices)
        ):
            raise GraphError("unknown vertex in cluster-tree edges")
        return index

    def _build(self, scope: np.ndarray) -> None:
        """Lay out the component trees and forest slice over ``scope``.

        ``scope`` holds ascending dense vertex indices and is closed
        under edges (it is a union of whole components).  New components
        are adopted in ascending smallest-vertex order.
        """
        n, m = len(self._ids), len(scope)
        if m == n:
            a, b = np.divmod(self._keys, max(n, 1))
            w = self._weights
        else:
            inside = np.zeros(n, dtype=bool)
            inside[scope] = True
            a = self._keys // n
            chosen = np.flatnonzero(inside[a])
            local = np.zeros(n, dtype=np.int64)
            local[scope] = np.arange(m)
            a = local[a[chosen]]
            b = local[self._keys[chosen] % n]
            w = self._weights[chosen]
        vertex = self._ids[scope]
        cols = _tree_columns(m, a, b, w)

        # Marked counters: prefix sums of the marked flags in leaf order.
        leaf_ids = vertex[cols["leaf_vertex"]]
        flags = np.isin(
            leaf_ids,
            np.fromiter(self._marked, dtype=np.int64, count=len(self._marked)),
        )
        prefix = np.concatenate(([0], np.cumsum(flags)))
        at = cols["leaf_at"]
        marked = (prefix[at + cols["size"]] - prefix[at]).tolist()

        parent = cols["parent"].tolist()
        weight = cols["weight"].tolist()
        size = cols["size"].tolist()
        leaf_lo = cols["leaf_lo"].tolist()
        leaf_order = leaf_ids.tolist()
        leaf_node = cols["leaf_node"].tolist()
        first_id = self._next_id
        for lo, count, leaf_start, leaf_count in zip(
            cols["node_start"].tolist(),
            cols["node_count"].tolist(),
            cols["leaf_start"].tolist(),
            cols["leaf_count"].tolist(),
        ):
            hi, leaf_end = lo + count, leaf_start + leaf_count
            self._components[self._next_id] = _ComponentTree._from_arrays(
                parent[lo:hi],
                weight[lo:hi],
                size[lo:hi],
                leaf_lo[lo:hi],
                leaf_order[leaf_start:leaf_end],
                leaf_node[leaf_start:leaf_end],
                marked[lo:hi],
            )
            self._next_id += 1
        comp_ids = np.repeat(
            np.arange(first_id, self._next_id), cols["leaf_count"]
        )
        self._component[scope[cols["leaf_vertex"]]] = comp_ids
        self._component_of.update(zip(leaf_order, comp_ids.tolist()))

        # The forest slice: every scope vertex's accepted edges, in
        # acceptance order (ascending weight, descending key).
        forest = cols["forest"]
        ends = np.concatenate((a[forest], b[forest]))
        others = np.concatenate((b[forest], a[forest]))
        rank = np.tile(np.arange(len(forest)), 2)
        grouped = np.lexsort((rank, ends))
        degree = np.bincount(ends, minlength=m).tolist()
        targets = iter(vertex[others[grouped]].tolist())
        weights = iter(np.tile(w[forest], 2)[grouped].tolist())
        # Every old list is freed before the first new one is made.
        # Replacing entries one by one would recycle each freed list and
        # tuple through CPython's free lists, which bypass the allocation
        # count that schedules garbage collection: ~10^5 new objects
        # would then wait in the youngest generation for a later request
        # to pay for collecting them.
        adjacency = self._forest_adj
        scope_ids = vertex.tolist()
        adjacency.update(dict.fromkeys(scope_ids))
        for v, count in zip(scope_ids, degree):
            adjacency[v] = list(zip(islice(targets, count), islice(weights, count)))

    def _forest_refine(self, leaves: list[int], k: int) -> list[set[int]]:
        """Greedy refinement of a tree node's leaves over its forest slice.

        Every node is a t-component, so all edges leaving it are heavier
        than all edges inside it; the forest scan spans the node before
        touching any outgoing edge, and the restriction is a spanning
        tree of the leaves.  On a spanning tree every removal
        disconnects, so the literal pass-until-fixpoint
        (:func:`repro.verify.oracles.oracle_greedy_partition`) collapses
        to: accept the first edge in removal order whose two
        sides both hold >= k vertices, recurse into the sides, and a
        component with no acceptable edge is final.

        Two facts make that a *single* ordered scan instead of a
        per-component rescan:

        * a skipped edge never becomes acceptable — later cuts only
          shrink its sides — so each edge is decided exactly once, in
          removal order, against its current component's sizes;
        * cuts in disjoint components cannot affect each other, so the
          scan's cut set equals the work list's regardless of the order
          components are processed in.

        Side sizes are maintained incrementally: subtree counters are
        decremented along the cut's ancestor path (stopping at the
        component top), and the smaller side is relabelled on every cut,
        keeping component sizes O(1) and the relabel total O(n log n).
        The work list's output order — pop the far side first, emit on
        pop — is the post-order of the split recursion, where each
        component splits at its minimum removal-order cut; it is rebuilt
        by merging the final components over the cut edges in reverse.
        """
        members = set(leaves)
        adjacency: dict[int, list[int]] = {vertex: [] for vertex in leaves}
        edges: list[tuple[float, int, int]] = []
        for u in leaves:
            for v, weight in self._forest_adj[u]:
                if v in members:
                    adjacency[u].append(v)
                    if u < v:
                        edges.append((weight, u, v))
        edges.sort(key=lambda edge: (-edge[0], edge[1], edge[2]))

        # Root the spanning tree once; subtree sizes seed the running
        # "my subtree, within my current component" counters.
        root = leaves[0]
        parent = {root: root}
        order = [root]
        for vertex in order:  # grows while iterating: a BFS
            for neighbor in adjacency[vertex]:
                if neighbor not in parent:
                    parent[neighbor] = vertex
                    order.append(neighbor)
        size_cur = dict.fromkeys(members, 1)
        for vertex in reversed(order[1:]):
            size_cur[parent[vertex]] += size_cur[vertex]

        comp = dict.fromkeys(members, 0)
        comp_size = {0: len(members)}
        next_id = 1
        tops = {root}
        cuts: list[tuple[int, int]] = []
        for weight, u, v in edges:
            child, over = (v, u) if parent[v] == u else (u, v)
            child_side = size_cur[child]
            other_side = comp_size[comp[child]] - child_side
            if child_side < k or other_side < k:
                continue
            cuts.append((u, v))
            vertex = over
            while True:
                size_cur[vertex] -= child_side
                if vertex in tops:
                    break
                vertex = parent[vertex]
            tops.add(child)
            old = comp[child]
            if child_side <= other_side:
                seed, seed_size = child, child_side
            else:
                seed, seed_size = over, other_side
            comp_size[old] -= seed_size
            comp_size[next_id] = seed_size
            comp[seed] = next_id
            stack = [seed]
            while stack:
                x = stack.pop()
                for y in adjacency[x]:
                    if comp[y] == old and not _is_cut(x, y, parent, tops):
                        comp[y] = next_id
                        stack.append(y)
            next_id += 1

        if not cuts:
            return [members]
        groups: dict[int, set[int]] = {}
        for vertex in members:
            groups.setdefault(comp[vertex], set()).add(vertex)
        # Reverse merge: at each cut's turn all later cuts are merged,
        # so its two trees are exactly the split recursion's children.
        forest = UnionFind(groups)
        node_of: dict[int, object] = {cid: cid for cid in groups}
        for u, v in reversed(cuts):
            side_u, side_v = forest.find(comp[u]), forest.find(comp[v])
            node = (node_of.pop(side_u), node_of.pop(side_v))
            forest.union(side_u, side_v)
            node_of[forest.find(side_u)] = node
        result: list[set[int]] = []
        stack_nodes: list[object] = [node_of[forest.find(comp[root])]]
        while stack_nodes:
            node = stack_nodes.pop()
            if isinstance(node, int):
                result.append(groups[node])
            else:
                side_u, side_v = node
                stack_nodes.append(side_u)  # far side (v's) emits first
                stack_nodes.append(side_v)
        return result

    # -- basic queries ---------------------------------------------------------

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._component_of

    @property
    def component_count(self) -> int:
        """Number of connected components (one tree each)."""
        return len(self._components)

    @property
    def vertex_count(self) -> int:
        """Number of vertices covered by the forest."""
        return len(self._component_of)

    def _tree_of(self, vertex: int) -> tuple[int, _ComponentTree]:
        comp_id = self._component_of.get(vertex)
        if comp_id is None:
            raise GraphError(f"unknown vertex {vertex}")
        return comp_id, self._components[comp_id]

    def root_of(self, vertex: int) -> NodeRef:
        """The root node of ``vertex``'s component."""
        comp_id, _tree = self._tree_of(vertex)
        return (comp_id, 0)

    def leaf_of(self, vertex: int) -> NodeRef:
        """The leaf node of ``vertex``."""
        comp_id, tree = self._tree_of(vertex)
        return (comp_id, tree.leaf_node[vertex])

    def parent(self, node: NodeRef) -> Optional[NodeRef]:
        """The parent node, or None for a root."""
        comp_id, index = node
        par = self._components[comp_id].parent[index]
        return None if par < 0 else (comp_id, par)

    def size(self, node: NodeRef) -> int:
        """Number of leaves below ``node``."""
        return self._components[node[0]].size[node[1]]

    def weight(self, node: NodeRef) -> float:
        """The node's merge weight: its component's MEW as a standalone
        cluster (the minimal t at which its leaves are t-connected)."""
        return self._components[node[0]].weight[node[1]]

    def leaves(self, node: NodeRef) -> frozenset[int]:
        """The vertices below ``node``."""
        return frozenset(self._components[node[0]].leaves(node[1]))

    def marked_below(self, node: NodeRef) -> int:
        """How many of the node's leaves are marked."""
        return self._components[node[0]].marked_below[node[1]]

    # -- the per-vertex fast path ----------------------------------------------

    def smallest_valid_node(self, vertex: int, k: int) -> Optional[NodeRef]:
        """The lowest ancestor of ``vertex`` with >= k leaves, or None.

        This node's leaves are the vertex's smallest valid t-connectivity
        cluster (Definition 4.1) and its weight the minimal connectivity
        t — the minimum-MEW k-cluster resolution, as one ancestor walk.
        """
        comp_id, tree = self._tree_of(vertex)
        index = tree.leaf_node[vertex]
        while index >= 0:
            if tree.size[index] >= k:
                return (comp_id, index)
            index = tree.parent[index]
        return None

    def smallest_valid_cluster(
        self, vertex: int, k: int
    ) -> Optional[tuple[frozenset[int], float]]:
        """(cluster, t) exactly as the level-scan oracle computes them."""
        node = self.smallest_valid_node(vertex, k)
        if node is None:
            return None
        return self.leaves(node), self.weight(node)

    def node_at(self, vertex: int, t: float) -> NodeRef:
        """The t-component of ``vertex``: its highest ancestor of weight <= t.

        Parent weights strictly increase along the path, so the walk
        stops at the unique node whose parent (if any) merged above t.
        """
        comp_id, tree = self._tree_of(vertex)
        index = tree.leaf_node[vertex]
        while True:
            par = tree.parent[index]
            if par < 0 or tree.weight[par] > t:
                return (comp_id, index)
            index = par

    def is_isolated(self, node: NodeRef, k: int) -> bool:
        """Exact Property 4.1 bit for a node with >= k leaves.

        True iff every proper ancestor's off-path children all have >= k
        leaves.  Then every outside vertex's smallest valid cluster lives
        in a sibling subtree disjoint from ``node`` — removing the node's
        leaves changes no outside resolution (and conversely, an
        undersized off-path sibling resolves through an ancestor of
        ``node``, which removal necessarily changes).
        """
        comp_id, index = node
        return self._components[comp_id].anc_ok(k)[index]

    # -- partitions (Algorithm 1) ----------------------------------------------

    def strict_partition(self, k: int) -> list[set[int]]:
        """The strict Algorithm 1 partition, by memoized tree cuts."""
        result: list[set[int]] = []
        for tree in self._components.values():
            for index in tree.strict_cut(k):
                result.append(set(tree.leaves(index)))
        return result

    def greedy_partition(self, k: int) -> list[set[int]]:
        """The greedy Algorithm 1 partition: strict cut + refinement.

        Components come in ascending smallest-vertex order; refinements
        are memoized per cut node, so repeated calls (and per-request
        lazy resolutions) never re-run them.
        """
        result: list[set[int]] = []
        for comp_id, tree in self._components.items():
            for index in tree.strict_cut(k):
                if tree.size[index] < 2 * k:
                    result.append(set(tree.leaves(index)))
                else:
                    result.extend(
                        set(group)
                        for group in self.node_partition(
                            (comp_id, index), k, "greedy"
                        )
                    )
        return result

    def node_partition(
        self, node: NodeRef, k: int, method: str = "greedy"
    ) -> tuple[frozenset[int], ...]:
        """Algorithm 1 over the node's leaves (memoized per node/k/method).

        Bit-identical — same groups, same order — to
        :func:`repro.verify.oracles.oracle_ordered_partition` of the
        leaves' induced subgraph: the dendrogram cut, then the literal
        greedy pass on every cut piece of >= 2k leaves.  That is the
        partition Algorithm 2's step 3 makes of a gathered cluster, here
        computed on the persistent tree without building one:

        * A node is a t-component, so the dendrogram of its induced
          subgraph (structure *and* child order: the subgraph's edges
          are a prefix-closed subset of the Kruskal scan, and no
          outgoing edge merges at or below the node's weight) is the
          node's own subtree — the strict cut is
          :meth:`_ComponentTree.strict_cut_below`, no dendrogram build.
        * The greedy refinement of a >= 2k piece
          (:meth:`_forest_refine`) runs over the piece's slice of the
          persistent constrained Kruskal forest instead of the full
          induced subgraph.  In the full pass, every non-forest edge is removed
          as a non-bridge the first time it is reached (its redundancy
          certificate — the forest path between its endpoints — lies
          strictly later in removal order, hence untouched), and every
          forest edge sees the same two sides either way (a removal-order
          suffix spans exactly what its forest restriction spans).  So
          the keep/split decisions, and with them the work-list order,
          coincide; an accepted split parts the forest into spanning
          trees of the two sides and the argument recurses.

        The node must have >= k leaves: it is then one connected
        component, the partition covers it without invalid pieces, and
        callers may register every group.
        """
        comp_id, index = node
        tree = self._components[comp_id]
        if tree.size[index] < k:
            raise GraphError(
                f"cannot partition a node of {tree.size[index]} < k={k} leaves"
            )
        if method not in ("strict", "greedy"):
            raise ConfigurationError(f"unknown method {method!r}")
        key = (index, k, method)
        memo = tree.partition_memo.get(key)
        if memo is not None:
            return memo
        groups: list[frozenset[int]] = []
        for piece in tree.strict_cut_below(index, k):
            if method == "strict" or tree.size[piece] < 2 * k:
                groups.append(frozenset(tree.leaves(piece)))
                continue
            piece_key = (piece, k)
            refined = tree.refine_memo.get(piece_key)
            if refined is None:
                refined = tuple(
                    frozenset(group)
                    for group in self._forest_refine(tree.leaves(piece), k)
                )
                tree.refine_memo[piece_key] = refined
            groups.extend(refined)
        result = tuple(groups)
        tree.partition_memo[key] = result
        return result

    # -- marked leaves (registry exclusions) -----------------------------------

    @property
    def marked(self) -> frozenset[int]:
        """All marked vertices (snapshot)."""
        return frozenset(self._marked)

    def mark(self, vertices: Iterable[int]) -> None:
        """Flag ``vertices`` (assigned users) on every ancestor's counter."""
        for vertex in vertices:
            if vertex in self._marked:
                continue
            self._marked.add(vertex)
            comp_id = self._component_of.get(vertex)
            if comp_id is None:
                continue
            tree = self._components[comp_id]
            index = tree.leaf_node[vertex]
            while index >= 0:
                tree.marked_below[index] += 1
                index = tree.parent[index]

    # -- churn maintenance -----------------------------------------------------

    def apply_patch(self, patch: "ChurnPatch") -> int:
        """Re-derive exactly the components a churn patch disturbed.

        The edge columns take every changed edge's new weight from the
        live graph (no edge: dropped).  An old component not incident to
        a changed edge kept all its edges and weights, so its tree (and
        memos) remain exact; the old components that are incident are
        rebuilt together, and since a changed edge has both endpoints
        among them, nothing outside them can merge in.  Returns the
        number of old components rebuilt.  After the call the forest
        equals a fresh build over the patched graph.
        """
        edges = getattr(patch, "changed_edges", ())
        if not edges:
            return 0
        pairs = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
        ends = self._index(pairs)
        n = len(self._ids)
        changed = np.sort(ends[0::2] * n + ends[1::2])
        keys, weights = self._keys, self._weights
        at = np.searchsorted(keys, changed)
        hit = at < len(keys)
        hit[hit] = keys[at[hit]] == changed[hit]
        keep = np.ones(len(keys), dtype=bool)
        keep[at[hit]] = False
        keys, weights = keys[keep], weights[keep]
        lo, hi = np.divmod(changed, n)
        new = self._graph.edge_weights(
            self._ids[lo].tolist(), self._ids[hi].tolist()
        )
        present = np.array([w is not None for w in new], dtype=bool)
        if present.any():
            add = changed[present]
            at = np.searchsorted(keys, add)
            keys = np.insert(keys, at, add)
            weights = np.insert(
                weights, at, [w for w in new if w is not None]
            )
        self._keys, self._weights = keys, weights

        stale = np.unique(self._component[ends])
        for comp_id in stale.tolist():
            del self._components[comp_id]
        self._build(np.flatnonzero(np.isin(self._component, stale)))
        return len(stale)

    # -- verification helpers --------------------------------------------------

    def node_signatures(self) -> Iterator[tuple[float, int, tuple[int, ...]]]:
        """(weight, size, sorted leaves) of every node — a canonical,
        component-id-free description of the forest, used by the fuzz
        invariant to compare a patched tree against a fresh build."""
        for tree in self._components.values():
            for index in range(len(tree.parent)):
                yield (
                    tree.weight[index],
                    tree.size[index],
                    tuple(sorted(tree.leaves(index))),
                )

    def component_columns(
        self,
    ) -> Iterator[tuple[list[int], list[float], list[int], list[int], list[int]]]:
        """``(parent, weight, size, leaf_lo, leaf_order)`` of every
        component tree: the exact preorder layout, child order included,
        which :func:`repro.verify.oracles.oracle_tree_columns` rebuilds
        from the dendrogram."""
        for tree in self._components.values():
            yield tree.parent, tree.weight, tree.size, tree.leaf_lo, tree.leaf_order

    def forest_neighbors(self, vertex: int) -> list[tuple[int, float]]:
        """``vertex``'s constrained Kruskal forest edges as ``(neighbor,
        weight)``, in acceptance order."""
        return list(self._forest_adj[vertex])
