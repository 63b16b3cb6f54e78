"""Persistent bottleneck cluster tree over the WPG.

The single-linkage dendrogram (:mod:`repro.graph.dendrogram`) answers
every t-connectivity question Algorithms 1/2 ask — but as built it is a
throwaway object: pointer-chasing nodes without parent links, traversed
from the root for every query and rebuilt from scratch per request.
:class:`ClusterTree` is the persistent, query-oriented form:

* one array-backed tree per connected component (parent, weight, size,
  subtree span and marked count per node in DFS preorder, leaves as a
  contiguous slice of a leaf-ordered vertex array), so a vertex's
  ancestor path is an O(depth) walk — and depth is bounded by the
  number of distinct weight levels, which mutual-rank WPG weights cap
  at ``max_peers``;
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
5. Subtree sizes and spans, sibling offsets and preorder indices are
   prefix sums per level (:func:`_tree_columns`).  Each component then
   takes a copy of its slice of those columns, with marked counters as
   prefix sums over leaf order and its forest edges as CSR rows over
   leaf positions, into one :class:`_ComponentTree`.

No dendrogram node objects, edge objects or subgraph copies are made.
The result equals ``single_linkage_dendrogram`` column for column,
child order included (pinned by ``tests/test_cluster_tree.py`` against
:func:`repro.verify.oracles.oracle_tree_columns`).

**Storage** is numpy columns and no Python object per node or vertex.
A component tree holds about ten arrays of its own (copies, never views
of a build's columns, so a surviving component keeps none of its build
alive); children are implicit in the preorder spans, and the vertex ->
(component, leaf node) lookup is two dense arrays over the tree's
vertex indices.  The request path reads the arrays in place and pays in
proportion to the node it reaches: a leaf slice for its leaves, its
preorder range for a strict cut, the CSR rows of a piece's leaf range
for a greedy refinement, one ``np.add.at`` per tree level for a mark.

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
out in full, so requests never pay for construction.  Laying the arrays
out is cheap enough to do for every rebuilt component; turning them
into per-node Python lists on first read instead would charge the
request that first reaches a large node, about 0.17 s for the 40k-user
component of a 50k-user WPG.

Node handles are ``(component id, node index)`` pairs; they are
invalidated for rebuilt components by :meth:`apply_patch` (their
component id disappears), never silently reused.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graph.unionfind import UnionFind
from repro.graph.wpg import WeightedProximityGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.incremental import ChurnPatch

#: A node handle: (component id, node index within that component's tree).
NodeRef = tuple[int, int]


def _is_cut(x: int, y: int, parent: list[int], top: list[bool]) -> bool:
    """Whether tree edge (x, y) has been cut (its child endpoint is a top)."""
    return (parent[y] == x and top[y]) or (parent[x] == y and top[x])


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
    ``parent`` (component-local, -1 at roots), ``weight``, ``size``,
    ``span`` (the subtree's node count) and ``leaf_lo`` (component-local)
    plus the global ``leaf_at``; over leaf positions, ``leaf_vertex``
    and its component-local ``leaf_node``; per component,
    ``node_start``/``node_count`` and
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
        "span": nodes[at],
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


def _under(flags: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Per node of a preorder range: is it in a flagged node's subtree?

    ``span`` holds each node's subtree node count, so node ``j``'s
    subtree is ``[j, j + span[j])`` and a node is covered iff some
    flagged node at or before it reaches past it (itself included).
    """
    position = np.arange(len(flags))
    reach = np.maximum.accumulate(np.where(flags, position + span, 0))
    return reach > position


class _ComponentTree:
    """One component's dendrogram as numpy columns it owns (internal).

    Nodes are stored in DFS preorder, so node ``i``'s subtree is the
    index range ``[i, i + span[i])``: its children are ``i + 1`` and then
    each next sibling at ``child + span[child]``, up to ``i + span[i]``;
    its leaves are the contiguous slice ``leaf_order[leaf_lo[i]:
    leaf_lo[i] + size[i]]``.  Parent weights strictly increase along
    every root path (the dendrogram's level flattening), which the
    ancestor walks rely on.  ``marked_below`` counts each node's marked
    leaves.  The component's constrained Kruskal forest is CSR over
    leaf positions: position ``p``'s edges, in acceptance order, lead to
    the positions ``forest_to[forest_ptr[p]:forest_ptr[p + 1]]``, with
    weights ``forest_w`` at the same offsets.

    Every array is a copy, never a view of the build's columns, so a
    component that survives a patch keeps none of its build alive.  The
    memo dict (strict cuts, isolation bits, node partitions and
    refinements) is made on first use.
    """

    __slots__ = (
        "parent",
        "weight",
        "size",
        "span",
        "leaf_lo",
        "marked_below",
        "leaf_order",
        "forest_ptr",
        "forest_to",
        "forest_w",
        "_memo",
    )

    def __init__(
        self,
        nodes: list[np.ndarray],
        leaf_order: np.ndarray,
        forest: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Adopt the preorder ``nodes`` columns (parent, weight, size,
        span, leaf_lo, marked_below), the leaf order and the forest CSR
        (ptr, to, weights)."""
        (
            self.parent,
            self.weight,
            self.size,
            self.span,
            self.leaf_lo,
            self.marked_below,
        ) = nodes
        self.leaf_order = leaf_order
        self.forest_ptr, self.forest_to, self.forest_w = forest
        self._memo: Optional[dict] = None

    def memo(self) -> dict:
        """Query memos, keyed ``("cut", k)``, ``("anc_ok", k)``,
        ``("partition", node, k, method)`` and ``("refine", piece, k)``.
        Refinements are kept per cut piece: pieces are tree nodes shared
        by every ancestor's partition, so they dedupe across overlapping
        node partitions."""
        if self._memo is None:
            self._memo = {}
        return self._memo

    def leaves(self, index: int) -> list[int]:
        lo = self.leaf_lo[index]
        return self.leaf_order[lo : lo + self.size[index]].tolist()

    def strict_cut(self, k: int) -> list[int]:
        """Node indices of the strict partition (memoized per k)."""
        memo = self.memo()
        cut = memo.get(("cut", k))
        if cut is None:
            cut = memo[("cut", k)] = self.strict_cut_below(0, k)
        return cut

    def strict_cut_below(self, index: int, k: int) -> list[int]:
        """Strict-cut node indices of the subtree rooted at ``index``.

        A node is cut when it is a leaf or has a child below k leaves,
        and no proper ancestor inside the subtree is cut.  The output
        order is that of :func:`repro.graph.dendrogram.cut_smallest_valid`
        applied to the node's induced subgraph: its stack walk pushes
        children in visit order and so pops the last child's subtree
        first, which emits disjoint cut nodes in descending preorder.
        """
        end = index + int(self.span[index])
        if end == index + 1:
            return [index]
        span = self.span[index:end]
        cut = span == 1
        parent = self.parent[index + 1 : end] - index
        cut[parent[self.size[index + 1 : end] < k]] = True
        # Nothing below a cut node is cut: a node whose parent lies in a
        # cut node's subtree drops out.
        cut[1:] &= ~_under(cut, span)[parent]
        return (np.flatnonzero(cut)[::-1] + index).tolist()

    def anc_ok(self, k: int) -> np.ndarray:
        """Per-node Property 4.1 bit (memoized per k): see ClusterTree.

        A node is OK iff no node on its path below the root has an
        undersized sibling, i.e. it lies in no such node's subtree.
        """
        memo = self.memo()
        ok = memo.get(("anc_ok", k))
        if ok is None:
            small = self.size < k
            parent = self.parent[1:]
            undersized = np.bincount(parent[small[1:]], minlength=len(small))
            blocked = np.zeros(len(small), dtype=bool)
            blocked[1:] = undersized[parent] > small[1:]
            ok = memo[("anc_ok", k)] = ~_under(blocked, self.span)
        return ok

    def forest_refine(self, piece: int, k: int) -> tuple[frozenset[int], ...]:
        """Greedy refinement of node ``piece``'s leaves over its forest slice.

        Every node is a t-component, so all edges leaving it are heavier
        than all edges inside it; the forest scan spans the node before
        touching any outgoing edge, and the restriction is a spanning
        tree of the leaves: the CSR rows of the piece's leaf range, minus
        the edges whose far end falls outside that range.  On a spanning
        tree every removal disconnects, so the literal pass-until-fixpoint
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
        The scan runs on positions ``0..count-1`` within the piece's leaf
        range; vertex ids only order the edges and name the groups.
        """
        lo, count = int(self.leaf_lo[piece]), int(self.size[piece])
        ids = self.leaf_order[lo : lo + count]
        ptr = self.forest_ptr[lo : lo + count + 1]
        rows = np.repeat(np.arange(count), np.diff(ptr))
        to = self.forest_to[ptr[0] : ptr[-1]] - lo
        weight = self.forest_w[ptr[0] : ptr[-1]]
        inside = (to >= 0) & (to < count)
        rows, to, weight = rows[inside], to[inside], weight[inside]
        first = np.searchsorted(rows, np.arange(count + 1)).tolist()
        adjacency = to.tolist()
        # Each edge once, u < v by vertex id, in removal order:
        # descending weight, then ascending (u, v).
        once = ids[rows] < ids[to]
        us, vs = rows[once], to[once]
        order = np.lexsort((ids[vs], ids[us], -weight[once]))

        # Root the spanning tree once; subtree sizes seed the running
        # "my subtree, within my current component" counters.
        parent = [-1] * count
        parent[0] = 0
        visit = [0]
        for x in visit:  # grows while iterating: a BFS
            for y in adjacency[first[x] : first[x + 1]]:
                if parent[y] < 0:
                    parent[y] = x
                    visit.append(y)
        size_cur = [1] * count
        for x in reversed(visit[1:]):
            size_cur[parent[x]] += size_cur[x]

        comp = [0] * count
        comp_size = [count]
        top = [False] * count
        top[0] = True
        cuts: list[tuple[int, int]] = []
        for u, v in zip(us[order].tolist(), vs[order].tolist()):
            child, over = (v, u) if parent[v] == u else (u, v)
            child_side = size_cur[child]
            other_side = comp_size[comp[child]] - child_side
            if child_side < k or other_side < k:
                continue
            cuts.append((u, v))
            x = over
            while True:
                size_cur[x] -= child_side
                if top[x]:
                    break
                x = parent[x]
            top[child] = True
            old, new = comp[child], len(comp_size)
            if child_side <= other_side:
                seed, seed_size = child, child_side
            else:
                seed, seed_size = over, other_side
            comp_size[old] -= seed_size
            comp_size.append(seed_size)
            comp[seed] = new
            stack = [seed]
            while stack:
                x = stack.pop()
                for y in adjacency[first[x] : first[x + 1]]:
                    if comp[y] == old and not _is_cut(x, y, parent, top):
                        comp[y] = new
                        stack.append(y)

        if not cuts:
            return (frozenset(ids.tolist()),)
        labels = np.array(comp)
        grouped = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[grouped], np.arange(len(comp_size) + 1))
        members = ids[grouped].tolist()
        groups = [
            frozenset(members[start:stop])
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]
        # Reverse merge: at each cut's turn all later cuts are merged,
        # so its two trees are exactly the split recursion's children.
        forest = UnionFind(range(len(groups)))
        node_of: dict[int, object] = {label: label for label in range(len(groups))}
        for u, v in reversed(cuts):
            side_u, side_v = forest.find(comp[u]), forest.find(comp[v])
            node = (node_of.pop(side_u), node_of.pop(side_v))
            forest.union(side_u, side_v)
            node_of[forest.find(side_u)] = node
        result: list[frozenset[int]] = []
        stack_nodes: list[object] = [node_of[forest.find(comp[0])]]
        while stack_nodes:
            node = stack_nodes.pop()
            if isinstance(node, int):
                result.append(groups[node])
            else:
                side_u, side_v = node
                stack_nodes.append(side_u)  # far side (v's) emits first
                stack_nodes.append(side_v)
        return tuple(result)


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
        self._next_id = 0
        self._marked: set[int] = set()
        ids, us, vs, ws = graph.edge_columns()
        #: Vertex ids ascending; edges are keyed by dense index a * n + b.
        self._ids = ids
        #: Whether the ids are exactly 0..n-1 (each is its own index).
        self._dense = not len(ids) or (ids[0] == 0 and ids[-1] == len(ids) - 1)
        self._keys = self._index(us) * len(ids) + self._index(vs)
        self._weights = ws
        #: Per dense index: its component id, its leaf's node index in
        #: that component's tree, and whether it is marked.
        self._component = np.zeros(len(ids), dtype=np.int64)
        self._leaf_node = np.zeros(len(ids), dtype=np.int64)
        self._marked_at = np.zeros(len(ids), dtype=bool)
        self._build(np.arange(len(ids)))

    def _slots(self, vertices: np.ndarray) -> np.ndarray:
        """Dense indices of vertex ids, -1 where the tree has no such id."""
        if self._dense:
            known = (vertices >= 0) & (vertices < len(self._ids))
            return np.where(known, vertices, -1)
        index = np.searchsorted(self._ids, vertices)
        found = index < len(self._ids)
        found[found] = self._ids[index[found]] == vertices[found]
        return np.where(found, index, -1)

    def _index(self, vertices: np.ndarray) -> np.ndarray:
        """Dense indices of vertex ids (GraphError for unknown ids)."""
        index = self._slots(vertices)
        if (index < 0).any():
            raise GraphError("unknown vertex in cluster-tree edges")
        return index

    def _slot(self, vertex: int) -> int:
        """Dense index of one vertex id, -1 if the tree has no such id."""
        count = len(self._ids)
        if self._dense:
            return vertex if 0 <= vertex < count else -1
        index = int(np.searchsorted(self._ids, vertex))
        return index if index < count and self._ids[index] == vertex else -1

    def _build(self, scope: np.ndarray) -> None:
        """Lay out the component trees over ``scope``.

        ``scope`` holds ascending dense vertex indices and is closed
        under edges (it is a union of whole components).  New components
        are adopted in ascending smallest-vertex order, each with its
        own copy of its slice of the columns.
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
        cols = _tree_columns(m, a, b, w)
        leaf_vertex = cols["leaf_vertex"]
        placed = scope[leaf_vertex]
        leaf_ids = self._ids[placed]

        # Marked counters: prefix sums of the marked flags in leaf order.
        prefix = np.concatenate(([0], np.cumsum(self._marked_at[placed])))
        at = cols["leaf_at"]
        marked = prefix[at + cols["size"]] - prefix[at]

        # The forest as CSR rows over leaf positions: every scope
        # vertex's accepted edges, in acceptance order (ascending weight,
        # descending key), pointing at component-local positions.
        forest = cols["forest"]
        position = np.empty(m, dtype=np.int64)
        position[leaf_vertex] = np.arange(m)
        ends = position[np.concatenate((a[forest], b[forest]))]
        rank = np.tile(np.arange(len(forest)), 2)
        grouped = np.lexsort((rank, ends))
        ptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=m))))
        to = position[np.concatenate((b[forest], a[forest]))][grouped]
        to -= np.repeat(cols["leaf_start"], cols["leaf_count"])[to]
        to_weight = np.tile(w[forest], 2)[grouped]

        node_columns = (
            cols["parent"],
            cols["weight"],
            cols["size"],
            cols["span"],
            cols["leaf_lo"],
            marked,
        )
        node_start, leaf_start = cols["node_start"], cols["leaf_start"]
        leaf_end = leaf_start + cols["leaf_count"]
        first_id = self._next_id
        for lo, hi, first, last, edge_lo, edge_hi in zip(
            node_start.tolist(),
            (node_start + cols["node_count"]).tolist(),
            leaf_start.tolist(),
            leaf_end.tolist(),
            ptr[leaf_start].tolist(),
            ptr[leaf_end].tolist(),
        ):
            self._components[self._next_id] = _ComponentTree(
                [column[lo:hi].copy() for column in node_columns],
                leaf_ids[first:last].copy(),
                (
                    ptr[first : last + 1] - edge_lo,
                    to[edge_lo:edge_hi].copy(),
                    to_weight[edge_lo:edge_hi].copy(),
                ),
            )
            self._next_id += 1
        self._component[placed] = np.repeat(
            np.arange(first_id, self._next_id), cols["leaf_count"]
        )
        self._leaf_node[placed] = cols["leaf_node"]

    # -- basic queries ---------------------------------------------------------

    def __contains__(self, vertex: int) -> bool:
        return self._slot(vertex) >= 0

    @property
    def component_count(self) -> int:
        """Number of connected components (one tree each)."""
        return len(self._components)

    @property
    def vertex_count(self) -> int:
        """Number of vertices covered by the forest."""
        return len(self._ids)

    def _locate(self, vertex: int) -> tuple[int, _ComponentTree, int]:
        """``vertex``'s component id, component tree and leaf node index."""
        slot = self._slot(vertex)
        if slot < 0:
            raise GraphError(f"unknown vertex {vertex}")
        comp_id = int(self._component[slot])
        return comp_id, self._components[comp_id], int(self._leaf_node[slot])

    def root_of(self, vertex: int) -> NodeRef:
        """The root node of ``vertex``'s component."""
        comp_id, _tree, _leaf = self._locate(vertex)
        return (comp_id, 0)

    def leaf_of(self, vertex: int) -> NodeRef:
        """The leaf node of ``vertex``."""
        comp_id, _tree, leaf = self._locate(vertex)
        return (comp_id, leaf)

    def parent(self, node: NodeRef) -> Optional[NodeRef]:
        """The parent node, or None for a root."""
        comp_id, index = node
        par = int(self._components[comp_id].parent[index])
        return None if par < 0 else (comp_id, par)

    def size(self, node: NodeRef) -> int:
        """Number of leaves below ``node``."""
        return int(self._components[node[0]].size[node[1]])

    def weight(self, node: NodeRef) -> float:
        """The node's merge weight: its component's MEW as a standalone
        cluster (the minimal t at which its leaves are t-connected)."""
        return float(self._components[node[0]].weight[node[1]])

    def leaves(self, node: NodeRef) -> frozenset[int]:
        """The vertices below ``node``."""
        return frozenset(self._components[node[0]].leaves(node[1]))

    def marked_below(self, node: NodeRef) -> int:
        """How many of the node's leaves are marked."""
        return int(self._components[node[0]].marked_below[node[1]])

    # -- the per-vertex fast path ----------------------------------------------

    def smallest_valid_node(self, vertex: int, k: int) -> Optional[NodeRef]:
        """The lowest ancestor of ``vertex`` with >= k leaves, or None.

        This node's leaves are the vertex's smallest valid t-connectivity
        cluster (Definition 4.1) and its weight the minimal connectivity
        t — the minimum-MEW k-cluster resolution, as one ancestor walk.
        """
        comp_id, tree, index = self._locate(vertex)
        size, parent = tree.size, tree.parent
        while index >= 0:
            if size[index] >= k:
                return (comp_id, int(index))
            index = parent[index]
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
        comp_id, tree, index = self._locate(vertex)
        parent, weight = tree.parent, tree.weight
        while True:
            par = parent[index]
            if par < 0 or weight[par] > t:
                return (comp_id, int(index))
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
        return bool(self._components[comp_id].anc_ok(k)[index])

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
          (:meth:`_ComponentTree.forest_refine`) runs over the piece's
          slice of the persistent constrained Kruskal forest instead of
          the full induced subgraph.  In the full pass, every non-forest
          edge is removed
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
        memo = tree.memo()
        key = ("partition", index, k, method)
        cached = memo.get(key)
        if cached is not None:
            return cached
        groups: list[frozenset[int]] = []
        for piece in tree.strict_cut_below(index, k):
            if method == "strict" or tree.size[piece] < 2 * k:
                groups.append(frozenset(tree.leaves(piece)))
                continue
            piece_key = ("refine", piece, k)
            refined = memo.get(piece_key)
            if refined is None:
                refined = memo[piece_key] = tree.forest_refine(piece, k)
            groups.extend(refined)
        result = memo[key] = tuple(groups)
        return result

    # -- marked leaves (registry exclusions) -----------------------------------

    @property
    def marked(self) -> frozenset[int]:
        """All marked vertices (snapshot)."""
        return frozenset(self._marked)

    def mark(self, vertices: Iterable[int]) -> None:
        """Flag ``vertices`` (assigned users) on every ancestor's counter.

        The new marks climb one tree level at a time per component;
        siblings share their parent, so each level adds with
        ``np.add.at``, which counts repeated indices.
        """
        fresh = set(vertices)
        fresh -= self._marked
        if not fresh:
            return
        self._marked |= fresh
        slots = self._slots(np.fromiter(fresh, dtype=np.int64, count=len(fresh)))
        slots = slots[slots >= 0]
        self._marked_at[slots] = True
        comps = self._component[slots]
        order = np.argsort(comps, kind="stable")
        comps, nodes = comps[order], self._leaf_node[slots[order]]
        starts = np.flatnonzero(np.diff(comps, prepend=-1))
        for comp_id, lo, hi in zip(
            comps[starts].tolist(),
            starts.tolist(),
            np.append(starts[1:], len(comps)).tolist(),
        ):
            tree = self._components[comp_id]
            index = nodes[lo:hi]
            while index.size:
                np.add.at(tree.marked_below, index, 1)
                index = tree.parent[index]
                index = index[index >= 0]

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
            for index, (weight, size) in enumerate(
                zip(tree.weight.tolist(), tree.size.tolist())
            ):
                yield weight, size, tuple(sorted(tree.leaves(index)))

    def component_columns(
        self,
    ) -> Iterator[tuple[list[int], list[float], list[int], list[int], list[int]]]:
        """``(parent, weight, size, leaf_lo, leaf_order)`` of every
        component tree: the exact preorder layout, child order included,
        which :func:`repro.verify.oracles.oracle_tree_columns` rebuilds
        from the dendrogram."""
        for tree in self._components.values():
            yield (
                tree.parent.tolist(),
                tree.weight.tolist(),
                tree.size.tolist(),
                tree.leaf_lo.tolist(),
                tree.leaf_order.tolist(),
            )

    def forest_neighbors(self, vertex: int) -> list[tuple[int, float]]:
        """``vertex``'s constrained Kruskal forest edges as ``(neighbor,
        weight)``, in acceptance order."""
        _comp_id, tree, leaf = self._locate(vertex)
        position = tree.leaf_lo[leaf]
        lo, hi = tree.forest_ptr[position], tree.forest_ptr[position + 1]
        return list(
            zip(
                tree.leaf_order[tree.forest_to[lo:hi]].tolist(),
                tree.forest_w[lo:hi].tolist(),
            )
        )
