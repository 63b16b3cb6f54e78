"""The weighted proximity graph (Section IV).

Vertices are users; an edge ``(u, v)`` records that the two devices are in
radio proximity, weighted by their *relative distance* — in the paper's
experiments, the mutual RSS rank.  The graph is undirected, simple, and
never stores coordinates: the whole point of the paper is that clustering
operates on proximity alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphError


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected weighted edge; ``u < v`` is normalised at creation."""

    u: int
    v: int
    weight: float

    @staticmethod
    def make(u: int, v: int, weight: float) -> "Edge":
        """Create an edge with endpoints normalised to ``u < v``."""
        if u == v:
            raise GraphError(f"self-loop on vertex {u}")
        if u > v:
            u, v = v, u
        return Edge(u, v, weight)

    def other(self, vertex: int) -> int:
        """The endpoint that is not ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise GraphError(f"vertex {vertex} is not an endpoint of {self}")

    def key(self) -> tuple[int, int]:
        """The canonical ``(min, max)`` endpoint pair."""
        return (self.u, self.v)


class WeightedProximityGraph:
    """An undirected weighted simple graph with integer vertex ids.

    Mutation is limited to adding vertices/edges and removing edges; the
    clustering algorithms never mutate a shared graph — they work on
    restricted *views* (see :meth:`subgraph` and the ``exclude`` parameters
    of the traversal helpers in :mod:`repro.graph.components`).
    """

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, float]] = {}
        # CSR edge columns from from_arrays, not yet boxed into dicts:
        # (per-vertex degrees, grouped targets, grouped weights).
        self._pending: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._edge_count = 0

    @property
    def _adjacency(self) -> dict[int, dict[int, float]]:
        if self._pending is not None:
            degrees, tgts, ws = self._pending
            self._pending = None
            # One C-level dict(zip(...)) per vertex; islice walks the
            # boxed lists without intermediate slice copies.
            it_t = iter(tgts.tolist())
            it_w = iter(ws.tolist())
            self._adj = {
                vertex: dict(zip(islice(it_t, deg), islice(it_w, deg)))
                for vertex, deg in enumerate(degrees.tolist())
            }
        return self._adj

    @_adjacency.setter
    def _adjacency(self, value: dict[int, dict[int, float]]) -> None:
        self._pending = None
        self._adj = value

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        vertices: Iterable[int] = (),
    ) -> "WeightedProximityGraph":
        """Build a graph from ``(u, v, weight)`` triples plus extra vertices."""
        graph = cls()
        for vertex in vertices:
            graph.add_vertex(vertex)
        for u, v, weight in edges:
            graph.add_edge(u, v, weight)
        return graph

    @classmethod
    def from_arrays(
        cls,
        vertex_count: int,
        us: Iterable[int],
        vs: Iterable[int],
        weights: Iterable[float],
    ) -> "WeightedProximityGraph":
        """Bulk-build a graph on vertices ``0..vertex_count-1`` from columns.

        The fast constructor behind the vectorized WPG build: edge lists
        arrive as parallel columns (numpy arrays or sequences), each
        undirected pair appearing exactly once.  Skips the per-edge
        duplicate checks of :meth:`add_edge` — callers must guarantee
        uniqueness and ``u != v``.

        The adjacency dicts are materialised lazily: construction does the
        numpy grouping only, and the per-edge boxing into Python dicts
        happens once, on first adjacency access.  Building a graph just to
        persist or count it never pays the boxing cost.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if len(us):
            if bool(np.any(us == vs)):
                raise GraphError("self-loop in edge arrays")
            lo = min(int(us.min()), int(vs.min()))
            hi = max(int(us.max()), int(vs.max()))
            if lo < 0 or hi >= vertex_count:
                raise GraphError(
                    f"edge endpoint {lo if lo < 0 else hi} outside "
                    f"0..{vertex_count - 1}"
                )
        # Mirror into directed form and group by source vertex; the
        # grouped columns are boxed into dicts by the lazy _adjacency
        # property the first time anything reads the graph.
        srcs = np.concatenate((us, vs))
        tgts = np.concatenate((vs, us))
        both = np.concatenate((weights, weights))
        order = np.argsort(srcs, kind="stable")
        degrees = np.bincount(srcs, minlength=vertex_count)
        graph = cls()
        graph._pending = (degrees, tgts[order], both[order])
        graph._edge_count = len(us)
        return graph

    def add_vertex(self, vertex: int) -> None:
        """Add an isolated vertex (no-op if it already exists)."""
        self._adjacency.setdefault(vertex, {})

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add an undirected edge, creating endpoints as needed.

        Re-adding an existing edge with a different weight is an error —
        proximity is symmetric and "agreed by both u and v" (Section IV).
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u}")
        existing = self._adjacency.get(u, {}).get(v)
        if existing is not None:
            if existing != weight:
                raise GraphError(
                    f"edge ({u}, {v}) already has weight {existing}, got {weight}"
                )
            return
        self._adjacency.setdefault(u, {})[v] = weight
        self._adjacency.setdefault(v, {})[u] = weight
        self._edge_count += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``(u, v)``; missing edges raise :class:`GraphError`."""
        try:
            del self._adjacency[u][v]
            del self._adjacency[v][u]
        except KeyError as exc:
            raise GraphError(f"no edge ({u}, {v})") from exc
        self._edge_count -= 1

    def edit_edges(
        self, edits: Iterable[tuple[int, int, float | None, float | None]]
    ) -> None:
        """Apply a batch of edge edits, each checked against the graph.

        Each edit ``(u, v, old, new)`` gives the weight the edge has now
        and the weight it must have afterwards, ``None`` standing for no
        edge: ``old=None`` adds, ``new=None`` removes, two weights
        reweight in place.  Each direction of the adjacency is written
        once per edit; a pair may appear at most once per batch.  Every
        edit is checked before any is applied: if a stored weight differs
        from ``old`` (the caller's view of the graph has drifted from
        the graph) a :class:`GraphError` is raised and nothing changes.
        """
        adj = self._adjacency
        edits = list(edits)
        for u, v, old, _new in edits:
            if u == v:
                raise GraphError(f"self-loop on vertex {u}")
            stored = adj.get(u, {}).get(v)
            if stored != old:
                raise GraphError(
                    f"edge ({u}, {v}) has weight {stored}, the edit "
                    f"expected {old}"
                )
        for u, v, old, new in edits:
            if new is None:
                if old is not None:
                    del adj[u][v]
                    del adj[v][u]
                    self._edge_count -= 1
            else:
                adj.setdefault(u, {})[v] = new
                adj.setdefault(v, {})[u] = new
                if old is None:
                    self._edge_count += 1

    # -- inspection -------------------------------------------------------------

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        if self._pending is not None:
            # from_arrays graphs are dense on 0..n-1; counting them must
            # not force the per-edge dict boxing.
            return len(self._pending[0])
        return len(self._adj)

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    def vertices(self) -> Iterator[int]:
        """Iterate all vertex ids."""
        return iter(self._adjacency)

    def edges(self) -> Iterator[Edge]:
        """All edges, each reported once with ``u < v``."""
        for u, neighbors in self._adjacency.items():
            for v, weight in neighbors.items():
                if u < v:
                    yield Edge(u, v, weight)

    def edge_columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(vertices, us, vs, ws)`` as numpy columns.

        ``vertices`` lists every vertex id ascending; ``us``/``vs``/``ws``
        hold each edge once with ``u < v``, sorted by the canonical
        ``(u, v)`` key.  Graphs still in :meth:`from_arrays` form are
        read without boxing their adjacency.
        """
        if self._pending is not None:
            degrees, tgts, ws = self._pending
            vertices = np.arange(len(degrees), dtype=np.int64)
        else:
            adj = self._adj
            vertices = np.fromiter(adj, dtype=np.int64, count=len(adj))
            degrees = np.fromiter(map(len, adj.values()), np.int64, len(adj))
            total = int(degrees.sum())
            tgts = np.fromiter(chain.from_iterable(adj.values()), np.int64, total)
            ws = np.fromiter(
                chain.from_iterable(map(dict.values, adj.values())), float, total
            )
        srcs = np.repeat(vertices, degrees)
        keep = srcs < tgts
        us, vs, ws = srcs[keep], tgts[keep], ws[keep]
        order = np.lexsort((vs, us))
        return np.sort(vertices), us[order], vs[order], ws[order]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``(u, v)`` exists."""
        return v in self._adjacency.get(u, {})

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; missing edges raise :class:`GraphError`."""
        try:
            return self._adjacency[u][v]
        except KeyError as exc:
            raise GraphError(f"no edge ({u}, {v})") from exc

    def edge_weights(
        self, us: Iterable[int], vs: Iterable[int]
    ) -> list[float | None]:
        """The weight of each ``(u, v)`` pair, ``None`` where no edge is."""
        adj = self._adjacency
        empty: dict[int, float] = {}
        return [adj.get(u, empty).get(v) for u, v in zip(us, vs)]

    def neighbors(self, vertex: int) -> Iterator[int]:
        """Neighbors of ``vertex``; unknown vertices raise :class:`GraphError`."""
        try:
            return iter(self._adjacency[vertex])
        except KeyError as exc:
            raise GraphError(f"unknown vertex {vertex}") from exc

    def neighbor_weights(self, vertex: int) -> Iterator[tuple[int, float]]:
        """``(neighbor, weight)`` pairs for ``vertex``."""
        try:
            return iter(self._adjacency[vertex].items())
        except KeyError as exc:
            raise GraphError(f"unknown vertex {vertex}") from exc

    def degree(self, vertex: int) -> int:
        """Number of neighbors of ``vertex``."""
        try:
            return len(self._adjacency[vertex])
        except KeyError as exc:
            raise GraphError(f"unknown vertex {vertex}") from exc

    def adjacency_message(self, vertex: int) -> dict[int, float]:
        """The single message a user sends when involved in clustering.

        Section VI: "only a single message containing the adjacent vertices
        as well as the edge weights is sent to the host vertex".  The copy
        keeps callers from mutating graph internals.
        """
        return dict(self._adjacency.get(vertex, {}))

    # -- derived graphs ---------------------------------------------------------

    def subgraph(self, vertices: Iterable[int]) -> "WeightedProximityGraph":
        """The induced subgraph on ``vertices``.

        Costs O(|vertices| + their degrees), whatever the graph's size.
        """
        keep = set(vertices)
        adj = self._adjacency
        unknown = [vertex for vertex in keep if vertex not in adj]
        if unknown:
            raise GraphError(f"unknown vertices: {sorted(unknown)[:5]}")
        induced = {u: {v: w for v, w in adj[u].items() if v in keep} for u in keep}
        sub = WeightedProximityGraph()
        sub._adjacency = induced
        sub._edge_count = sum(map(len, induced.values())) // 2
        return sub

    def copy(self) -> "WeightedProximityGraph":
        """A deep copy of this graph."""
        clone = WeightedProximityGraph()
        clone._adjacency = {u: dict(nbrs) for u, nbrs in self._adjacency.items()}
        clone._edge_count = self._edge_count
        return clone
