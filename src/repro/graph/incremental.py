"""Incremental WPG maintenance under population churn.

:func:`~repro.graph.build.build_wpg_fast` rebuilds the whole graph from
scratch; under sustained movement that is the dominant cost of every tick
even though a single move only disturbs a tiny neighborhood of the graph.
:class:`IncrementalWPG` exploits the locality: a move can only change the
directed peer picks of users whose delta-neighborhood intersects the
mover's old or new position.

Every user's directed picks live in one ``(n, M)`` peer-id table: row
``u`` holds u's picks closest first, so column ``c`` is u's rank-``c + 1``
peer, and ``-1`` marks an empty slot (fewer than M peers in range, or a
removed id).  Each batch re-ranks exactly the *dirty set* with the
from-scratch builder's own kernel,
:func:`~repro.graph.build.directed_picks`, and rewrites those rows.
The candidate pairs — a dirty user and one of its old or new picks — are
reduced to unique canonical keys, and each pair's mutual-rank weight is
computed in numpy from the table before and after the rewrite.  Only the
pairs whose weight changed reach the graph, as one checked batch edit
(:meth:`~repro.graph.wpg.WeightedProximityGraph.edit_edges`), which
leaves it in the state a full rebuild would produce, bit for bit.

The equivalence argument: an edge ``(a, b)`` and its weight are a pure
function of the two directed 1-based ranks, b's in row ``a`` and a's in
row ``b``.  A user's picks are a pure function of its delta-neighborhood
and the pairwise distances inside it.  Both can only change for users
within delta of a mover's old or new position, and the dirty-set re-rank
is the build's kernel itself — so every pick, and therefore every edge
weight, matches the from-scratch build exactly.
A pair whose weight changed has a rank that changed, so a dirty endpoint
picked the other before or after: it is among the candidates.

Stateful radio models (shadowing RNGs, TDOA noise) are rejected: their
readings depend on the measurement *order*, which an incremental re-rank
cannot replay.  The paper's ideal RSS model — and any deterministic
distance-only model — qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import names as metric
from repro.geometry.point import Point
from repro.graph.build import directed_picks, mutual_rank_edges
from repro.graph.wpg import WeightedProximityGraph
from repro.radio.rss import IdealRSSModel, LogDistanceRSSModel, RSSModel
from repro.spatial.grid import GridIndex


@dataclass(frozen=True, slots=True)
class ChurnPatch:
    """What one :meth:`IncrementalWPG.apply_moves` batch changed.

    ``touched_users`` are the dirty-set ids (sorted ascending): every user
    whose picks were re-ranked.  Every changed edge has at least one
    endpoint among them, but not necessarily both — a re-ranked user can
    drop or gain a pick of a user that was not re-ranked — so a cache
    keyed by vertex must invalidate along ``changed_edges``, not along
    ``touched_users``.

    ``changed_edges`` are the structural diffs themselves, as ``(u, v)``
    keys (u < v, sorted ascending) of every edge added, removed or
    reweighted — the precise invalidation set consumers like
    :meth:`~repro.graph.cluster_tree.ClusterTree.apply_patch` rebuild
    along (a re-ranked user whose picks diffed to nothing appears in
    ``touched_users`` but contributes no changed edge).
    """

    moved: int
    dirty_users: int
    edges_added: int
    edges_removed: int
    edges_reweighted: int
    touched_users: tuple[int, ...]
    changed_edges: tuple[tuple[int, int], ...] = ()

    @property
    def edges_changed(self) -> int:
        """Total edge mutations applied to the graph."""
        return self.edges_added + self.edges_removed + self.edges_reweighted


def _require_stateless(model: RSSModel) -> None:
    """Reject radio models whose readings consume a noise stream."""
    if isinstance(model, IdealRSSModel):
        return
    if isinstance(model, LogDistanceRSSModel) and model._sigma == 0:
        return
    raise ConfigurationError(
        "incremental WPG maintenance requires a stateless radio model "
        f"(order-independent readings); got {type(model).__name__}"
    )


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: ``np.unique`` by one sort, without its
    hash pass (several times slower on these key arrays)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class IncrementalWPG:
    """Maintains a WPG over a mutable :class:`GridIndex` under moves.

    Parameters
    ----------
    grid:
        The live spatial index (``cell_size`` need not equal ``delta``,
        but that is the efficient regime).  The maintainer moves points
        through :meth:`GridIndex.move_many` itself — callers must not
        mutate the grid behind its back.
    delta:
        Communication range, as in :func:`~repro.graph.build.build_wpg_fast`.
    max_peers:
        Device connection cap M.
    model:
        Radio model; defaults to the ideal RSS model.  Must be stateless
        (see module docstring).
    graph:
        An existing graph to adopt and patch in place — the engine's
        clustering services hold a reference to it, so patching (rather
        than swapping) keeps them live.  Verified once against the grid
        population at construction; pass ``None`` to build fresh.
    """

    def __init__(
        self,
        grid: GridIndex,
        delta: float,
        max_peers: int,
        model: RSSModel | None = None,
        graph: WeightedProximityGraph | None = None,
    ) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if max_peers < 1:
            raise ConfigurationError(f"max_peers must be >= 1, got {max_peers}")
        self._grid = grid
        self._delta = delta
        self._max_peers = max_peers
        self._model: RSSModel = model if model is not None else IdealRSSModel()
        _require_stateless(self._model)
        # The picks table (see module docstring): rank = column + 1.
        self._picks = np.full((len(grid), max_peers), -1, dtype=np.int64)
        live = np.asarray(grid.live_ids(), dtype=np.int64)
        rows, peers, ranks = directed_picks(
            grid, live, delta, max_peers, self._model
        )
        users = live[rows]
        self._picks[users, ranks - 1] = peers
        us, vs, ws = mutual_rank_edges(
            len(grid), users, peers, ranks.astype(float)
        )
        if graph is None:
            self._graph = WeightedProximityGraph.from_arrays(len(grid), us, vs, ws)
        else:
            self._verify_adopted(graph, us, vs, ws)
            self._graph = graph

    @classmethod
    def restore(
        cls,
        grid: GridIndex,
        delta: float,
        max_peers: int,
        graph: WeightedProximityGraph,
        picks_indptr: np.ndarray,
        picks_peers: np.ndarray,
        picks_ranks: np.ndarray,
        model: RSSModel | None = None,
    ) -> "IncrementalWPG":
        """Rebuild a maintainer from a persisted picks table (trusted path).

        Used by :mod:`repro.persist` during restore: the picks were
        exported by :meth:`export_picks` from a maintainer whose graph
        was bit-equal to ``graph`` at snapshot time, so the O(n·M)
        re-rank and the O(E) adoption audit of ``__init__`` are skipped
        — restore cost is one scatter into the table.  The columns are
        still checked for shape before the scatter (a rank of 0 would
        otherwise land silently in the last column): ranks must lie in
        1..M and be distinct per user, peers must be live ids, and the
        grid slot table must match ``picks_indptr`` hole for hole.
        """
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if max_peers < 1:
            raise ConfigurationError(f"max_peers must be >= 1, got {max_peers}")
        n = len(grid)
        indptr = np.asarray(picks_indptr, dtype=np.int64)
        peers = np.asarray(picks_peers, dtype=np.int64)
        ranks = np.asarray(picks_ranks, dtype=np.int64)
        if len(indptr) != n + 1:
            raise ConfigurationError(
                f"picks table covers {len(indptr) - 1} id slots but "
                f"the grid indexes {n}"
            )
        counts = np.diff(indptr)
        if (
            indptr[0] != 0
            or indptr[-1] != len(peers)
            or len(ranks) != len(peers)
            or bool(np.any(counts < 0))
        ):
            raise ConfigurationError("picks table CSR columns are inconsistent")
        if len(peers) and (int(ranks.min()) < 1 or int(ranks.max()) > max_peers):
            raise ConfigurationError(
                f"picks table holds a rank outside 1..{max_peers}"
            )
        if len(peers) and (int(peers.min()) < 0 or int(peers.max()) >= n):
            raise ConfigurationError(
                f"picks table names a peer outside 0..{n - 1}"
            )
        hole = np.ones(n, dtype=bool)
        hole[np.asarray(grid.live_ids(), dtype=np.int64)] = False
        if bool(np.any(counts[hole] > 0)) or bool(np.any(hole[peers])):
            raise ConfigurationError(
                "picks table gives picks to or from a removed id"
            )
        table = np.full((n, max_peers), -1, dtype=np.int64)
        table[np.repeat(np.arange(n), counts), ranks - 1] = peers
        if np.count_nonzero(table >= 0) != len(peers):
            raise ConfigurationError(
                "picks table repeats a rank within one user's picks"
            )
        wpg = cls.__new__(cls)
        wpg._grid = grid
        wpg._delta = delta
        wpg._max_peers = max_peers
        wpg._model = model if model is not None else IdealRSSModel()
        _require_stateless(wpg._model)
        wpg._picks = table
        wpg._graph = graph
        return wpg

    def export_picks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The directed picks table as CSR columns for a snapshot.

        Returns ``(indptr, peers, ranks)`` (all int64) with one (possibly
        empty) segment per id slot, each user's picks in rank order; hole
        slots get empty segments and are re-holed on restore from the
        grid's own slot table.  :meth:`restore` of these columns gives a
        table whose export is equal to this one, bit for bit.
        """
        users, peers, ranks = self._directed()
        indptr = np.zeros(len(self._picks) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(users, minlength=len(self._picks)), out=indptr[1:]
        )
        return indptr, peers, ranks

    @property
    def graph(self) -> WeightedProximityGraph:
        """The maintained graph (patched in place by :meth:`apply_moves`)."""
        return self._graph

    @property
    def grid(self) -> GridIndex:
        """The underlying spatial index."""
        return self._grid

    def _directed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table as directed ``(users, peers, 1-based ranks)`` columns.

        Users ascending, each user's picks in rank order (int64 columns).
        """
        filled = self._picks >= 0
        users, cols = np.nonzero(filled)
        return (
            users.astype(np.int64, copy=False),
            self._picks[filled],
            cols.astype(np.int64, copy=False) + 1,
        )

    def _verify_adopted(
        self,
        graph: WeightedProximityGraph,
        us: np.ndarray,
        vs: np.ndarray,
        ws: np.ndarray,
    ) -> None:
        """One-time O(E) check that an adopted graph matches the grid.

        Both sides are edge columns sorted by the canonical ``(u, v)``
        key (``mutual_rank_edges`` emits them that way), so the check is
        three array comparisons.
        """
        if graph.vertex_count != len(self._grid):
            raise ConfigurationError(
                f"adopted graph has {graph.vertex_count} vertices but the "
                f"grid indexes {len(self._grid)} id slots"
            )
        _ids, gus, gvs, gws = graph.edge_columns()
        if not (
            np.array_equal(us, gus)
            and np.array_equal(vs, gvs)
            and np.array_equal(ws, gws)
        ):
            diff = set(zip(us.tolist(), vs.tolist(), ws.tolist())) ^ set(
                zip(gus.tolist(), gvs.tolist(), gws.tolist())
            )
            raise ConfigurationError(
                f"adopted graph disagrees with the grid population on "
                f"{len(diff)} edge entries — was it built with the same "
                "delta/max_peers and a stateless radio model?"
            )

    def _mutual_weights(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Current mutual-rank weight of each pair; 0 where there is no edge."""
        pairs = len(lo)
        rows = self._picks[np.concatenate((lo, hi))]
        hit = rows == np.concatenate((hi, lo))[:, None]
        # A peer appears at most once per row, so the masked column sum
        # is its rank, or 0 when it was not picked.
        rank = hit @ np.arange(1, self._max_peers + 1)
        absent = self._max_peers + 1
        rank[rank == 0] = absent
        weight = np.minimum(rank[:pairs], rank[pairs:])
        weight[weight == absent] = 0
        return weight

    def apply_moves(self, moves: Sequence[tuple[int, Point]]) -> ChurnPatch:
        """Move a batch of users and patch the graph to match.

        ``moves`` are ``(user id, new position)`` pairs; each id may
        appear at most once per batch.  After the call the graph equals
        ``build_wpg_fast`` over the final positions, bit for bit.
        """
        if not moves:
            return ChurnPatch(0, 0, 0, 0, 0, ())
        ids = [user for user, _ in moves]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(
                "apply_moves got duplicate user ids in one batch"
            )
        ids_arr = np.asarray(ids, dtype=np.int64)
        points = [point for _, point in moves]

        # Dirty set: anyone within delta of a mover's old OR new position
        # (including the movers themselves — distance 0).
        with obs.span(metric.SPAN_CHURN_GRID):
            coords = self._grid.points_array()
            old_centers = coords[ids_arr].copy()
            _, near_old = self._grid.batch_query_radius(
                self._delta, centers=old_centers
            )
            self._grid.move_many(ids, points)
            coords = self._grid.points_array()
            _, near_new = self._grid.batch_query_radius(
                self._delta, centers=coords[ids_arr]
            )
            dirty = _unique(np.concatenate((ids_arr, near_old, near_new)))

        with obs.span(metric.SPAN_CHURN_WPG):
            return self._patch(ids, dirty)

    def _patch(self, ids: list[int], dirty: np.ndarray) -> ChurnPatch:
        """Re-rank the dirty set and write the changed weights to the graph."""
        new_rows, new_peers, new_ranks = directed_picks(
            self._grid, dirty, self._delta, self._max_peers, self._model
        )
        rows = np.full((len(dirty), self._max_peers), -1, dtype=np.int64)
        rows[new_rows, new_ranks - 1] = new_peers

        # Candidate pairs: every (dirty user, old-or-new pick), as unique
        # canonical keys lo * n + hi.  Any other pair has both directed
        # ranks unchanged, hence the same weight.
        n = len(self._picks)
        picks = np.concatenate((self._picks[dirty], rows), axis=1)
        picked = picks >= 0
        owners = np.broadcast_to(dirty[:, None], picks.shape)[picked]
        peers = picks[picked]
        keys = _unique(
            np.minimum(owners, peers) * np.int64(n) + np.maximum(owners, peers)
        )
        lo, hi = np.divmod(keys, n)

        before = self._mutual_weights(lo, hi)
        self._picks[dirty] = rows
        after = self._mutual_weights(lo, hi)

        changed = np.flatnonzero(before != after)
        lo, hi = lo[changed].tolist(), hi[changed].tolist()
        before, after = before[changed], after[changed]
        added = int(np.count_nonzero(before == 0))
        removed = int(np.count_nonzero(after == 0))
        self._graph.edit_edges(
            zip(
                lo,
                hi,
                [w or None for w in before.astype(float).tolist()],
                [w or None for w in after.astype(float).tolist()],
            )
        )
        dirty_list = dirty.tolist()
        return ChurnPatch(
            moved=len(ids),
            dirty_users=len(dirty_list),
            edges_added=added,
            edges_removed=removed,
            edges_reweighted=len(lo) - added - removed,
            touched_users=tuple(dirty_list),
            changed_edges=tuple(zip(lo, hi)),
        )
