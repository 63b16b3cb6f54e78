"""Building the WPG from a user population (Section VI's construction).

The paper's recipe:

1. Each user connects to peers within the distance threshold ``delta``,
   capped at the ``M`` nearest (devices have limited resources; M controls
   the WPG density).
2. Each user ranks its connected peers by RSS, strongest (closest) first.
3. The weight of edge ``(a, b)`` is the *minimum* of a's rank in b's list
   and b's rank in a's list, making the weight symmetric ("to ensure a and
   b are reversible").

An edge therefore exists when at least one endpoint selected the other as
one of its M nearest peers; the mutual-rank minimum is well defined either
way because ranks are computed over the radio neighbourhood.

Steps 1-2 live in one kernel, :func:`directed_picks`, over a
:class:`~repro.spatial.grid.GridIndex`: the from-scratch build below runs
it over every user, and the churn runtime
(:class:`~repro.graph.incremental.IncrementalWPG`) over the users a move
batch disturbed.  Step 3 is :func:`mutual_rank_edges`.  The per-user loop
the recipe reads as is kept as the reference,
:func:`repro.verify.oracles.oracle_build_wpg`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.datasets.base import PointDataset
from repro.errors import ConfigurationError
from repro.graph.wpg import WeightedProximityGraph
from repro.obs import names as metric
from repro.radio.rss import IdealRSSModel, RSSModel, rss_batch_fallback
from repro.spatial.grid import GridIndex


def build_wpg_fast(
    dataset: PointDataset,
    delta: float,
    max_peers: int,
    model: RSSModel | None = None,
) -> WeightedProximityGraph:
    """Construct the weighted proximity graph of ``dataset``.

    A :class:`~repro.spatial.grid.GridIndex` over the dataset (cell size
    ``delta``), :func:`directed_picks` over every user,
    :func:`mutual_rank_edges`, and one bulk
    :meth:`~repro.graph.wpg.WeightedProximityGraph.from_arrays` assembly.

    Parameters
    ----------
    dataset:
        User positions; vertex ids are dataset indexes.
    delta:
        Communication range (Table I default 2e-3).
    max_peers:
        Device connection cap M (Table I default 10).
    model:
        The radio model ranking peers; defaults to the ideal RSS model,
        i.e. rankings equal distance rankings.  Pass a noisy model for
        robustness experiments (a stateful one is consumed by the build).
    """
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    if max_peers < 1:
        raise ConfigurationError(f"max_peers must be >= 1, got {max_peers}")
    n = len(dataset)
    with obs.span(metric.SPAN_BUILD_FAST):
        grid = GridIndex(dataset.points, cell_size=delta)
        users, peers, ranks = directed_picks(
            grid,
            np.arange(n, dtype=np.int64),
            delta,
            max_peers,
            model if model is not None else IdealRSSModel(),
        )
        us, vs, weights = mutual_rank_edges(n, users, peers, ranks.astype(float))
        graph = WeightedProximityGraph.from_arrays(n, us, vs, weights)
    if obs.enabled():
        obs.inc(metric.WPG_BUILDS)
        obs.set_gauge(metric.WPG_VERTICES, graph.vertex_count)
        obs.set_gauge(metric.WPG_EDGES, graph.edge_count)
    return graph


def directed_picks(
    grid: GridIndex,
    users: np.ndarray,
    delta: float,
    max_peers: int,
    model: RSSModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each user's up-to-M closest peers within ``delta``, ranked.

    ``users`` are ascending live ids of ``grid``.  Returns directed
    ``(rows, peers, ranks)`` int64 columns: ``users[rows[j]]`` keeps
    ``peers[j]`` as its ``ranks[j]``-th closest peer (1-based).  Rows
    ascend and each row's picks come in rank order.

    Closeness is ``model``'s reading of the pair distance, larger first,
    ties broken by peer id: the order of
    :meth:`~repro.radio.measurement.ProximityMeter.rank_peers`.  The model
    is read once per (user, candidate) pair, users ascending and each
    user's candidates in :meth:`~repro.spatial.grid.GridIndex.query_radius`
    order (``batch_query_radius`` keeps it), so a stateful model draws its
    noise exactly as a per-user loop would.
    """
    if len(users) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    coords = grid.points_array()
    indptr, nbrs = grid.batch_query_radius(delta, centers=coords[users])
    # Each center is a live indexed point, so every segment contains
    # exactly one self-match.
    counts = np.diff(indptr) - 1
    owners = np.repeat(users, counts + 1)
    not_self = nbrs != owners
    owners, nbrs = owners[not_self], nbrs[not_self]
    xs = coords[:, 0]
    ys = coords[:, 1]
    dx = xs[owners] - xs[nbrs]
    dy = ys[owners] - ys[nbrs]
    distances = np.sqrt(dx * dx + dy * dy)
    batch = getattr(model, "rss_batch", None)
    if batch is not None:
        readings = batch(distances)
    else:
        readings = rss_batch_fallback(model, distances)
    # Every row's (-reading, peer id) order at once; rows stay grouped
    # and ascending, so only the peers move.
    rows = np.repeat(np.arange(len(users), dtype=np.int64), counts)
    nbrs = nbrs[np.lexsort((nbrs, -readings, rows))]
    starts = np.cumsum(counts) - counts
    positions = np.arange(len(nbrs), dtype=np.int64) - np.repeat(starts, counts)
    kept = positions < max_peers
    return rows[kept], nbrs[kept], positions[kept] + 1


def mutual_rank_edges(
    n: int, u: np.ndarray, v: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual-rank reduction: directed picks to undirected edge columns.

    Groups the directed picks by canonical pair and takes the minimum
    rank — the rank alone when only one side picked.  Returns the
    ``(us, vs, weights)`` columns
    :meth:`~repro.graph.wpg.WeightedProximityGraph.from_arrays` consumes.
    """
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    ranks_sorted = ranks[order]
    if len(keys_sorted) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=float)
    starts = np.flatnonzero(
        np.concatenate(([True], keys_sorted[1:] != keys_sorted[:-1]))
    )
    weights = np.minimum.reduceat(ranks_sorted, starts)
    pair_keys = keys_sorted[starts]
    return pair_keys // n, pair_keys % n, weights
