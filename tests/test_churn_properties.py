"""Churn-equivalence properties: mutations == rebuild, bit for bit.

Two families of properties back the dynamic-population runtime:

* After ANY random sequence of ``insert``/``remove``/``move`` operations,
  the mutated :class:`GridIndex` answers every query identically to a
  fresh index built from the final positions.  Removed ids leave holes
  (ids are never reused), so results are compared through the monotone
  live-id mapping — which preserves the per-cell ascending-id order the
  queries report in, making the comparison exact list equality, not just
  set equality.

* After ANY random batch sequence of moves, the incrementally-patched
  WPG equals :func:`build_wpg_fast` from scratch over the final
  positions (via the shared equality oracle from
  :mod:`repro.verify.invariants` — float weights compared bit for bit),
  and each batch's :class:`ChurnPatch` names exactly the edges whose
  weight it changed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.datasets import uniform_points
from repro.datasets.base import PointDataset
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast
from repro.graph.incremental import IncrementalWPG
from repro.spatial.grid import GridIndex
from repro.verify.invariants import graph_equality_details

coordinate = st.floats(0.0, 1.0, allow_nan=False, width=32)
coordinate_pair = st.tuples(coordinate, coordinate)


def _mutate(data, grid: GridIndex, mirror: list) -> None:
    """One random mutation applied to both the grid and the mirror list."""
    live = [i for i, p in enumerate(mirror) if p is not None]
    ops = ["insert", "move", "move"]
    if len(live) > 1:
        ops.append("remove")
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "insert":
        x, y = data.draw(coordinate_pair, label="insert at")
        idx = grid.insert(Point(x, y))
        mirror.append(Point(x, y))
        assert idx == len(mirror) - 1
    elif op == "remove":
        idx = data.draw(st.sampled_from(live), label="remove id")
        grid.remove(idx)
        mirror[idx] = None
    else:
        idx = data.draw(st.sampled_from(live), label="move id")
        x, y = data.draw(coordinate_pair, label="move to")
        grid.move(idx, Point(x, y))
        mirror[idx] = Point(x, y)


@given(st.data())
def test_mutated_grid_answers_like_fresh_index(data):
    initial = data.draw(
        st.lists(coordinate_pair, min_size=2, max_size=12), label="initial"
    )
    cell = data.draw(st.sampled_from([0.09, 0.13, 0.31]), label="cell_size")
    grid = GridIndex([Point(x, y) for x, y in initial], cell_size=cell)
    mirror: list = [Point(x, y) for x, y in initial]
    for _ in range(data.draw(st.integers(1, 20), label="ops")):
        _mutate(data, grid, mirror)
        if data.draw(st.booleans(), label="touch batch arrays"):
            # Force the batch-array cache into existence mid-sequence so
            # later mutations exercise the in-place patch paths, not
            # just the build-from-scratch path.
            grid.points_array()

    live = [i for i, p in enumerate(mirror) if p is not None]
    fresh = GridIndex([mirror[i] for i in live], cell_size=cell)
    to_fresh = {old: new for new, old in enumerate(live)}

    assert grid.live_count == len(live)
    assert sorted(grid.live_ids()) == live

    for _ in range(3):
        cx, cy = data.draw(coordinate_pair, label="query center")
        radius = data.draw(st.floats(0.0, 0.5, allow_nan=False), label="radius")
        center = Point(cx, cy)
        assert [
            to_fresh[i] for i in grid.query_radius(center, radius)
        ] == fresh.query_radius(center, radius)

        x2, y2 = data.draw(coordinate_pair, label="rect corner")
        rect = Rect(min(cx, x2), max(cx, x2), min(cy, y2), max(cy, y2))
        assert [
            to_fresh[i] for i in grid.query_rect(rect)
        ] == fresh.query_rect(rect)
        assert grid.count_rect(rect) == fresh.count_rect(rect)

        count = data.draw(st.integers(1, len(live) + 2), label="nn count")
        assert [
            to_fresh[i] for i in grid.nearest_neighbors(center, count)
        ] == fresh.nearest_neighbors(center, count)


@given(st.data())
def test_mutated_grid_batch_queries_match_fresh(data):
    initial = data.draw(
        st.lists(coordinate_pair, min_size=2, max_size=10), label="initial"
    )
    grid = GridIndex([Point(x, y) for x, y in initial], cell_size=0.13)
    mirror: list = [Point(x, y) for x, y in initial]
    grid.points_array()  # batch cache live from the start
    for _ in range(data.draw(st.integers(1, 12), label="ops")):
        _mutate(data, grid, mirror)

    live = [i for i, p in enumerate(mirror) if p is not None]
    fresh = GridIndex([mirror[i] for i in live], cell_size=0.13)
    to_fresh = {old: new for new, old in enumerate(live)}
    radius = data.draw(st.floats(0.0, 0.4, allow_nan=False), label="radius")

    coords = grid.points_array()
    indptr, nbrs = grid.batch_query_radius(radius, centers=coords[live])
    fresh_indptr, fresh_nbrs = fresh.batch_query_radius(
        radius, centers=fresh.points_array()
    )
    assert indptr.tolist() == fresh_indptr.tolist()
    assert [to_fresh[i] for i in nbrs.tolist()] == fresh_nbrs.tolist()


def _edge_map(graph) -> dict[tuple[int, int], float]:
    return {edge.key(): edge.weight for edge in graph.edges()}


@given(st.data())
def test_incremental_wpg_equals_rebuild_after_random_moves(data):
    n = data.draw(st.integers(8, 24), label="n")
    coords = data.draw(
        st.lists(coordinate_pair, min_size=n, max_size=n), label="positions"
    )
    delta = data.draw(st.sampled_from([0.1, 0.18, 0.3]), label="delta")
    max_peers = data.draw(st.integers(2, 6), label="max_peers")
    points = [Point(x, y) for x, y in coords]
    grid = GridIndex(points, cell_size=delta)
    maintainer = IncrementalWPG(grid, delta, max_peers)
    current = list(points)

    for _ in range(data.draw(st.integers(1, 6), label="batches")):
        movers = sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                label="movers",
            )
        )
        moves = []
        for user in movers:
            x, y = data.draw(coordinate_pair, label="target")
            point = Point(x, y)
            current[user] = point
            moves.append((user, point))
        before = _edge_map(maintainer.graph)
        patch = maintainer.apply_moves(moves)
        after = _edge_map(maintainer.graph)
        assert patch.moved == len(moves)
        assert set(movers) <= set(patch.touched_users)
        # The patch describes exactly the edge-map difference.
        changed = {
            key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)
        }
        assert list(patch.changed_edges) == sorted(changed)
        assert patch.edges_added == sum(key not in before for key in changed)
        assert patch.edges_removed == sum(key not in after for key in changed)
        assert patch.edges_reweighted == sum(
            key in before and key in after for key in changed
        )
        assert list(patch.touched_users) == sorted(set(patch.touched_users))
        touched = set(patch.touched_users)
        assert all(u in touched or v in touched for u, v in changed)
        rebuilt = build_wpg_fast(PointDataset(current), delta, max_peers)
        assert (
            graph_equality_details(
                maintainer.graph, rebuilt, "incremental", "rebuild"
            )
            == []
        )


def test_adopted_graph_that_disagrees_with_the_grid_is_refused():
    """``IncrementalWPG(graph=...)`` checks the adopted graph once: one
    reweighted, missing or extra edge, or a wrong vertex count, refuses
    it with a ConfigurationError."""
    dataset = uniform_points(60, seed=8)
    delta, max_peers = 0.2, 4
    graph = build_wpg_fast(dataset, delta, max_peers)

    def adopt(candidate):
        grid = GridIndex(list(dataset), cell_size=delta)
        return IncrementalWPG(grid, delta, max_peers, graph=candidate)

    assert adopt(graph.copy()).graph.edge_count == graph.edge_count
    edge = next(graph.edges())
    absent = next(
        (u, v)
        for u in range(len(dataset))
        for v in range(u + 1, len(dataset))
        if not graph.has_edge(u, v)
    )
    reweighted, missing, extra = graph.copy(), graph.copy(), graph.copy()
    reweighted.edit_edges([(edge.u, edge.v, edge.weight, edge.weight + 1.0)])
    missing.remove_edge(edge.u, edge.v)
    extra.add_edge(*absent, 1.0)
    # A reweighted edge differs in two (key, weight) entries, one per side.
    for candidate, entries in ((reweighted, 2), (missing, 1), (extra, 1)):
        with pytest.raises(ConfigurationError, match=f"on {entries} edge entries"):
            adopt(candidate)
    grown = graph.copy()
    grown.add_vertex(len(dataset))
    with pytest.raises(ConfigurationError, match="61 vertices"):
        adopt(grown)
