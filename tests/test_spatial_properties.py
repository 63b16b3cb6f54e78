"""Property-based cross-check of the grid index against brute force.

A linear scan written here from the definitions answers the same queries
as :class:`~repro.spatial.grid.GridIndex`'s scalar and batch paths.  On
any random population they must agree exactly — the grid uses the same
``squared_distance <= r^2`` inclusion rule as the scan, so equality is
bitwise, not approximate.  Nearest-neighbor queries compare distance
multisets (id order may legitimately differ under exact ties).  The
batch radius query must also match the scalar one *in order*: the WPG
kernel reads a stateful radio model in that order.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.spatial.grid import GridIndex

coordinate = st.floats(0.0, 1.0, allow_nan=False, width=32)
points_strategy = st.lists(
    st.tuples(coordinate, coordinate), min_size=1, max_size=40
).map(lambda pairs: [Point(x, y) for x, y in pairs])


def _scan_radius(points, center: Point, radius: float) -> set[int]:
    r2 = radius * radius
    return {
        i for i, p in enumerate(points) if center.squared_distance_to(p) <= r2
    }


def _scan_rect(points, rect: Rect) -> set[int]:
    return {i for i, p in enumerate(points) if rect.contains(p)}


def _scan_nearest(points, center: Point, count: int, max_radius=None):
    limit = math.inf if max_radius is None else max_radius
    eligible = sorted(
        (center.squared_distance_to(p), i)
        for i, p in enumerate(points)
        if center.squared_distance_to(p) <= limit * limit
    )
    return eligible[:count]


@given(points_strategy, coordinate, coordinate, st.floats(0.0, 0.7, allow_nan=False))
def test_query_radius_three_way(points, cx, cy, radius):
    """The scan, the scalar query and a one-center batch query agree."""
    center = Point(cx, cy)
    expected = _scan_radius(points, center, radius)
    grid = GridIndex(points, cell_size=0.13)
    scalar = grid.query_radius(center, radius)
    assert set(scalar) == expected
    indptr, batch = grid.batch_query_radius(radius, centers=np.array([[cx, cy]]))
    assert indptr.tolist() == [0, len(scalar)]
    assert batch.tolist() == scalar


@given(points_strategy, coordinate, coordinate, coordinate, coordinate)
def test_query_rect_three_way(points, x1, x2, y1, y2):
    rect = Rect(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
    expected = _scan_rect(points, rect)
    grid = GridIndex(points, cell_size=0.13)
    assert set(grid.query_rect(rect)) == expected
    assert grid.count_rect(rect) == len(expected)


@given(
    points_strategy,
    coordinate,
    coordinate,
    st.integers(1, 8),
    st.one_of(st.none(), st.floats(0.05, 0.9, allow_nan=False)),
)
def test_nearest_neighbors_three_way(points, cx, cy, count, max_radius):
    center = Point(cx, cy)
    expected = _scan_nearest(points, center, count, max_radius)
    expected_d2 = [d2 for d2, _ in expected]
    # A coarse and a fine grid: the ring search must stop correctly
    # whether the answer sits in the first ring or many rings out.
    for cell in (0.13, 0.04):
        index = GridIndex(points, cell_size=cell)
        got = index.nearest_neighbors(center, count, max_radius=max_radius)
        got_d2 = [center.squared_distance_to(points[i]) for i in got]
        assert len(got) == len(expected)
        assert got_d2 == sorted(got_d2)  # nearest first
        assert got_d2 == expected_d2  # same distances, ties aside


_churn_ops = st.lists(
    st.tuples(
        st.integers(0, 39),
        st.sampled_from(["jump", "nudge", "remove"]),
        coordinate,
        coordinate,
    ),
    max_size=12,
)


@given(
    points_strategy,
    st.floats(0.02, 0.4, allow_nan=False),
    st.sampled_from([0.5, 1.0, 2.5]),
    _churn_ops,
    st.data(),
)
def test_batch_peers_matches_scalar(points, delta, cell_factor, ops, data):
    """Per center, the batch radius query lists exactly what the scalar
    query lists, in the same order — for explicit subsets of live ids,
    any cell size, and an index that has moved and removed points since
    both of its query structures were built."""
    grid = GridIndex(points, cell_size=delta * cell_factor)
    # Build the scalar buckets and the batch arrays, so the churn below
    # patches them in place rather than building them fresh.
    grid.query_radius(points[0], delta)
    grid.points_array()
    for idx, kind, x, y in ops:
        idx %= len(points)
        if idx not in grid.live_ids():
            continue
        if kind == "remove":
            if grid.live_count > 1:
                grid.remove(idx)
        elif kind == "jump":
            grid.move(idx, Point(x, y))
        else:  # a small step, usually within the same cell
            old = grid.point(idx)
            step = grid.cell_size / 8
            grid.move(
                idx,
                Point(
                    min(max(old.x + (x - 0.5) * step, 0.0), 1.0),
                    min(max(old.y + (y - 0.5) * step, 0.0), 1.0),
                ),
            )
    live = grid.live_ids()
    subset = sorted(
        data.draw(st.lists(st.sampled_from(live), unique=True, min_size=1))
    )
    for centers in (subset, live):
        indptr, peers = grid.batch_query_radius(
            delta, centers=grid.points_array()[centers]
        )
        assert indptr[0] == 0 and indptr[-1] == len(peers)
        for i, user in enumerate(centers):
            batch = peers[indptr[i] : indptr[i + 1]].tolist()
            assert batch == grid.query_radius(grid.point(user), delta)
