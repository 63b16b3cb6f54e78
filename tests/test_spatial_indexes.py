"""Tests for the grid index, cross-validated with brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import uniform_points
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.spatial.grid import GridIndex


@pytest.fixture(scope="module")
def population():
    return list(uniform_points(400, seed=3).points)


@pytest.fixture(scope="module", params=["grid"])
def index(request, population):
    return GridIndex(population, cell_size=0.05)


def brute_radius(points, center, radius):
    r2 = radius * radius
    return {i for i, p in enumerate(points) if center.squared_distance_to(p) <= r2}


def brute_rect(points, rect):
    return {i for i, p in enumerate(points) if rect.contains(p)}


class TestAgainstBruteForce:
    def test_radius_queries(self, index, population):
        rng = np.random.default_rng(1)
        for _ in range(50):
            center = Point(float(rng.random()), float(rng.random()))
            radius = float(rng.uniform(0.005, 0.2))
            assert set(index.query_radius(center, radius)) == brute_radius(
                population, center, radius
            )

    def test_rect_queries(self, index, population):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x1, x2 = sorted(rng.random(2))
            y1, y2 = sorted(rng.random(2))
            rect = Rect(float(x1), float(x2), float(y1), float(y2))
            assert set(index.query_rect(rect)) == brute_rect(population, rect)

    def test_nearest_neighbors(self, index, population):
        rng = np.random.default_rng(3)
        for _ in range(40):
            center = Point(float(rng.random()), float(rng.random()))
            count = int(rng.integers(1, 15))
            got = index.nearest_neighbors(center, count)
            want = sorted(
                range(len(population)),
                key=lambda i: center.squared_distance_to(population[i]),
            )[:count]
            got_d = [center.distance_to(population[i]) for i in got]
            want_d = [center.distance_to(population[i]) for i in want]
            assert got_d == pytest.approx(want_d)

    def test_nearest_with_max_radius(self, index, population):
        center = Point(0.5, 0.5)
        got = index.nearest_neighbors(center, 50, max_radius=0.1)
        assert all(center.distance_to(population[i]) <= 0.1 for i in got)
        assert len(got) == min(50, len(brute_radius(population, center, 0.1)))


class TestEdgeCases:
    def test_zero_count(self, index):
        assert index.nearest_neighbors(Point(0.5, 0.5), 0) == []

    def test_negative_radius_raises(self, index):
        with pytest.raises(ConfigurationError):
            index.query_radius(Point(0.5, 0.5), -0.1)

    def test_count_exceeds_population(self, population, index):
        got = index.nearest_neighbors(Point(0.5, 0.5), len(population) + 10)
        assert len(got) == len(population)

    def test_len(self, index, population):
        assert len(index) == len(population)

    def test_point_accessor(self, index, population):
        assert index.point(7) == population[7]

    def test_grid_rejects_bad_cell_size(self, population):
        with pytest.raises(ConfigurationError):
            GridIndex(population, cell_size=0.0)

    def test_grid_count_rect_matches_query(self, population):
        grid = GridIndex(population, cell_size=0.03)
        rect = Rect(0.2, 0.6, 0.1, 0.5)
        assert grid.count_rect(rect) == len(grid.query_rect(rect))

    def test_points_outside_bounds_are_clamped(self):
        pts = [Point(-0.5, 0.5), Point(1.5, 0.5), Point(0.5, 0.5)]
        grid = GridIndex(pts, cell_size=0.1)
        assert set(grid.query_radius(Point(-0.5, 0.5), 0.01)) == {0}


@settings(max_examples=30, deadline=None)
@given(
    pts=st.lists(
        st.builds(
            Point,
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ),
    radius=st.floats(min_value=0.001, max_value=0.8),
)
def test_property_indexes_agree(pts, radius):
    """Grids of different cell sizes find the same points in range,
    whatever the radius is next to the cell size (the listing order
    follows the cell layout, so only the sets compare)."""
    center = Point(0.5, 0.5)
    expected = brute_radius(pts, center, radius)
    for cell in (0.07, 0.3):
        grid = GridIndex(pts, cell_size=cell)
        assert set(grid.query_radius(center, radius)) == expected


class TestNearestNeighborTermination:
    """Regression: expanding-ring search must stop at the radius limit.

    Points in ring r are at least (r - 1) * cell_size from the center, so
    once that lower bound exceeds ``max_radius`` no outer ring can
    contribute — the search used to keep walking rings whenever *any*
    point had ever been collected, turning sparse queries into full-grid
    sweeps.
    """

    @staticmethod
    def _spy_rings(index, monkeypatch):
        rings: list[int] = []
        original = index._ring_cells

        def spy(ccx, ccy, ring):
            rings.append(ring)
            return original(ccx, ccy, ring)

        monkeypatch.setattr(index, "_ring_cells", spy)
        return rings

    def test_sparse_population_stops_at_radius(self, monkeypatch):
        # Three points near the origin, five far away: a 100x100 grid in
        # which the limit (0.05 = 5 cells) is crossed long before the far
        # corner.  count exceeds the in-range population, so only the
        # ring lower bound can end the search.
        near = [Point(0.004 + 0.003 * i, 0.005) for i in range(3)]
        far = [Point(0.9 + 0.01 * i, 0.9) for i in range(5)]
        index = GridIndex(near + far, cell_size=0.01)
        rings = self._spy_rings(index, monkeypatch)
        got = index.nearest_neighbors(Point(0.005, 0.005), 8, max_radius=0.05)
        assert sorted(got) == [0, 1, 2]
        # (ring - 1) * 0.01 > 0.05 first holds at ring 7.
        assert max(rings) <= 7

    def test_whole_population_found_short_circuits(self, monkeypatch):
        # No radius limit and count > population: once every indexed
        # point is collected the remaining rings are provably empty.
        points = [Point(0.5 + 0.001 * i, 0.5) for i in range(3)]
        index = GridIndex(points, cell_size=0.01)
        rings = self._spy_rings(index, monkeypatch)
        got = index.nearest_neighbors(Point(0.5, 0.5), 10)
        assert sorted(got) == [0, 1, 2]
        assert max(rings) <= 1

    def test_tie_at_radius_boundary_included(self):
        # Exact binary arithmetic: distance 0.25 == max_radius 0.25.
        points = [Point(0.25, 0.5), Point(0.25, 0.500001), Point(0.25, 0.26)]
        index = GridIndex(points, cell_size=0.01)
        got = index.nearest_neighbors(Point(0.25, 0.25), 10, max_radius=0.25)
        assert got == [2, 0]  # boundary point in, just-beyond point out

    def test_sparse_matches_brute_force(self):
        rng = np.random.default_rng(11)
        points = [Point(float(x), float(y)) for x, y in rng.random((12, 2))]
        index = GridIndex(points, cell_size=0.01)  # 100x100 grid, 12 points
        for center in [Point(0.1, 0.1), Point(0.5, 0.5), Point(0.95, 0.2)]:
            for radius in [0.05, 0.2, 0.7]:
                got = index.nearest_neighbors(center, 5, max_radius=radius)
                want = sorted(
                    (i for i in brute_radius(points, center, radius)),
                    key=lambda i: (center.squared_distance_to(points[i]), i),
                )[:5]
                assert got == want
