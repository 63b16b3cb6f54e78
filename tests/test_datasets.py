"""Tests for dataset containers, generators and I/O."""

import math

import numpy as np
import pytest

from repro.datasets import (
    PointDataset,
    california_like_poi,
    gaussian_clusters,
    grid_points,
    load_csv,
    save_csv,
    uniform_points,
)
from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class TestPointDataset:
    def test_empty_raises(self):
        with pytest.raises(DatasetError):
            PointDataset([])

    def test_len_iter_getitem(self):
        ds = PointDataset([Point(0, 0), Point(1, 1)])
        assert len(ds) == 2
        assert list(ds) == [Point(0, 0), Point(1, 1)]
        assert ds[1] == Point(1, 1)

    def test_bounds(self):
        ds = PointDataset([Point(0.2, 0.5), Point(0.8, 0.1)])
        assert ds.bounds() == Rect(0.2, 0.8, 0.1, 0.5)

    def test_as_array(self):
        arr = PointDataset([Point(1, 2), Point(3, 4)]).as_array()
        assert arr.shape == (2, 2)
        assert arr[1, 0] == 3.0

    def test_normalized_fits_unit_square(self):
        ds = PointDataset([Point(10, 10), Point(30, 20)]).normalized()
        box = ds.bounds()
        assert Rect.unit_square().contains_rect(box)
        # Aspect ratio preserved: x extent was 2x the y extent.
        assert box.width == pytest.approx(1.0)
        assert box.height == pytest.approx(0.5)

    def test_normalized_identical_points_raises(self):
        with pytest.raises(DatasetError):
            PointDataset([Point(1, 1), Point(1, 1)]).normalized()

    def test_sample_distinct(self):
        ds = uniform_points(50, seed=0)
        ids = ds.sample(20, np.random.default_rng(1))
        assert len(set(ids)) == 20

    def test_sample_too_many_raises(self):
        ds = uniform_points(5, seed=0)
        with pytest.raises(DatasetError):
            ds.sample(6, np.random.default_rng(0))

    def test_subset(self):
        ds = uniform_points(10, seed=0)
        sub = ds.subset([3, 7])
        assert len(sub) == 2
        assert sub[0] == ds[3]


class TestGenerators:
    def test_uniform_in_unit_square(self):
        ds = uniform_points(200, seed=4)
        assert all(0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0 for p in ds)

    def test_uniform_seeded_reproducible(self):
        assert list(uniform_points(20, seed=7)) == list(uniform_points(20, seed=7))

    def test_uniform_different_seeds_differ(self):
        assert list(uniform_points(20, seed=1)) != list(uniform_points(20, seed=2))

    def test_uniform_rejects_nonpositive(self):
        with pytest.raises(DatasetError):
            uniform_points(0)

    def test_grid_points_count_and_spacing(self):
        ds = grid_points(4)
        assert len(ds) == 16
        assert ds[0] == Point(0.125, 0.125)

    def test_grid_points_jitter_bounds(self):
        with pytest.raises(DatasetError):
            grid_points(3, jitter=0.5)

    def test_gaussian_clusters_clipped(self):
        ds = gaussian_clusters(300, clusters=3, spread=0.4, seed=5)
        assert all(0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0 for p in ds)

    def test_gaussian_rejects_bad_params(self):
        with pytest.raises(DatasetError):
            gaussian_clusters(10, clusters=0)
        with pytest.raises(DatasetError):
            gaussian_clusters(10, spread=0.0)


class TestCaliforniaLike:
    def test_count_and_range(self):
        ds = california_like_poi(5000, seed=1)
        assert len(ds) == 5000
        assert all(0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0 for p in ds)

    def test_reproducible(self):
        a = california_like_poi(2000, seed=9)
        b = california_like_poi(2000, seed=9)
        assert list(a) == list(b)

    def test_is_clustered_not_uniform(self):
        """The generator must be much lumpier than a uniform scatter.

        Compare cell-occupancy variance on a coarse grid: clustered data
        concentrates mass in few cells.
        """
        ds = california_like_poi(20000, seed=2)
        uni = uniform_points(20000, seed=2)

        def occupancy_variance(dataset):
            counts = np.zeros((20, 20))
            for p in dataset:
                counts[min(int(p.x * 20), 19), min(int(p.y * 20), 19)] += 1
            return counts.var()

        assert occupancy_variance(ds) > 5 * occupancy_variance(uni)

    def test_rejects_bad_params(self):
        with pytest.raises(DatasetError):
            california_like_poi(0)
        with pytest.raises(DatasetError):
            california_like_poi(100, urban_centers=1)
        with pytest.raises(DatasetError):
            california_like_poi(100, corridors=-1)

    def test_road_backbone_percolates(self):
        """The urban+corridor mass must form one dominant WPG component.

        This is the structural property the kNN-deterioration experiments
        rely on (see DESIGN.md): a giant component covering well over
        half the population at Table-I-equivalent density.
        """
        from repro.graph.build import build_wpg_fast
        from repro.graph.components import connected_components

        n = 20000
        ds = california_like_poi(n)
        delta = 2e-3 * math.sqrt(104770 / n)
        graph = build_wpg_fast(ds, delta, 10)
        biggest = max(len(c) for c in connected_components(graph))
        assert biggest > 0.6 * n


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        ds = uniform_points(30, seed=12)
        path = tmp_path / "points.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert list(loaded) == list(ds)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv(tmp_path / "nope.csv")

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.1,0.2\noops\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        loaded = load_csv(path)
        assert len(loaded) == 2

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        with pytest.raises(DatasetError):
            load_csv(path)
