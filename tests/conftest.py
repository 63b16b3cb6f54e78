"""Shared fixtures: small deterministic datasets and graphs."""

from __future__ import annotations

import os

import pytest

try:
    from hypothesis import settings

    from repro.verify.worlds import register_profiles

    register_profiles()
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-ci"))
except ImportError:  # hypothesis is a dev extra; property suites skip without it
    pass

from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.datasets.base import PointDataset
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.wpg import WeightedProximityGraph


@pytest.fixture(scope="session")
def small_dataset() -> PointDataset:
    """600 uniform users; dense enough for k=5 clustering everywhere."""
    return uniform_points(600, seed=11)


@pytest.fixture(scope="session")
def small_config() -> SimulationConfig:
    return SimulationConfig(
        user_count=600, delta=0.06, max_peers=8, k=5, request_count=50
    )


@pytest.fixture(scope="session")
def small_graph(small_dataset, small_config) -> WeightedProximityGraph:
    return build_wpg_fast(
        small_dataset, small_config.delta, small_config.max_peers
    )


@pytest.fixture()
def two_blobs_graph() -> WeightedProximityGraph:
    """Two tight 4-cliques joined by one heavy bridge edge.

    Hand-checkable: 2-clustering and 4-clustering results are obvious.
    Vertices 0-3 form blob A (internal weights 1-2), vertices 4-7 form
    blob B, and edge (3, 4) has weight 9.
    """
    graph = WeightedProximityGraph()
    blob_a = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (0, 2, 2.0), (1, 3, 2.0), (0, 3, 2.0)]
    blob_b = [(4, 5, 1.0), (5, 6, 1.0), (6, 7, 2.0), (4, 6, 2.0), (5, 7, 2.0), (4, 7, 2.0)]
    for u, v, w in blob_a + blob_b:
        graph.add_edge(u, v, w)
    graph.add_edge(3, 4, 9.0)
    return graph


@pytest.fixture()
def chain_graph() -> WeightedProximityGraph:
    """A 9-vertex path with descending weights 8, 7, 6, ..., 1."""
    graph = WeightedProximityGraph()
    for i, weight in enumerate(range(8, 0, -1)):
        graph.add_edge(i, i + 1, float(weight))
    return graph


@pytest.fixture()
def grid_points_dataset() -> PointDataset:
    """A 5x5 lattice in the unit square (predictable neighbourhoods)."""
    spacing = 1.0 / 5
    points = [
        Point((i + 0.5) * spacing, (j + 0.5) * spacing)
        for i in range(5)
        for j in range(5)
    ]
    return PointDataset(points, name="lattice-5x5")
