"""Tests for WPG construction (Section VI's recipe)."""

import pytest

from repro.datasets.base import PointDataset
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.metrics import average_degree
from repro.radio.rss import LogDistanceRSSModel


@pytest.fixture()
def line():
    """Five users on a line, spacing 0.01."""
    return PointDataset([Point(0.1 + 0.01 * i, 0.5) for i in range(5)])


class TestParameters:
    def test_bad_delta_raises(self, line):
        with pytest.raises(ConfigurationError):
            build_wpg_fast(line, delta=0.0, max_peers=3)

    def test_bad_max_peers_raises(self, line):
        with pytest.raises(ConfigurationError):
            build_wpg_fast(line, delta=0.1, max_peers=0)


class TestEdgeSemantics:
    def test_out_of_range_users_disconnected(self, line):
        graph = build_wpg_fast(line, delta=0.005, max_peers=3)
        assert graph.edge_count == 0
        assert graph.vertex_count == 5

    def test_all_vertices_present(self, line):
        graph = build_wpg_fast(line, delta=0.1, max_peers=3)
        assert set(graph.vertices()) == set(range(5))

    def test_mutual_rank_weights_on_line(self, line):
        """End users rank their sole adjacent peer first: weight-1 edges."""
        graph = build_wpg_fast(line, delta=0.1, max_peers=4)
        # 0's nearest is 1, and 4's nearest is 3: rank 1 on one side
        # suffices because the weight is the min of the two ranks.
        assert graph.weight(0, 1) == 1.0
        assert graph.weight(3, 4) == 1.0
        # The farthest pair can rank each other no better than last.
        assert graph.weight(0, 4) == 4.0

    def test_weight_is_min_of_mutual_ranks(self):
        """An asymmetric pair takes the smaller rank.

        User 3 sits far right; its nearest peer is 2 (rank 1), while 2
        ranks 1 and 0 closer than 3 (rank 3).  min(1, 3) = 1.
        """
        ds = PointDataset(
            [Point(0.10, 0.5), Point(0.11, 0.5), Point(0.12, 0.5), Point(0.2, 0.5)]
        )
        graph = build_wpg_fast(ds, delta=0.5, max_peers=3)
        assert graph.weight(2, 3) == 1.0

    def test_max_peers_caps_degree_growth(self):
        """Without the cap every pair in range connects; the cap thins it."""
        ds = PointDataset([Point(0.5 + 0.001 * i, 0.5) for i in range(30)])
        dense = build_wpg_fast(ds, delta=0.1, max_peers=29)
        capped = build_wpg_fast(ds, delta=0.1, max_peers=3)
        assert average_degree(capped) < average_degree(dense)
        # An edge exists iff at least one endpoint lists the other, so a
        # vertex's degree can exceed M but weights never exceed M.
        assert max(e.weight for e in capped.edges()) <= 3

    def test_weights_are_positive_integers(self, small_dataset, small_config):
        graph = build_wpg_fast(small_dataset, small_config.delta, small_config.max_peers)
        for edge in graph.edges():
            assert edge.weight == int(edge.weight)
            assert 1 <= edge.weight <= small_config.max_peers

    def test_symmetry_weight_agreed_by_both(self, small_graph):
        for edge in small_graph.edges():
            assert small_graph.weight(edge.u, edge.v) == small_graph.weight(
                edge.v, edge.u
            )


class TestCustomMeter:
    def test_noisy_meter_changes_rankings(self, line):
        clean = build_wpg_fast(line, delta=0.1, max_peers=4)
        noisy = build_wpg_fast(
            line,
            delta=0.1,
            max_peers=4,
            model=LogDistanceRSSModel(shadowing_sigma_db=20.0, seed=3),
        )
        # Same vertices and edge count class, but some weight must differ
        # under 20 dB shadowing on a 5-user line.
        clean_weights = {e.key(): e.weight for e in clean.edges()}
        noisy_weights = {e.key(): e.weight for e in noisy.edges()}
        assert clean_weights != noisy_weights

    def test_graph_never_stores_coordinates(self, small_graph):
        """The WPG API exposes adjacency only — no positional leakage."""
        assert not hasattr(small_graph, "points")
        assert not hasattr(small_graph, "positions")
