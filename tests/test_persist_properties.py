"""Round-trip identity properties for every persisted structure.

Hypothesis drives the export/import pairs the snapshot subsystem is
built from — :meth:`GridIndex.export_arrays` / ``from_export``,
:meth:`IncrementalWPG.export_picks` / ``restore``, and
:func:`graph_to_arrays` / :func:`graph_from_arrays` — over randomly
generated worlds (:func:`repro.verify.worlds.world_strategy`), random
mutation sequences (so id holes from removals and post-churn states are
covered), and sparse non-dense vertex-id graphs.  Every round trip must
be an identity, bit for bit: same queries, same float weights.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, GraphError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.graph import graph_from_arrays, graph_to_arrays
from repro.graph.incremental import IncrementalWPG
from repro.spatial.grid import GridIndex
from repro.verify.invariants import graph_equality_details
from repro.verify.worlds import build_world, world_strategy

import pytest

coordinate = st.floats(0.0, 1.0, allow_nan=False, width=32)
coordinate_pair = st.tuples(coordinate, coordinate)


def _grids_equal(grid: GridIndex, clone: GridIndex) -> None:
    assert clone.live_count == grid.live_count
    assert sorted(clone.live_ids()) == sorted(grid.live_ids())
    probe = Rect(0.1, 0.9, 0.1, 0.9)
    assert sorted(clone.query_rect(probe)) == sorted(grid.query_rect(probe))
    for pid in grid.live_ids():
        assert clone.point(pid) == grid.point(pid)
        assert clone.query_radius(grid.point(pid), 0.2) == grid.query_radius(
            grid.point(pid), 0.2
        )


class TestGridRoundTrip:
    @given(st.data())
    def test_mutated_grid_round_trips(self, data):
        initial = data.draw(
            st.lists(coordinate_pair, min_size=2, max_size=14), label="initial"
        )
        cell = data.draw(st.sampled_from([0.09, 0.17, 0.33]), label="cell")
        grid = GridIndex([Point(x, y) for x, y in initial], cell_size=cell)
        for _ in range(data.draw(st.integers(0, 12), label="ops")):
            live = sorted(grid.live_ids())
            op = data.draw(
                st.sampled_from(
                    ["insert", "move", "move"]
                    + (["remove"] if len(live) > 1 else [])
                ),
                label="op",
            )
            if op == "insert":
                x, y = data.draw(coordinate_pair, label="at")
                grid.insert(Point(x, y))
            elif op == "remove":
                grid.remove(data.draw(st.sampled_from(live), label="rm"))
            else:
                x, y = data.draw(coordinate_pair, label="to")
                grid.move(data.draw(st.sampled_from(live), label="mv"), Point(x, y))

        clone = GridIndex.from_export(grid.export_arrays(), cell_size=cell)
        _grids_equal(grid, clone)
        # The clone keeps working: it is a live index, not a read replica.
        new_id = clone.insert(Point(0.5, 0.5))
        assert new_id == grid.insert(Point(0.5, 0.5))
        _grids_equal(grid, clone)

    def test_shape_mismatch_rejected(self):
        grid = GridIndex([Point(0.1, 0.2), Point(0.3, 0.4)], cell_size=0.2)
        arrays = grid.export_arrays()
        arrays["live"] = arrays["live"][:1]
        with pytest.raises(ConfigurationError):
            GridIndex.from_export(arrays, cell_size=0.2)


class TestPicksRoundTrip:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_restored_picks_export_and_churn_identically(self, data):
        n = data.draw(st.integers(6, 20), label="n")
        coords = data.draw(
            st.lists(coordinate_pair, min_size=n, max_size=n), label="positions"
        )
        delta = data.draw(st.sampled_from([0.12, 0.25, 0.4]), label="delta")
        max_peers = data.draw(st.integers(1, 5), label="max_peers")
        grid = GridIndex([Point(x, y) for x, y in coords], cell_size=delta)
        for hole in data.draw(
            st.sets(st.integers(0, n - 1), max_size=2), label="holes"
        ):
            grid.remove(hole)
        live = sorted(grid.live_ids())
        runtime = IncrementalWPG(grid, delta, max_peers)

        def batch():
            movers = data.draw(
                st.sets(st.sampled_from(live), min_size=1, max_size=4),
                label="movers",
            )
            return [
                (user, Point(*data.draw(coordinate_pair, label="to")))
                for user in sorted(movers)
            ]

        for _ in range(data.draw(st.integers(0, 4), label="batches")):
            runtime.apply_moves(batch())
        picks = runtime.export_picks()
        clone = IncrementalWPG.restore(
            GridIndex.from_export(grid.export_arrays(), cell_size=delta),
            delta,
            max_peers,
            runtime.graph.copy(),
            *picks,
        )
        for original, restored in zip(picks, clone.export_picks()):
            assert restored.dtype == original.dtype
            assert restored.tobytes() == original.tobytes()
        moves = batch()
        assert clone.apply_moves(moves) == runtime.apply_moves(moves)
        details = graph_equality_details(
            clone.graph, runtime.graph, "restored", "original"
        )
        assert not details, details

    @pytest.mark.parametrize(
        "peers, ranks",
        [
            ([1, 0], [0, 1]),  # rank 0
            ([1, 0], [1, 3]),  # rank M + 1
            ([1, 3], [1, 1]),  # peer id n
            ([-1, 0], [1, 1]),  # negative peer id
            ([1, 2], [1, 1]),  # peer id of a removed user
        ],
    )
    def test_malformed_picks_rejected(self, peers, ranks):
        import numpy as np

        grid = GridIndex(
            [Point(0.1, 0.1), Point(0.12, 0.1), Point(0.5, 0.5)], cell_size=0.1
        )
        grid.remove(2)
        runtime = IncrementalWPG(grid, 0.1, 2)
        indptr, good_peers, good_ranks = runtime.export_picks()
        assert good_peers.tolist() == [1, 0] and good_ranks.tolist() == [1, 1]
        with pytest.raises(ConfigurationError):
            IncrementalWPG.restore(
                grid, 0.1, 2, runtime.graph, indptr,
                np.array(peers), np.array(ranks),
            )


class TestGraphArraysRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(world_strategy(max_users=30))
    def test_world_graph_round_trips(self, world):
        built = build_world(world)
        arrays = graph_to_arrays(built.graph)
        clone = graph_from_arrays(arrays)
        details = graph_equality_details(clone, built.graph, "clone", "graph")
        assert not details, details

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            max_size=30,
        ),
        st.lists(st.integers(0, 60), min_size=1, max_size=8),
    )
    def test_sparse_vertex_ids_round_trip(self, pairs, extra_vertices):
        """Non-dense ids (holes from departures) take the from_edges path."""
        from repro.graph.wpg import WeightedProximityGraph

        edges = {}
        for u, v in pairs:
            if u != v:
                # Weights that exercise float bit-exactness.
                edges[(min(u, v), max(u, v))] = (u + 0.1) * (v + 0.7) / 9.0
        graph = WeightedProximityGraph.from_edges(
            [(u, v, w) for (u, v), w in edges.items()],
            vertices=extra_vertices,
        )
        clone = graph_from_arrays(graph_to_arrays(graph))
        details = graph_equality_details(clone, graph, "clone", "graph")
        assert not details, details

    def test_mismatched_columns_rejected(self):
        import numpy as np

        with pytest.raises(GraphError):
            graph_from_arrays(
                {
                    "vertices": np.array([0, 1, 2]),
                    "us": np.array([0]),
                    "vs": np.array([1, 2]),
                    "ws": np.array([0.5]),
                }
            )
