"""Tests for the mobility model and region-lifetime analysis."""

import numpy as np
import pytest

from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.errors import ConfigurationError, ReproError
from repro.experiments.workloads import sample_hosts
from repro.graph.build import build_wpg_fast
from repro.mobility.lifetime import run_region_lifetime
from repro.mobility.waypoint import RandomWaypointModel


@pytest.fixture()
def walkers():
    return RandomWaypointModel(
        uniform_points(50, seed=19), min_speed=0.02, max_speed=0.06, seed=5
    )


class TestRandomWaypoint:
    def test_step_moves_people(self, walkers):
        before = walkers.snapshot()
        after = walkers.step(1.0)
        moved = sum(1 for a, b in zip(before, after) if a != b)
        assert moved == 50

    def test_positions_stay_in_unit_square(self, walkers):
        for _ in range(30):
            snapshot = walkers.step(1.0)
        assert all(0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0 for p in snapshot)

    def test_displacement_bounded_by_speed(self, walkers):
        before = walkers.snapshot()
        after = walkers.step(2.0)
        for a, b in zip(before, after):
            assert a.distance_to(b) <= 0.06 * 2.0 + 1e-9

    def test_time_advances(self, walkers):
        walkers.step(0.5)
        walkers.step(1.5)
        assert walkers.time == pytest.approx(2.0)

    def test_deterministic_replay(self):
        initial = uniform_points(30, seed=3)
        a = RandomWaypointModel(initial, seed=7)
        b = RandomWaypointModel(initial, seed=7)
        for _ in range(5):
            assert list(a.step(1.0)) == list(b.step(1.0))

    def test_pause_time_freezes_on_arrival(self):
        initial = uniform_points(20, seed=2)
        model = RandomWaypointModel(
            initial, min_speed=5.0, max_speed=5.0, pause_time=100.0, seed=1
        )
        model.step(1.0)  # everyone reaches a waypoint (speed >> diagonal)
        frozen = model.snapshot()
        after = model.step(1.0)  # all paused now
        assert list(frozen) == list(after)

    def test_validation(self):
        initial = uniform_points(5, seed=0)
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(initial, min_speed=0.0)
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(initial, min_speed=0.5, max_speed=0.1)
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(initial, pause_time=-1.0)
        model = RandomWaypointModel(initial)
        with pytest.raises(ConfigurationError):
            model.step(0.0)


class TestRegionLifetime:
    @pytest.fixture(scope="class")
    def result(self):
        dataset = uniform_points(1500, seed=9)
        config = SimulationConfig(
            user_count=1500, delta=0.04, max_peers=8, k=6, request_count=30
        )
        return run_region_lifetime(
            dataset, config, requests=30, steps=6, dt=1.0, max_speed=0.02
        )

    def test_starts_fully_valid(self, result):
        assert result.member_coverage[0] == 1.0
        assert result.regions_fully_valid[0] == 1.0
        assert result.anonymity_preserved[0] == 1.0

    def test_validity_decays_monotonically_in_trend(self, result):
        """Coverage at the end is strictly below the start (people moved)."""
        assert result.member_coverage[-1] < 1.0
        assert result.regions_fully_valid[-1] < 1.0

    def test_full_validity_implies_anonymity(self, result):
        for full, anon in zip(result.regions_fully_valid, result.anonymity_preserved):
            assert anon >= full - 1e-12

    def test_format(self, result):
        text = result.format()
        assert "region lifetime" in text.lower()
        assert "members still covered" in text
        assert "regions invalidated" in text

    def test_stale_regions_invalidated(self, result):
        """Position updates drop stale cached regions from the engine."""
        counts = result.regions_invalidated
        assert len(counts) == len(result.times)
        assert counts[0] == 0
        # Cumulative: monotone non-decreasing.
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        # The fixture's regions demonstrably decay (see the test above),
        # so at least one cached region must have been invalidated.
        assert counts[-1] >= 1

    def test_matches_rebuild_reference(self, result):
        """The apply_moves-driven run reports the rebuild path's numbers.

        Reference implementation: cloak the identical workload at t = 0,
        step the identical waypoint model, and recount every series from
        static snapshots — no churn runtime involved.  Every reported
        series must match exactly.
        """
        dataset = uniform_points(1500, seed=9)
        config = SimulationConfig(
            user_count=1500, delta=0.04, max_peers=8, k=6, request_count=30
        )
        graph = build_wpg_fast(dataset, config.delta, config.max_peers)
        engine = CloakingEngine(dataset, graph, config, policy="optimal")
        hosts = sample_hosts(graph, config.k, 30, seed=37)
        regions = []
        seen = set()
        for host in hosts:
            try:
                res = engine.request(host)
            except ReproError:
                continue
            if res.cluster.members in seen:
                continue
            seen.add(res.cluster.members)
            regions.append((res.region.rect, sorted(res.cluster.members)))
        model = RandomWaypointModel(
            dataset, min_speed=0.002, max_speed=0.02, seed=37
        )
        coverage = [1.0]
        fully_valid = [1.0]
        anonymous = [1.0]
        invalidated = [0]
        stale = set()
        for _ in range(6):
            snapshot = model.step(1.0)
            inside_total = member_total = intact = still_anonymous = 0
            for rect, members in regions:
                inside = sum(1 for m in members if rect.contains(snapshot[m]))
                inside_total += inside
                member_total += len(members)
                if inside == len(members):
                    intact += 1
                else:
                    stale.add(frozenset(members))
                if inside >= config.k:
                    still_anonymous += 1
            coverage.append(inside_total / member_total)
            fully_valid.append(intact / len(regions))
            anonymous.append(still_anonymous / len(regions))
            invalidated.append(len(stale))
        assert result.member_coverage == tuple(coverage)
        assert result.regions_fully_valid == tuple(fully_valid)
        assert result.anonymity_preserved == tuple(anonymous)
        assert result.regions_invalidated == tuple(invalidated)
