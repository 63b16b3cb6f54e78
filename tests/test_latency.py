"""Tests for the protocol latency estimators."""

import math

import pytest

from repro.bounding.boxing import secure_bounding_box
from repro.bounding.policies import LinearPolicy
from repro.bounding.protocol import progressive_upper_bound
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.network.latency import (
    LatencyModel,
    bounding_run_latency,
    cloaking_latency,
    clustering_latency,
)


def deterministic(rtt: float = 0.1) -> LatencyModel:
    return LatencyModel(median_rtt=rtt, sigma=0.0)


class TestLatencyModel:
    def test_deterministic_rtt(self):
        model = deterministic(0.2)
        assert model.sample_rtt() == pytest.approx(0.2)
        assert model.slowest_of(50) == pytest.approx(0.2)

    def test_random_rtts_positive_and_varied(self):
        model = LatencyModel(median_rtt=0.05, sigma=0.8, seed=3)
        samples = [model.sample_rtt() for _ in range(50)]
        assert all(s > 0 for s in samples)
        assert len(set(samples)) > 40

    def test_slowest_of_grows_with_concurrency(self):
        """Expected maximum of more log-normal samples is larger."""
        lone = LatencyModel(median_rtt=0.05, sigma=0.8, seed=1)
        crowd = LatencyModel(median_rtt=0.05, sigma=0.8, seed=1)
        avg_one = sum(lone.slowest_of(1) for _ in range(300)) / 300
        avg_many = sum(crowd.slowest_of(30) for _ in range(300)) / 300
        assert avg_many > avg_one

    def test_replay(self):
        a = LatencyModel(seed=9)
        b = LatencyModel(seed=9)
        assert [a.sample_rtt() for _ in range(10)] == [
            b.sample_rtt() for _ in range(10)
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(median_rtt=0.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(sigma=-1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel().slowest_of(0)


class TestClusteringLatency:
    def test_sequential_sum(self):
        assert clustering_latency(7, deterministic(0.1)) == pytest.approx(0.7)

    def test_zero_involved(self):
        assert clustering_latency(0, deterministic()) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            clustering_latency(-1, deterministic())


class TestBoundingLatency:
    def test_no_iterations_is_free(self):
        outcome = progressive_upper_bound([0.1, 0.2], 0.5, LinearPolicy(0.1))
        assert outcome.iterations == 0
        assert bounding_run_latency(outcome, deterministic()) == 0.0

    def test_one_round_trip_per_iteration(self):
        outcome = progressive_upper_bound([0.95], 0.5, LinearPolicy(0.1))
        assert outcome.iterations == 5
        latency = bounding_run_latency(outcome, deterministic(0.1))
        assert latency == pytest.approx(0.5)

    def test_rounds_not_messages(self):
        """Parallel verification: 3 members cost rounds, not 3x rounds."""
        outcome = progressive_upper_bound(
            [0.55, 0.56, 0.57], 0.5, LinearPolicy(0.1)
        )
        assert outcome.iterations == 1
        assert outcome.messages == 3
        latency = bounding_run_latency(outcome, deterministic(0.1))
        assert latency == pytest.approx(0.1)  # one round, three replies


class TestCloakingLatency:
    @pytest.fixture()
    def box(self):
        members = [Point(0.5, 0.5), Point(0.52, 0.51), Point(0.49, 0.53)]
        return secure_bounding_box(members, 0, lambda: LinearPolicy(0.01))

    def test_parallel_directions_take_the_max(self, box):
        model_a = deterministic(0.1)
        parallel = cloaking_latency(10, box.directions, model_a)
        model_b = deterministic(0.1)
        serial = cloaking_latency(
            10, box.directions, model_b, parallel_directions=False
        )
        assert serial >= parallel
        # Phase 1 alone costs 10 * 0.1.
        assert parallel >= 1.0

    def test_monotone_in_involved_users(self, box):
        few = cloaking_latency(5, box.directions, deterministic(0.1))
        many = cloaking_latency(50, box.directions, deterministic(0.1))
        assert many > few

    def test_no_directions(self):
        assert cloaking_latency(4, {}, deterministic(0.1)) == pytest.approx(0.4)

    def test_end_to_end_with_real_pipeline(self):
        """Estimate the latency of an actual wire-level cloaking request."""
        from repro.cloaking.p2p_engine import P2PCloakingSession
        from repro.config import SimulationConfig
        from repro.datasets import uniform_points
        from repro.graph.build import build_wpg_fast

        config = SimulationConfig(
            user_count=300, delta=0.09, max_peers=8, k=6
        )
        dataset = uniform_points(300, seed=44)
        graph = build_wpg_fast(dataset, config.delta, config.max_peers)
        session = P2PCloakingSession.bootstrapped(dataset, graph, config)
        result = session.request(3)
        # Reconstruct per-direction outcomes by re-running the analytic
        # boxing (identical inputs -> identical outcomes).
        from repro.bounding.boxing import secure_bounding_box as boxit
        from repro.bounding.presets import paper_policy

        members = sorted(result.cluster.members)
        points = [dataset[i] for i in members]
        box = boxit(
            points, 0,
            lambda: paper_policy("secure", len(points), config),
        )
        latency = cloaking_latency(
            result.cluster.involved, box.directions, LatencyModel(seed=1)
        )
        assert latency > 0
        assert math.isfinite(latency)
