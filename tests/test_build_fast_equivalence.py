"""Scalar/vectorized equivalence: the fast paths must be exact twins.

The WPG builder and the batch request path are pure optimisations — they
must produce *identical* results to their per-user references (the
builder's is :func:`~repro.verify.oracles.oracle_build_wpg`), bit for
bit, including under noisy radio models whose RNG stream order is part
of the contract.  These property-style tests sweep random populations
and parameters and assert exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cloaking.engine import CloakingEngine
from repro.datasets.base import PointDataset
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.radio.rss import LogDistanceRSSModel
from repro.radio.tdoa import TDOAModel
from repro.verify.oracles import oracle_build_wpg


def _random_world(seed: int) -> tuple[PointDataset, float, int]:
    """A random population with random build parameters."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 400))
    coords = rng.random((n, 2))
    dataset = PointDataset([Point(float(x), float(y)) for x, y in coords])
    delta = float(rng.uniform(0.02, 0.15))
    max_peers = int(rng.integers(1, 12))
    return dataset, delta, max_peers


def _edge_dict(graph) -> dict[tuple[int, int], float]:
    return {edge.key(): edge.weight for edge in graph.edges()}


class TestBuildEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_ideal_meter(self, seed):
        dataset, delta, max_peers = _random_world(seed)
        fast = build_wpg_fast(dataset, delta, max_peers)
        scalar = oracle_build_wpg(dataset, delta, max_peers)
        assert set(fast.vertices()) == set(scalar.vertices())
        assert _edge_dict(fast) == _edge_dict(scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_shadowing_meter(self, seed):
        """Log-normal shadowing: RNG consumption order must match exactly."""
        dataset, delta, max_peers = _random_world(100 + seed)
        model_a = LogDistanceRSSModel(shadowing_sigma_db=6.0, seed=seed)
        model_b = LogDistanceRSSModel(shadowing_sigma_db=6.0, seed=seed)
        scalar = oracle_build_wpg(dataset, delta, max_peers, model=model_a)
        fast = build_wpg_fast(dataset, delta, max_peers, model=model_b)
        assert set(fast.vertices()) == set(scalar.vertices())
        assert _edge_dict(fast) == _edge_dict(scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_tdoa_meter(self, seed):
        """Jitter large enough to reorder peers, so RNG order matters."""
        dataset, delta, max_peers = _random_world(200 + seed)
        model_a = TDOAModel(jitter_sigma=1e-5, seed=seed)
        model_b = TDOAModel(jitter_sigma=1e-5, seed=seed)
        scalar = oracle_build_wpg(dataset, delta, max_peers, model=model_a)
        fast = build_wpg_fast(dataset, delta, max_peers, model=model_b)
        assert _edge_dict(fast) == _edge_dict(scalar)

    def test_empty_neighborhoods(self):
        """Far-apart users: no edges, every vertex still present."""
        dataset = PointDataset([Point(0.1, 0.1), Point(0.9, 0.9)])
        fast = build_wpg_fast(dataset, 0.01, 5)
        assert fast.edge_count == 0
        assert set(fast.vertices()) == {0, 1}

    def test_parameter_validation(self):
        dataset = PointDataset([Point(0.1, 0.1), Point(0.2, 0.2)])
        with pytest.raises(ConfigurationError):
            build_wpg_fast(dataset, -1.0, 5)
        with pytest.raises(ConfigurationError):
            build_wpg_fast(dataset, 0.1, 0)


#: A tiny coordinate menu: drawing from few values makes exact duplicates
#: and shared coordinates (hence zero-distance and tied-weight edges) the
#: common case rather than a measure-zero event.
_menu = st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7])
_delta = st.sampled_from([0.05, 0.15, 0.45])
_max_peers = st.integers(1, 6)


class TestDegenerateEquivalence:
    """Hypothesis sweep of the inputs where vectorized code usually breaks."""

    @given(
        st.lists(st.tuples(_menu, _menu), min_size=1, max_size=25),
        _delta,
        _max_peers,
    )
    def test_duplicate_heavy_populations(self, pairs, delta, max_peers):
        dataset = PointDataset([Point(x, y) for x, y in pairs])
        fast = build_wpg_fast(dataset, delta, max_peers)
        scalar = oracle_build_wpg(dataset, delta, max_peers)
        assert set(fast.vertices()) == set(scalar.vertices())
        assert _edge_dict(fast) == _edge_dict(scalar)

    @given(st.lists(_menu, min_size=2, max_size=20), _delta, _max_peers)
    def test_collinear_users(self, xs, delta, max_peers):
        dataset = PointDataset([Point(x, 0.5) for x in xs])
        fast = build_wpg_fast(dataset, delta, max_peers)
        scalar = oracle_build_wpg(dataset, delta, max_peers)
        assert _edge_dict(fast) == _edge_dict(scalar)

    @given(st.integers(1, 4), st.integers(0, 50), _delta, _max_peers)
    def test_tiny_populations(self, n, seed, delta, max_peers):
        rng = np.random.default_rng(seed)
        coords = rng.random((n, 2))
        dataset = PointDataset([Point(float(x), float(y)) for x, y in coords])
        fast = build_wpg_fast(dataset, delta, max_peers)
        scalar = oracle_build_wpg(dataset, delta, max_peers)
        assert set(fast.vertices()) == set(scalar.vertices()) == set(range(n))
        assert _edge_dict(fast) == _edge_dict(scalar)

    @given(st.integers(2, 12), _delta, _max_peers)
    def test_all_users_at_one_point(self, n, delta, max_peers):
        dataset = PointDataset([Point(0.4, 0.6)] * n)
        fast = build_wpg_fast(dataset, delta, max_peers)
        scalar = oracle_build_wpg(dataset, delta, max_peers)
        assert _edge_dict(fast) == _edge_dict(scalar)
        assert set(fast.vertices()) == set(range(n))


class TestRequestManyEquivalence:
    @pytest.fixture(params=["distributed", "centralized"])
    def make_engine(self, request, small_dataset, small_graph, small_config):
        """Factory for identically configured engines (fresh state each)."""
        def make() -> CloakingEngine:
            return CloakingEngine(
                small_dataset, small_graph, small_config, mode=request.param
            )

        return make

    def test_matches_sequential_requests(self, make_engine):
        # Mix of fresh hosts, repeats (cache hits) and cluster mates
        # (registry hits) — all three request_many paths.  The probe
        # engine discovers a cluster mate without touching the state of
        # the two engines under comparison.
        mate = max(make_engine().clustering.request(0).members)
        hosts = [0, 1, 2, 0, mate, 3, mate, 1, 4, 0]
        sequential, batched = make_engine(), make_engine()
        expected = [sequential.request(host) for host in hosts]
        got = batched.request_many(hosts)
        assert got == expected

    def test_cache_hits_are_free(self, make_engine):
        engine = make_engine()
        results = engine.request_many([0, 0, 0])
        assert not results[0].region_from_cache
        assert results[1].region_from_cache and results[2].region_from_cache
        assert results[1].total_phase_messages == 0
        assert results[1].region == results[0].region
