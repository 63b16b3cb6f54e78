"""Tests for the cloaked region, anonymizer and two-phase engine."""

import pytest

from repro.cloaking.anonymizer import CentralizedAnonymizer
from repro.cloaking.engine import CloakingEngine
from repro.cloaking.region import CloakedRegion
from repro.clustering.centralized import centralized_k_clustering
from repro.errors import ClusteringError, ConfigurationError
from repro.geometry.rect import Rect
from repro.graph.wpg import WeightedProximityGraph


class TestCloakedRegion:
    def test_area_and_satisfies(self):
        region = CloakedRegion(Rect(0.0, 0.2, 0.0, 0.1), cluster_id=0, anonymity=12)
        assert region.area == pytest.approx(0.02)
        assert region.satisfies(10)
        assert not region.satisfies(13)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CloakedRegion(Rect.unit_square(), cluster_id=0, anonymity=0)


class TestCentralizedAnonymizer:
    def test_first_request_pays_for_all(self, two_blobs_graph):
        anonymizer = CentralizedAnonymizer(two_blobs_graph, 4)
        first = anonymizer.request(0)
        assert first.involved == two_blobs_graph.vertex_count - 1
        assert first.members == frozenset({0, 1, 2, 3})

    def test_subsequent_requests_free(self, two_blobs_graph):
        anonymizer = CentralizedAnonymizer(two_blobs_graph, 4)
        anonymizer.request(0)
        later = anonymizer.request(5)
        assert later.involved == 0
        assert later.from_cache
        assert later.members == frozenset({4, 5, 6, 7})

    def test_unclusterable_host_raises(self):
        g = WeightedProximityGraph.from_edges([(0, 1, 1.0)], vertices=[2])
        anonymizer = CentralizedAnonymizer(g, 2)
        anonymizer.request(0)
        with pytest.raises(ClusteringError):
            anonymizer.request(2)
        assert anonymizer.unclusterable == frozenset({2})

    def test_precomputed_partition_used(self, two_blobs_graph):
        partition = centralized_k_clustering(two_blobs_graph, 4)
        anonymizer = CentralizedAnonymizer(two_blobs_graph, 4, precomputed=partition)
        assert anonymizer.request(0).members == frozenset({0, 1, 2, 3})

    def test_precomputed_wrong_k_rejected(self, two_blobs_graph):
        partition = centralized_k_clustering(two_blobs_graph, 4)
        with pytest.raises(ConfigurationError):
            CentralizedAnonymizer(two_blobs_graph, 5, precomputed=partition)

    def test_unknown_host(self, two_blobs_graph):
        with pytest.raises(ClusteringError):
            CentralizedAnonymizer(two_blobs_graph, 4).request(99)


class TestCloakingEngine:
    @pytest.fixture(params=["distributed", "centralized"])
    def engine(self, request, small_dataset, small_graph, small_config):
        return CloakingEngine(
            small_dataset, small_graph, small_config, mode=request.param
        )

    def test_region_contains_all_members(self, engine, small_dataset):
        result = engine.request(0)
        for member in result.cluster.members:
            assert result.region.rect.contains(small_dataset[member])

    def test_k_anonymity_satisfied(self, engine, small_config):
        result = engine.request(0)
        assert result.region.satisfies(small_config.k)

    def test_region_reused_across_cluster(self, engine):
        first = engine.request(0)
        member = next(iter(first.cluster.members - {0}))
        second = engine.request(member)
        assert second.region_from_cache
        assert second.region.rect == first.region.rect
        assert second.bounding_messages == 0

    def test_region_inside_unit_square(self, engine):
        result = engine.request(0)
        assert Rect.unit_square().contains_rect(result.region.rect)

    def test_total_phase_messages(self, engine):
        result = engine.request(0)
        assert result.total_phase_messages == (
            result.clustering_messages + result.bounding_messages
        )

    def test_optimal_policy_tight_regions(
        self, small_dataset, small_graph, small_config
    ):
        secure = CloakingEngine(
            small_dataset, small_graph, small_config, policy="secure"
        )
        optimal = CloakingEngine(
            small_dataset, small_graph, small_config, policy="optimal"
        )
        a = secure.request(0)
        b = optimal.request(0)
        assert a.cluster.members == b.cluster.members
        assert a.region.area >= b.region.area

    def test_custom_policy_builder(self, small_dataset, small_graph, small_config):
        from repro.bounding.policies import LinearPolicy

        engine = CloakingEngine(
            small_dataset,
            small_graph,
            small_config,
            policy=lambda size: LinearPolicy(0.01),
        )
        result = engine.request(0)
        assert result.bounding_messages > 0

    def test_mismatched_sizes_rejected(self, small_dataset, small_config):
        with pytest.raises(ConfigurationError):
            CloakingEngine(
                small_dataset, WeightedProximityGraph(), small_config
            )

    def test_unknown_mode_rejected(self, small_dataset, small_graph, small_config):
        with pytest.raises(ConfigurationError):
            CloakingEngine(
                small_dataset, small_graph, small_config, mode="quantum"  # type: ignore[arg-type]
            )

    def test_regions_cached_counter(self, engine):
        assert engine.regions_cached == 0
        engine.request(0)
        assert engine.regions_cached == 1


class TestHostRoleBounding:
    def test_bounding_seeded_at_requesting_host(
        self, small_dataset, small_graph, small_config
    ):
        """Secure bounding must start from the requester, not member 0.

        The progressive protocol seeds all four directional runs at the
        host's own coordinate; a host that is not the smallest member id
        therefore produces a different (still correct) region than the
        smallest member would.  Regression for the engine passing
        ``host_index=0`` unconditionally.
        """
        from repro.bounding.boxing import secure_bounding_box
        from repro.bounding.presets import paper_policy

        engine = CloakingEngine(
            small_dataset, small_graph, small_config, policy="linear"
        )
        first = engine.request(0)
        members = first.cluster.members
        host = max(members)
        assert host != min(members)
        # Drop the cached region so the new host re-runs phase 2.
        assert engine.invalidate_region(members)
        result = engine.request(host)

        ordered = sorted(members)
        points = [small_dataset[i] for i in ordered]
        size = len(points)
        expected = secure_bounding_box(
            points,
            host_index=ordered.index(host),
            policy_factory=lambda: paper_policy("linear", size, small_config),
            clip_to=Rect.unit_square(),
        )
        assert result.region.rect == expected.region
        # Sanity: the old behaviour (always member 0) gives a different
        # region here, so this test genuinely discriminates.
        wrong = secure_bounding_box(
            points,
            host_index=0,
            policy_factory=lambda: paper_policy("linear", size, small_config),
            clip_to=Rect.unit_square(),
        )
        assert expected.region != wrong.region

    def test_host_region_still_covers_cluster(
        self, small_dataset, small_graph, small_config
    ):
        engine = CloakingEngine(
            small_dataset, small_graph, small_config, policy="secure"
        )
        first = engine.request(0)
        host = max(first.cluster.members)
        engine.invalidate_region(first.cluster.members)
        result = engine.request(host)
        for member in result.cluster.members:
            assert result.region.rect.contains(small_dataset[member])


class TestRegionInvalidation:
    def test_invalidate_forces_rebound(
        self, small_dataset, small_graph, small_config
    ):
        engine = CloakingEngine(small_dataset, small_graph, small_config)
        first = engine.request(0)
        members = first.cluster.members
        assert engine.regions_cached == 1
        assert engine.invalidate_region(members)
        assert engine.regions_cached == 0
        # Second invalidation of the same cluster is a no-op.
        assert not engine.invalidate_region(members)
        rebuilt = engine.request(0)
        assert not rebuilt.region_from_cache
        assert rebuilt.bounding_messages > 0
        # Region ids stay unique across invalidations.
        assert rebuilt.region.cluster_id != first.region.cluster_id

    def test_invalidate_accepts_any_iterable(
        self, small_dataset, small_graph, small_config
    ):
        engine = CloakingEngine(small_dataset, small_graph, small_config)
        members = engine.request(0).cluster.members
        assert engine.invalidate_region(sorted(members))

    def test_clear_regions(self, small_dataset, small_graph, small_config):
        engine = CloakingEngine(small_dataset, small_graph, small_config)
        engine.request(0)
        hosts = [h for h in range(1, 50) if h not in engine.request(0).cluster.members]
        engine.request(hosts[0])
        count = engine.regions_cached
        assert count >= 2
        assert engine.clear_regions() == count
        assert engine.regions_cached == 0
        assert engine.clear_regions() == 0


class TestCustomClusteringService:
    def test_engine_with_hilbert_asr(self, small_dataset, small_graph, small_config):
        """The engine accepts any phase-1 service, e.g. the hilbASR baseline."""
        from repro.clustering.hilbert_asr import HilbertASRClustering

        service = HilbertASRClustering(small_dataset, small_config.k)
        engine = CloakingEngine(
            small_dataset, small_graph, small_config, clustering=service
        )
        result = engine.request(0)
        assert result.region.satisfies(small_config.k)
        for member in result.cluster.members:
            assert result.region.rect.contains(small_dataset[member])
        # hilbASR buckets everyone on the first request.
        assert service.registry.assigned_count == len(small_dataset)


class TestGranularity:
    def test_min_area_enforced(self, small_dataset, small_graph, small_config):
        engine = CloakingEngine(
            small_dataset, small_graph, small_config, min_area=0.02
        )
        result = engine.request(0)
        assert result.region.area >= 0.02 - 1e-12
        # Still k-anonymous and still covering every member.
        assert result.region.satisfies(small_config.k)
        for member in result.cluster.members:
            assert result.region.rect.contains(small_dataset[member])

    def test_min_area_zero_is_noop(self, small_dataset, small_graph, small_config):
        plain = CloakingEngine(small_dataset, small_graph, small_config)
        explicit = CloakingEngine(
            small_dataset, small_graph, small_config, min_area=0.0
        )
        assert plain.request(0).region.rect == explicit.request(0).region.rect

    def test_min_area_at_map_corner(self, small_config):
        """Granularity growth handles clipping at the unit-square edge."""
        from repro.datasets.base import PointDataset
        from repro.geometry.point import Point
        from repro.graph.build import build_wpg_fast

        corner_users = PointDataset(
            [Point(0.001 + 0.002 * i, 0.001 + 0.001 * (i % 3)) for i in range(30)]
        )
        graph = build_wpg_fast(corner_users, delta=0.05, max_peers=8)
        config = small_config.with_overrides(user_count=30, k=5)
        engine = CloakingEngine(corner_users, graph, config, min_area=0.05)
        result = engine.request(0)
        assert result.region.area >= 0.05 - 1e-9
        assert Rect.unit_square().contains_rect(result.region.rect)

    def test_min_area_validation(self, small_dataset, small_graph, small_config):
        with pytest.raises(ConfigurationError):
            CloakingEngine(
                small_dataset, small_graph, small_config, min_area=-0.1
            )
        with pytest.raises(ConfigurationError):
            CloakingEngine(
                small_dataset, small_graph, small_config, min_area=1.5
            )
