"""The exact oracles, hand-checked — plus the cross-validation sweep.

The oracles in :mod:`repro.verify.oracles` are the ground truth the fuzz
harness trusts, so they get the strictest treatment of all: every oracle
is checked on graphs small enough to verify by hand, and the acceptance
sweep cross-validates the optimized clustering and bounding code against
them on hundreds of random small instances (exact regime: n <= 12).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounding.boxing import optimal_bounding_box, secure_bounding_box
from repro.bounding.policies import LinearPolicy
from repro.clustering.isolation import (
    isolation_counterexample,
    smallest_valid_cluster_rule,
)
from repro.datasets.base import PointDataset
from repro.errors import VerificationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast
from repro.graph.wpg import WeightedProximityGraph
from repro.verify.oracles import (
    ORACLE_MAX_VERTICES,
    bottleneck_connectivity,
    oracle_bounding_box,
    oracle_isolation_violations,
    oracle_min_mew_clusters,
    oracle_smallest_cluster,
)


class TestOracleBoundingBox:
    def test_matches_direct_minmax(self):
        points = [Point(0.2, 0.8), Point(0.5, 0.1), Point(0.9, 0.4)]
        assert oracle_bounding_box(points) == Rect(0.2, 0.9, 0.1, 0.8)

    def test_single_point_degenerate(self):
        box = oracle_bounding_box([Point(0.3, 0.7)])
        assert box == Rect(0.3, 0.3, 0.7, 0.7)
        assert box.area == 0.0

    def test_empty_raises(self):
        with pytest.raises(VerificationError):
            oracle_bounding_box([])


class TestOracleSmallestCluster:
    def test_chain_endpoints(self, chain_graph):
        # Vertex 8's only edge has weight 1: its 2-cluster is {7, 8} at t=1.
        assert oracle_smallest_cluster(chain_graph, 8, 2) == (
            frozenset({7, 8}),
            1.0,
        )
        # Vertex 0's only edge has weight 8: everything joins at once.
        cluster, t = oracle_smallest_cluster(chain_graph, 0, 2)
        assert cluster == frozenset(range(9))
        assert t == 8.0

    def test_two_blobs(self, two_blobs_graph):
        cluster, t = oracle_smallest_cluster(two_blobs_graph, 0, 4)
        assert cluster == frozenset({0, 1, 2, 3})
        assert t == 2.0
        # k above the blob size must cross the weight-9 bridge.
        cluster, t = oracle_smallest_cluster(two_blobs_graph, 0, 5)
        assert cluster == frozenset(range(8))
        assert t == 9.0

    def test_k_of_one_is_the_host_alone(self, two_blobs_graph):
        assert oracle_smallest_cluster(two_blobs_graph, 5, 1) == (
            frozenset({5}),
            0.0,
        )

    def test_unreachable_k_returns_none(self, two_blobs_graph):
        assert oracle_smallest_cluster(two_blobs_graph, 0, 9) is None

    def test_exclusion_changes_the_answer(self, two_blobs_graph):
        # Without 1 and 2, vertex 0 only reaches size 3 over the bridge.
        cluster, t = oracle_smallest_cluster(
            two_blobs_graph, 0, 3, exclude=frozenset({1, 2})
        )
        assert cluster == frozenset({0, 3, 4, 5, 6, 7})
        assert t == 9.0

    def test_excluded_host_raises(self, two_blobs_graph):
        with pytest.raises(VerificationError):
            oracle_smallest_cluster(two_blobs_graph, 0, 2, exclude=frozenset({0}))

    def test_unknown_host_raises(self, two_blobs_graph):
        with pytest.raises(VerificationError):
            oracle_smallest_cluster(two_blobs_graph, 99, 2)


class TestBottleneckConnectivity:
    def test_blob_connects_at_its_heaviest_needed_edge(self, two_blobs_graph):
        assert bottleneck_connectivity(two_blobs_graph, {0, 1, 2, 3}) == 2.0
        assert bottleneck_connectivity(two_blobs_graph, {0, 1, 2}) == 1.0

    def test_cross_blob_subset_needs_the_bridge(self, two_blobs_graph):
        assert bottleneck_connectivity(two_blobs_graph, {3, 4}) == 9.0

    def test_singleton_is_zero(self, two_blobs_graph):
        assert bottleneck_connectivity(two_blobs_graph, {6}) == 0.0

    def test_disconnected_subset_is_none(self, two_blobs_graph):
        # 0 and 7 have no induced edge: paths through other vertices
        # don't count for a standalone cluster.
        assert bottleneck_connectivity(two_blobs_graph, {0, 7}) is None

    def test_empty_subset_raises(self, two_blobs_graph):
        with pytest.raises(VerificationError):
            bottleneck_connectivity(two_blobs_graph, set())


class TestOracleMinMew:
    def test_two_blobs_minimum(self, two_blobs_graph):
        t, minimizers = oracle_min_mew_clusters(two_blobs_graph, 0, 4)
        assert t == 2.0
        assert frozenset({0, 1, 2, 3}) in minimizers
        # Every minimizer stays inside blob A (crossing costs 9).
        assert all(subset <= frozenset({0, 1, 2, 3}) for subset in minimizers)

    def test_component_below_k_is_none(self, two_blobs_graph):
        assert oracle_min_mew_clusters(two_blobs_graph, 0, 9) is None

    def test_oversized_component_raises(self):
        graph = WeightedProximityGraph()
        for i in range(ORACLE_MAX_VERTICES + 1):
            graph.add_edge(i, i + 1, 1.0)
        with pytest.raises(VerificationError):
            oracle_min_mew_clusters(graph, 0, 2)

    def test_invalid_k_raises(self, two_blobs_graph):
        with pytest.raises(VerificationError):
            oracle_min_mew_clusters(two_blobs_graph, 0, 0)


class TestOracleIsolation:
    def test_blob_is_isolated(self, two_blobs_graph):
        assert oracle_isolation_violations(two_blobs_graph, {0, 1, 2, 3}, 4) == []

    def test_partial_blob_breaks_neighbors(self, two_blobs_graph):
        # Removing {2, 3} strands 0 and 1 in a 2-component: their valid
        # 4-cluster becomes impossible (the Fig. 5 failure mode).
        violations = oracle_isolation_violations(two_blobs_graph, {2, 3}, 4)
        assert violations == [0, 1]


def _random_instance(seed: int):
    """One random small world in the oracles' exact regime (n <= 12)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, ORACLE_MAX_VERTICES + 1))
    coords = rng.random((n, 2))
    dataset = PointDataset([Point(float(x), float(y)) for x, y in coords])
    delta = float(rng.uniform(0.2, 0.8))
    max_peers = int(rng.integers(2, 8))
    graph = build_wpg_fast(dataset, delta, max_peers)
    k = int(rng.integers(2, n + 1))
    host = int(rng.integers(0, n))
    return dataset, graph, k, host


class TestOracleCrossValidation:
    """The acceptance sweep: optimized code vs oracles, zero mismatches."""

    INSTANCES = 220

    def test_clustering_matches_oracles(self):
        mismatches = []
        for seed in range(self.INSTANCES):
            _dataset, graph, k, host = _random_instance(seed)
            rule = smallest_valid_cluster_rule(graph, host, k)
            scan = oracle_smallest_cluster(graph, host, k)
            scan_set = None if scan is None else set(scan[0])
            if rule != scan_set:
                mismatches.append((seed, "rule-vs-scan", rule, scan_set))
                continue
            exact = oracle_min_mew_clusters(graph, host, k)
            if (exact is None) != (scan is None):
                mismatches.append((seed, "exhaustive-vs-scan-existence"))
                continue
            if exact is None or scan is None:
                continue
            t_exact, minimizers = exact
            cluster, t_scan = scan
            if t_exact != t_scan:
                mismatches.append((seed, "min-mew-t", t_exact, t_scan))
            if not all(subset <= cluster for subset in minimizers):
                mismatches.append((seed, "minimizer-escape"))
        assert mismatches == []

    def test_bounding_matches_oracles(self):
        mismatches = []
        for seed in range(self.INSTANCES):
            dataset, graph, k, host = _random_instance(seed)
            scan = oracle_smallest_cluster(graph, host, k)
            if scan is None:
                continue
            members = sorted(scan[0])
            points = [dataset[m] for m in members]
            oracle = oracle_bounding_box(points)
            if optimal_bounding_box(points) != oracle:
                mismatches.append((seed, "optimal-box"))
            progressive = secure_bounding_box(
                points, members.index(host), lambda: LinearPolicy(0.05)
            )
            if not progressive.region.contains_rect(oracle):
                mismatches.append((seed, "progressive-undershoot"))
        assert mismatches == []

    def test_isolation_checker_matches_oracle(self):
        mismatches = []
        for seed in range(self.INSTANCES // 4):
            _dataset, graph, k, host = _random_instance(seed)
            scan = oracle_smallest_cluster(graph, host, k)
            if scan is None:
                continue
            cluster = set(scan[0])
            witness = isolation_counterexample(graph, cluster, k)
            oracle = oracle_isolation_violations(graph, cluster, k)
            if (witness is None) != (not oracle):
                mismatches.append((seed, witness, oracle))
        assert mismatches == []
