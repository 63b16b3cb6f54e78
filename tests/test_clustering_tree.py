"""TreeClustering vs the closure reading of Algorithm 2, record for record.

The tree service claims bit-identity with
``DistributedClustering(closure=True)`` at the member/partition level —
these tests serve randomized request sequences through both and compare
results, error strings and full registry contents, then exercise the
marked-leaf fallback and the engine integration (``clustering="tree"``)
including churn patches.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.clustering.base import ClusterRegistry
from repro.clustering.distributed import DistributedClustering
from repro.clustering.tree import TreeClustering
from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.errors import ClusteringError, ConfigurationError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.cluster_tree import ClusterTree
from repro.graph.wpg import WeightedProximityGraph
from repro.obs import names as metric


def random_graph(rng: random.Random, n: int, density: float) -> WeightedProximityGraph:
    graph = WeightedProximityGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.randint(1, 6)))
    return graph


def serve_both(graph, k, method, hosts):
    reference = DistributedClustering(
        graph, k, ClusterRegistry(), method=method, closure=True
    )
    service = TreeClustering(graph.copy(), k, ClusterRegistry(), method=method)
    for host in hosts:
        try:
            ref_result, ref_error = reference.request(host), None
        except ClusteringError as exc:
            ref_result, ref_error = None, str(exc)
        try:
            tree_result, tree_error = service.request(host), None
        except ClusteringError as exc:
            tree_result, tree_error = None, str(exc)
        assert tree_error == ref_error, (host, tree_error, ref_error)
        if ref_result is None:
            continue
        assert tree_result.members == ref_result.members, host
        assert tree_result.from_cache == ref_result.from_cache, host
        if not ref_result.from_cache:
            assert tree_result.connectivity == ref_result.connectivity, host
    return reference, service


def test_matches_closure_distributed_on_random_sequences():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        graph = random_graph(rng, n, rng.uniform(0.03, 0.3))
        k = rng.randint(1, 5)
        method = rng.choice(["greedy", "strict"])
        hosts = list(range(n))
        rng.shuffle(hosts)
        reference, service = serve_both(graph, k, method, hosts)
        # Same clusters registered in the same order.
        assert [
            reference.registry.cluster_by_id(i)
            for i in range(len(reference.registry))
        ] == [
            service.registry.cluster_by_id(i)
            for i in range(len(service.registry))
        ], seed


def test_cached_result_is_field_for_field_identical():
    rng = random.Random(3)
    graph = random_graph(rng, 20, 0.25)
    service = TreeClustering(graph, 3)
    first = service.request(0)
    again = service.request(0)
    assert again.host == 0
    assert again.members == first.members
    assert again.involved == 0
    assert again.connectivity == 0.0
    assert again.from_cache is True


def test_unknown_host_and_bad_k():
    graph = WeightedProximityGraph()
    graph.add_vertex(0)
    with pytest.raises(ConfigurationError):
        TreeClustering(graph, 0)
    service = TreeClustering(graph, 1)
    with pytest.raises(ClusteringError, match="unknown host"):
        service.request(5)


def test_undersized_component_fails_with_distributed_message():
    graph = WeightedProximityGraph()
    for v in range(3):
        graph.add_vertex(v)
    graph.add_edge(0, 1, 1.0)  # vertex 2 isolated
    service = TreeClustering(graph, 3)
    with pytest.raises(
        ClusteringError, match=r"fewer than k=3 reachable users remain"
    ):
        service.request(0)


def test_preassigned_registry_marks_and_falls_back(two_blobs_graph):
    # Users 4, 5 were clustered elsewhere before this service started:
    # blob B's node is marked, so a request from 6 cannot use the
    # oblivious tree walk and must take the exclusion-aware fallback.
    registry = ClusterRegistry()
    registry.register([4, 5])
    obs.enable()
    obs.reset()
    service = TreeClustering(two_blobs_graph, 2, registry)
    assert service.tree.marked == frozenset({4, 5})
    result = service.request(6)
    reference = DistributedClustering(
        two_blobs_graph, 2, closure=True
    )
    # The fallback excludes 4 and 5 exactly as a plain distributed pass
    # with the same registry would.
    expected = DistributedClustering(
        two_blobs_graph, 2, registry=None, closure=True
    )
    snapshot = obs.snapshot()["counters"]
    assert snapshot.get(metric.CLUSTERING_TREE_FALLBACKS) == 1.0
    assert not snapshot.get(metric.CLUSTERING_TREE_FAST)
    assert result.members == frozenset({6, 7})
    # The fallback's members are marked too, keeping later guards exact.
    assert service.tree.marked == frozenset({4, 5, 6, 7})
    del reference, expected


def test_fast_path_counters(two_blobs_graph):
    obs.enable()
    obs.reset()
    service = TreeClustering(two_blobs_graph, 4)
    service.request(0)
    service.request(0)  # cache hit
    snapshot = obs.snapshot()["counters"]
    assert snapshot.get(metric.CLUSTERING_TREE_FAST) == 1.0
    assert snapshot.get(metric.CLUSTERING_CACHE_HITS) == 1.0
    assert snapshot.get(metric.CLUSTERING_REQUESTS) == 2.0


# -- engine integration --------------------------------------------------------


def build_engine(n, seed, k, clustering):
    dataset = uniform_points(n, seed=seed)
    config = SimulationConfig(
        user_count=n, delta=0.18, max_peers=5, k=k, seed=seed
    )
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    if clustering == "reference":
        service = DistributedClustering(graph, k, closure=True)
        return CloakingEngine(
            dataset, graph, config, policy="secure", clustering=service
        )
    return CloakingEngine(
        dataset, graph, config, policy="secure", clustering=clustering
    )


def test_engine_tree_optin_matches_closure_reference_through_churn():
    rng = random.Random(17)
    n, k = 50, 3
    tree_engine = build_engine(n, 5, k, "tree")
    reference = build_engine(n, 5, k, "reference")
    assert isinstance(tree_engine.clustering, TreeClustering)
    hosts = rng.sample(range(n), 12)

    def compare_pass():
        for host in hosts:
            try:
                a, ea = tree_engine.request(host), None
            except ClusteringError as exc:
                a, ea = None, str(exc)
            try:
                b, eb = reference.request(host), None
            except ClusteringError as exc:
                b, eb = None, str(exc)
            assert ea == eb, host
            if a is None:
                continue
            assert a.cluster.members == b.cluster.members, host
            assert a.region.rect == b.region.rect, host
            assert a.region_from_cache == b.region_from_cache, host

    compare_pass()
    for _batch in range(4):
        moves = [
            (user, Point(rng.random(), rng.random()))
            for user in rng.sample(range(n), 5)
        ]
        tree_engine.apply_moves(moves)
        reference.apply_moves(moves)
        # The engine hook kept the tree identical to a fresh build.
        live = tree_engine.clustering.tree
        assert sorted(live.node_signatures()) == sorted(
            ClusterTree(tree_engine.graph).node_signatures()
        )
    compare_pass()


def test_engine_rejects_unknown_clustering_name():
    dataset = uniform_points(10, seed=1)
    config = SimulationConfig(user_count=10, delta=0.3, max_peers=4, k=2)
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    with pytest.raises(ConfigurationError, match="unknown clustering service"):
        CloakingEngine(dataset, graph, config, clustering="treee")
