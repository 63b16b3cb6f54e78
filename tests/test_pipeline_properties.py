"""System-level properties over realistic (dataset-built) WPGs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.centralized import greedy_partition, strict_partition
from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets import gaussian_clusters, uniform_points
from repro.errors import ReproError
from repro.graph.build import build_wpg_fast
from repro.graph.components import connected_components


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 100),
    k=st.integers(2, 8),
    clustered=st.booleans(),
)
def test_property_partition_valid_on_dataset_wpgs(seed, k, clustered):
    """Algorithm 1 stays correct on WPGs built from real-ish geometry.

    Both semantics must produce complete, disjoint partitions whose
    invalid pieces are exactly the undersized connected components.
    """
    dataset = (
        gaussian_clusters(300, clusters=5, spread=0.05, seed=seed)
        if clustered
        else uniform_points(300, seed=seed)
    )
    graph = build_wpg_fast(dataset, delta=0.08, max_peers=6)
    undersized = {
        frozenset(c)
        for c in connected_components(graph)
        if len(c) < k
    }
    for semantics in (strict_partition, greedy_partition):
        partition = semantics(graph, k)
        partition.validate()
        assert partition.covered == graph.vertex_count
        assert {frozenset(p) for p in partition.invalid} == undersized


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 50))
def test_property_engine_is_deterministic(seed):
    """Two engines over the same world serve identical results.

    Determinism is what makes every number in EXPERIMENTS.md
    reproducible; any hidden iteration-order dependence breaks it.
    """
    dataset = uniform_points(250, seed=seed)
    config = SimulationConfig(
        user_count=250, delta=0.12, max_peers=6, k=5, request_count=10
    )
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)

    def serve():
        engine = CloakingEngine(dataset, graph, config, policy="secure")
        results = []
        for host in range(0, 250, 17):
            try:
                outcome = engine.request(host)
            except ReproError:
                results.append(None)
                continue
            results.append(
                (
                    outcome.cluster.members,
                    outcome.region.rect,
                    outcome.clustering_messages,
                    outcome.bounding_messages,
                )
            )
        return results

    assert serve() == serve()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 50), k=st.integers(3, 8))
def test_property_greedy_never_worse_count_than_strict(seed, k):
    """Greedy refines strict, so it never produces fewer clusters."""
    dataset = gaussian_clusters(250, clusters=4, spread=0.04, seed=seed)
    graph = build_wpg_fast(dataset, delta=0.1, max_peers=6)
    strict = strict_partition(graph, k)
    greedy = greedy_partition(graph, k)
    assert len(greedy.clusters) >= len(strict.clusters)
    # And all its valid clusters stay within [k, a small multiple of k).
    assert all(k <= len(c) for c in greedy.clusters)


def test_cross_metric_consistency():
    """Clustering cost and region metrics agree between harness and engine."""
    from repro.experiments.harness import ExperimentSetup, run_clustering_workload
    from repro.experiments.workloads import sample_hosts

    setup = ExperimentSetup.paper_default(users=3000, requests=40)
    config = setup.base_config
    graph = setup.graph(config)
    hosts = sample_hosts(graph, config.k, 40, seed=3)
    workload = run_clustering_workload(
        setup, "t-conn", config, hosts, graph=graph
    )

    engine = CloakingEngine(setup.dataset, graph, config, policy="optimal")
    total_cost = 0
    areas = []
    for host in hosts:
        try:
            result = engine.request(host)
        except ReproError:
            continue
        total_cost += result.clustering_messages
        areas.append(result.region.area)
    assert total_cost == sum(workload.per_request_costs)
    assert sum(areas) == pytest.approx(sum(workload.per_request_areas))
