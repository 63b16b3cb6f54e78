"""Micro-benchmarks of the core primitives (real multi-round timings).

Unlike the figure benchmarks (one-shot macro experiments), these measure
the steady-state cost of the operations a deployment performs per
request: WPG construction, dendrogram building, a distributed clustering
request, and a secure bounding run.
"""

import pytest

from repro.bounding.boxing import secure_bounding_box
from repro.bounding.presets import paper_policy
from repro.clustering.distributed import DistributedClustering
from repro.config import SimulationConfig
from repro.datasets import california_like_poi
from repro.experiments.workloads import sample_hosts
from repro.graph.build import build_wpg_fast
from repro.graph.dendrogram import single_linkage_dendrogram

USERS = 6000
DELTA = 2e-3 * (104770 / USERS) ** 0.5


@pytest.fixture(scope="module")
def dataset():
    return california_like_poi(USERS, seed=3)


@pytest.fixture(scope="module")
def graph(dataset):
    return build_wpg_fast(dataset, DELTA, 10)


def test_wpg_build(benchmark, dataset):
    graph = benchmark.pedantic(
        build_wpg_fast, args=(dataset, DELTA, 10), rounds=3, iterations=1
    )
    assert graph.vertex_count == USERS


def test_dendrogram_build(benchmark, graph):
    roots = benchmark.pedantic(
        single_linkage_dendrogram, args=(graph,), rounds=3, iterations=1
    )
    assert sum(root.size for root in roots) == USERS


def test_distributed_request(benchmark, graph):
    hosts = iter(sample_hosts(graph, 10, 400, seed=4))

    def one_request():
        algo = DistributedClustering(graph, 10)
        return algo.request(next(hosts))

    result = benchmark.pedantic(one_request, rounds=30, iterations=1)
    assert result.size >= 10


def test_secure_bounding_run(benchmark, dataset, graph):
    config = SimulationConfig(user_count=USERS, delta=DELTA)
    algo = DistributedClustering(graph, 10)
    host = sample_hosts(graph, 10, 1, seed=5)[0]
    members = sorted(algo.request(host).members)
    points = [dataset[i] for i in members]

    def bound():
        return secure_bounding_box(
            points,
            host_index=0,
            policy_factory=lambda: paper_policy("secure", len(points), config),
        )

    result = benchmark.pedantic(bound, rounds=30, iterations=1)
    assert all(result.region.contains(p) for p in points)
