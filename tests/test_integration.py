"""End-to-end integration tests: the full Fig. 3 workflow.

These tests run the entire pipeline — dataset, radio, WPG, two-phase
cloaking, LBS query — and assert the *system-level* guarantees the paper
promises, rather than any single module's behaviour.
"""

import pytest

from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets import california_like_poi
from repro.errors import ReproError
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast
from repro.server.costs import total_request_cost
from repro.server.poidb import POIDatabase
from repro.server.queries import filter_exact_knn, range_knn_query


@pytest.fixture(scope="module")
def world():
    config = SimulationConfig(
        user_count=3000, delta=0.012, max_peers=10, k=8, request_count=40
    )
    dataset = california_like_poi(3000, seed=5)
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    return config, dataset, graph


@pytest.mark.parametrize("mode", ["distributed", "centralized"])
def test_full_pipeline_guarantees(world, mode):
    """Every served request yields a k-anonymous, reciprocal, covering region."""
    config, dataset, graph = world
    engine = CloakingEngine(dataset, graph, config, mode=mode, policy="secure")
    db = POIDatabase(dataset)
    served = 0
    for host in range(0, 400, 7):
        try:
            result = engine.request(host)
        except ReproError:
            continue  # host not k-clusterable at this density
        served += 1
        # k-anonymity with reciprocity.
        assert result.region.satisfies(config.k)
        assert host in result.cluster.members
        # The region covers every member's true position (correctness of
        # secure bounding) while exposing no coordinate to the protocol.
        for member in result.cluster.members:
            assert result.region.rect.contains(dataset[member])
        # The region is a sane query target.
        assert Rect.unit_square().contains_rect(result.region.rect)
        cost = total_request_cost(
            db,
            result.region.rect,
            result.clustering_messages,
            result.bounding_messages,
            config,
        )
        assert cost > 0
    assert served >= 20
    engine.clustering.registry.check_reciprocity()


def test_cluster_members_share_identical_region(world):
    """An adversary seeing requests from any two members of one cluster
    observes the same rectangle — the indistinguishability argument."""
    config, dataset, graph = world
    engine = CloakingEngine(dataset, graph, config)
    first = engine.request(0)
    regions = {engine.request(m).region.rect for m in first.cluster.members}
    assert regions == {first.region.rect}


def test_cloaked_query_end_to_end(world):
    """A member can answer its own kNN question from the candidate set."""
    config, dataset, graph = world
    engine = CloakingEngine(dataset, graph, config)
    result = engine.request(0)
    db = POIDatabase(dataset)
    candidates = range_knn_query(db, result.region.rect, 5)
    refined = filter_exact_knn(db, candidates, dataset[0], 5)
    truth = sorted(
        range(len(db)), key=lambda i: dataset[0].squared_distance_to(db.poi(i))
    )[:5]
    assert refined == truth


def test_distributed_and_centralized_regions_both_valid(world):
    """Both Fig. 3 paths produce valid (not necessarily equal) cloaks."""
    config, dataset, graph = world
    dist = CloakingEngine(dataset, graph, config, mode="distributed")
    cent = CloakingEngine(dataset, graph, config, mode="centralized")
    a = dist.request(10)
    b = cent.request(10)
    for result in (a, b):
        assert result.region.satisfies(config.k)
        assert dataset[10].x <= result.region.rect.x_max


def test_message_level_equals_analytic_pipeline(world):
    """The message-level protocol stack reproduces the analytic phase 1."""
    from repro.clustering.distributed import DistributedClustering
    from repro.clustering.protocol import P2PClusteringProtocol
    from repro.network.node import populate_network
    from repro.network.simulator import PeerNetwork

    config, dataset, graph = world
    net = PeerNetwork()
    populate_network(net, graph, list(dataset.points))
    analytic = DistributedClustering(graph, config.k)
    wire = P2PClusteringProtocol(net, graph, config.k)
    for host in (0, 33, 101):
        try:
            expected = analytic.request(host)
        except ReproError:
            continue
        got = wire.request(host)
        assert got.result.members == expected.members
        assert got.adjacency_fetches == expected.involved
