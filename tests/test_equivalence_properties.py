"""Cross-layer equivalence properties (hypothesis over random worlds).

The strongest correctness evidence in this repository: for arbitrary
random populations, the analytic algorithms and their message-level
executions agree exactly, and both satisfy the paper's invariants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounding.p2p import p2p_upper_bound
from repro.bounding.policies import ExponentialPolicy, LinearPolicy
from repro.bounding.protocol import progressive_upper_bound
from repro.clustering.distributed import DistributedClustering
from repro.clustering.protocol import P2PClusteringProtocol
from repro.datasets import uniform_points
from repro.errors import ClusteringError
from repro.graph.build import build_wpg_fast
from repro.network.node import populate_network
from repro.network.simulator import PeerNetwork


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100), k=st.integers(2, 6), host=st.integers(0, 119))
def test_property_wire_equals_analytic_clustering(seed, k, host):
    """For any random world, the wire protocol = the analytic algorithm.

    Same cluster membership, same connectivity, and a fetch count equal
    to the analytic involved-user count.
    """
    dataset = uniform_points(120, seed=seed)
    graph = build_wpg_fast(dataset, delta=0.15, max_peers=6)
    try:
        expected = DistributedClustering(graph, k).request(host)
    except ClusteringError:
        return  # host not clusterable in this world: nothing to compare
    network = PeerNetwork()
    populate_network(network, graph, list(dataset.points))
    report = P2PClusteringProtocol(network, graph, k).request(host)
    assert report.result.members == expected.members
    assert report.result.connectivity == expected.connectivity
    assert report.adjacency_fetches == expected.involved


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 100),
    step=st.floats(min_value=0.01, max_value=0.3),
    exponential=st.booleans(),
)
def test_property_wire_equals_analytic_bounding(seed, step, exponential):
    """Wire-level bounding reaches the same bound as the analytic run."""
    dataset = uniform_points(40, seed=seed)
    graph = build_wpg_fast(dataset, delta=0.5, max_peers=6)
    network = PeerNetwork()
    populate_network(network, graph, list(dataset.points))
    members = list(range(12))
    host = 0
    values = [dataset[m].x for m in members]
    make = (lambda: ExponentialPolicy(step)) if exponential else (
        lambda: LinearPolicy(step)
    )
    analytic = progressive_upper_bound(values, dataset[host].x, make())
    wire = p2p_upper_bound(
        network, host, members, axis=0, sign=1.0,
        start=dataset[host].x, policy=make(),
    )
    assert wire.outcome.bound == pytest.approx(analytic.bound)
    assert wire.outcome.iterations == analytic.iterations


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 60), k=st.integers(2, 5))
def test_property_workload_invariants_random_worlds(seed, k):
    """Across a whole random workload: reciprocity, coverage, anonymity."""
    dataset = uniform_points(150, seed=seed)
    graph = build_wpg_fast(dataset, delta=0.12, max_peers=6)
    algo = DistributedClustering(graph, k)
    served_members: set[int] = set()
    for host in range(0, 150, 4):
        try:
            result = algo.request(host)
        except ClusteringError:
            continue
        assert host in result.members
        assert result.size >= k
        if not result.from_cache:
            # Fresh clusters never overlap previously served users.
            assert not (result.members & served_members) or (
                result.members <= served_members
            )
        served_members |= result.members
    algo.registry.check_reciprocity()
