"""Ablation: Algorithm 1 implementation and semantics choices.

Two design decisions DESIGN.md calls out:

* the cluster-tree kernel (``strict_partition``) vs the literal
  edge-removal translation kept in :mod:`repro.verify.oracles`
  (identical output, asymptotically cheaper);
* strict t-component semantics vs the greedy edge-skip fixpoint (the
  straggler effect: strict freezes large components, greedy carves them
  into near-k clusters — the behaviour the paper's measurements need).
"""

import statistics
import time

from conftest import record

from repro.analysis.reporting import format_table
from repro.clustering.centralized import greedy_partition, strict_partition
from repro.datasets import california_like_poi
from repro.graph.build import build_wpg_fast
from repro.verify.oracles import oracle_strict_partition

USERS = 4000
K = 10


def _graph():
    dataset = california_like_poi(USERS, seed=3)
    return build_wpg_fast(dataset, delta=2e-3 * (104770 / USERS) ** 0.5, max_peers=10)


def test_kernel_vs_literal_strict(benchmark, results_dir):
    graph = _graph()
    kernel = benchmark.pedantic(
        strict_partition, args=(graph, K), rounds=3, iterations=1
    )
    start = time.perf_counter()
    strict_partition(graph, K)
    kernel_seconds = time.perf_counter() - start
    start = time.perf_counter()
    literal = oracle_strict_partition(graph, K)
    literal_seconds = time.perf_counter() - start
    table = format_table(
        ["strict partition", "seconds"],
        [
            ["cluster tree (strict_partition)", round(kernel_seconds, 4)],
            ["literal oracle", round(literal_seconds, 4)],
        ],
    )
    record(results_dir, "ablation_partition_kernel_vs_literal", table)
    assert sorted(sorted(c) for c in kernel.all_groups()) == sorted(
        sorted(c) for c in literal
    )


def test_strict_vs_greedy_cluster_quality(benchmark, results_dir):
    graph = _graph()
    greedy = benchmark.pedantic(
        greedy_partition, args=(graph, K), rounds=1, iterations=1
    )
    strict = strict_partition(graph, K)

    def describe(partition, name):
        sizes = sorted(len(c) for c in partition.clusters)
        return [
            name,
            len(partition.clusters),
            statistics.median(sizes) if sizes else 0,
            sizes[-1] if sizes else 0,
        ]

    table = format_table(
        ["semantics", "clusters", "median size", "max size"],
        [describe(strict, "strict"), describe(greedy, "greedy")],
    )
    record(results_dir, "ablation_partition_semantics", table)

    greedy_max = max(len(c) for c in greedy.clusters)
    strict_max = max(len(c) for c in strict.clusters)
    # The straggler effect: strict freezes whole components (hundreds of
    # users) that greedy carves into near-k clusters.  A greedy cluster
    # can exceed 2k - 1 only when every split of it would strand a piece,
    # which keeps it within a small multiple of k.
    assert greedy_max < 3 * K
    assert strict_max > 2 * greedy_max
