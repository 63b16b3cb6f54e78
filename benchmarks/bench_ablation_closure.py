"""Ablation: Algorithm 2 step-1 closure on/off.

DESIGN.md documents two readings of "the smallest valid t-connectivity
cluster": the bare Prim span of size k (paper Fig. 7's walkthrough,
default) and the full t-closed equivalence class (the form Theorem 4.4 is
stated over).  Near the percolation threshold of rank-weighted WPGs the
closed cluster can be an order of magnitude larger — this benchmark
records the cost/size gap that justifies the default.
"""

import statistics

from conftest import record

from repro.analysis.reporting import format_table
from repro.clustering.distributed import DistributedClustering
from repro.datasets import california_like_poi
from repro.experiments.workloads import sample_hosts
from repro.graph.build import build_wpg_fast

USERS = 6000
K = 10


def test_closure_cost_blowup(benchmark, results_dir):
    dataset = california_like_poi(USERS, seed=3)
    graph = build_wpg_fast(dataset, delta=2e-3 * (104770 / USERS) ** 0.5, max_peers=10)
    hosts = sample_hosts(graph, K, 150, seed=9)

    def run(closure):
        algo = DistributedClustering(graph, K, closure=closure)
        costs, sizes = [], []
        for host in hosts:
            try:
                result = algo.request(host)
            except Exception:
                continue
            if not result.from_cache:
                costs.append(result.involved)
                sizes.append(result.size)
        return costs, sizes

    bare_costs, bare_sizes = benchmark.pedantic(
        run, args=(False,), rounds=1, iterations=1
    )
    closed_costs, closed_sizes = run(True)

    table = format_table(
        ["variant", "served", "avg involved", "avg cluster size"],
        [
            ["prim (default)", len(bare_costs), statistics.mean(bare_costs),
             statistics.mean(bare_sizes)],
            ["t-closed", len(closed_costs), statistics.mean(closed_costs),
             statistics.mean(closed_sizes)],
        ],
    )
    record(results_dir, "ablation_closure", table)
    # Closure gathers strictly more users per request on clustered data.
    assert statistics.mean(closed_costs) > statistics.mean(bare_costs)
