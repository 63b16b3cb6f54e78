"""WPG construction and request-path throughput at production scale.

Regenerates ``BENCH_wpg.json``: the build's time against the per-user
reference (:func:`repro.verify.oracles.oracle_build_wpg`, timed as
``scalar_seconds``) with an edge-level equality cross-check, plus batched
request throughput, region-cache hit rate, and an LBS request-cost pass,
at each population size.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_wpg_scale.py \
        --sizes 10000,50000 --requests 2000 --out BENCH_wpg.json

With ``--obs`` (or ``REPRO_OBS=1``) the run records itself through
:mod:`repro.obs` and each size record gains an ``obs`` section: the
per-phase wall-time breakdown (``wpg_build`` / ``clustering`` /
``bounding`` / ``server``), its coverage of the measured wall time, and
the full metrics snapshot (readable with ``python -m repro.obs.report``).

The output schema (``bench_wpg/v3``)::

    {
      "schema": "bench_wpg/v3",
      "max_peers": 10, "k": 10, "seed": 3, "requests": 2000,
      "obs_enabled": false,
      "sizes": [
        {
          "users": 50000, "delta": 0.0029, "edges": 172660,
          "build": {
            "scalar_seconds": ..., "fast_seconds": ...,
            "speedup": ..., "graphs_equal": true
          },
          "requests": {
            "count": 2000, "seconds": ...,
            "requests_per_second": ..., "cache_hit_rate": ...
          },
          "clustering": {                 # phase-1 only, same workload
            "count": 2000, "failed": ...,
            "distributed": {"seconds": ..., "requests_per_second": ...},
            "tree": {
              "build_seconds": ..., "seconds": ...,
              "requests_per_second": ..., "fallbacks": ...
            },
            "speedup": ...,               # distributed s / tree s
            "partitions_equal": true      # same registry, same order
          },
          "server": {
            "pois": 2000, "seconds": ..., "cost_messages": ...
          },
          "obs": {                      # only with --obs / REPRO_OBS=1
            "phases": {"wpg_build": ..., "clustering": ...,
                       "bounding": ..., "server": ...},
            "total_wall_seconds": ...,
            "coverage_of_wall": ...,
            "snapshot": { ... }         # obs/v1 snapshot
          }
        }, ...
      ]
    }

The file is a plain script (no pytest fixtures) so ``pytest benchmarks/``
collects nothing from it; the CI smoke invokes it at a small population
and validates the emitted JSON (including the obs snapshot against
``benchmarks/obs_snapshot_schema.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.cloaking.engine import CloakingEngine
from repro.clustering.distributed import DistributedClustering
from repro.clustering.tree import TreeClustering
from repro.config import SimulationConfig
from repro.datasets.california import california_like_poi
from repro.errors import ClusteringError
from repro.experiments.workloads import clusterable_users
from repro.graph.build import build_wpg_fast
from repro.graph.cluster_tree import ClusterTree
from repro.obs import names as metric
from repro.server.costs import request_cost_messages
from repro.server.poidb import POIDatabase
from repro.verify.oracles import oracle_build_wpg

PAPER_USERS = 104_770
PAPER_DELTA = 2e-3
MAX_PEERS = 10
SERVER_POIS = 2_000


def scaled_delta(users: int) -> float:
    """The paper's radio range, scaled to preserve WPG density."""
    return PAPER_DELTA * (PAPER_USERS / users) ** 0.5


def edge_dict(graph) -> dict[tuple[int, int], float]:
    return {edge.key(): edge.weight for edge in graph.edges()}


def _span_total(snapshot: dict, name: str) -> float:
    """Total recorded seconds of span ``name`` (0 when it never fired)."""
    entry = snapshot["spans"].get(name)
    return entry["total"] if entry else 0.0


def _serve_phase1(service, workload: list[int]) -> tuple[float, int]:
    """Time a raw phase-1 request stream; returns (seconds, failures)."""
    failed = 0
    t0 = time.perf_counter()
    for host in workload:
        try:
            service.request(host)
        except ClusteringError:
            failed += 1
    return time.perf_counter() - t0, failed


def _tree_fallbacks() -> float | None:
    if not obs.enabled():
        return None
    return obs.snapshot()["counters"].get(metric.CLUSTERING_TREE_FALLBACKS, 0.0)


def bench_clustering(graph, k: int, workload: list[int]) -> dict:
    """Phase-1 clustering throughput: closure flood vs cluster-tree walk.

    Both services get a fresh registry and the identical host stream; the
    tree's answers are checked registry-identical (same clusters, same
    registration order) against the ``DistributedClustering(closure=True)``
    reference it claims bit-identity with.  The dendrogram build is
    reported separately — it is paid once per population, not per request.
    """
    reference = DistributedClustering(graph, k, closure=True)
    distributed_seconds, distributed_failed = _serve_phase1(reference, workload)

    fallbacks_before = _tree_fallbacks()
    t0 = time.perf_counter()
    tree = ClusterTree(graph)
    tree_build_seconds = time.perf_counter() - t0
    service = TreeClustering(graph, k, tree=tree)
    tree_seconds, tree_failed = _serve_phase1(service, workload)
    fallbacks = (
        None
        if fallbacks_before is None
        else _tree_fallbacks() - fallbacks_before
    )

    partitions_equal = distributed_failed == tree_failed and [
        reference.registry.cluster_by_id(i)
        for i in range(len(reference.registry))
    ] == [
        service.registry.cluster_by_id(i)
        for i in range(len(service.registry))
    ]
    return {
        "count": len(workload),
        "failed": distributed_failed,
        "distributed": {
            "seconds": round(distributed_seconds, 4),
            "requests_per_second": round(
                len(workload) / distributed_seconds, 1
            ),
        },
        "tree": {
            "build_seconds": round(tree_build_seconds, 4),
            "seconds": round(tree_seconds, 4),
            "requests_per_second": round(len(workload) / tree_seconds, 1),
            "fallbacks": fallbacks,
        },
        "speedup": round(distributed_seconds / tree_seconds, 2),
        "partitions_equal": partitions_equal,
    }


def bench_size(users: int, requests: int, seed: int) -> dict:
    """Benchmark one population size; returns the per-size JSON record."""
    if obs.enabled():
        obs.reset()  # one observation window per population size

    dataset = california_like_poi(users, seed=seed)
    delta = scaled_delta(users)

    t0 = time.perf_counter()
    fast = build_wpg_fast(dataset, delta, MAX_PEERS)
    fast_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar = oracle_build_wpg(dataset, delta, MAX_PEERS)
    scalar_seconds = time.perf_counter() - t0

    graphs_equal = (
        set(fast.vertices()) == set(scalar.vertices())
        and edge_dict(fast) == edge_dict(scalar)
    )

    config = SimulationConfig(user_count=users, delta=delta, max_peers=MAX_PEERS)
    engine = CloakingEngine(dataset, fast, config)
    # Hosts drawn with replacement: repeats and cluster mates exercise
    # the region cache exactly like a production request stream would.
    pool = clusterable_users(fast, config.k)
    rng = np.random.default_rng(seed)
    workload = [int(h) for h in rng.choice(pool, size=requests, replace=True)]

    t0 = time.perf_counter()
    results = engine.request_many(workload)
    request_seconds = time.perf_counter() - t0
    hits = sum(1 for r in results if r.region_from_cache)

    # The service-request leg: charge every cloaked region at the LBS
    # server (Cr per candidate POI), one query per served request.
    db = POIDatabase(california_like_poi(SERVER_POIS, seed=seed + 1))
    t0 = time.perf_counter()
    cost_messages = sum(
        request_cost_messages(db, r.region.rect, config) for r in results
    )
    server_seconds = time.perf_counter() - t0

    clustering = bench_clustering(fast, config.k, workload)

    record = {
        "users": users,
        "delta": delta,
        "edges": fast.edge_count,
        "build": {
            "scalar_seconds": round(scalar_seconds, 4),
            "fast_seconds": round(fast_seconds, 4),
            "speedup": round(scalar_seconds / fast_seconds, 2),
            "graphs_equal": graphs_equal,
        },
        "requests": {
            "count": len(results),
            "seconds": round(request_seconds, 4),
            "requests_per_second": round(len(results) / request_seconds, 1),
            "cache_hit_rate": round(hits / len(results), 4),
        },
        "clustering": clustering,
        "server": {
            "pois": SERVER_POIS,
            "seconds": round(server_seconds, 4),
            "cost_messages": cost_messages,
        },
    }
    if obs.enabled():
        snapshot = obs.snapshot()
        # The four pipeline phases, measured from the inside by their
        # spans.  wpg_build covers the build only — the oracle rebuild
        # above is the cross-check, not part of the pipeline.
        phases = {
            "wpg_build": _span_total(snapshot, metric.SPAN_BUILD_FAST),
            "clustering": _span_total(snapshot, metric.SPAN_CLUSTERING),
            "bounding": _span_total(snapshot, metric.SPAN_BOUNDING),
            "server": _span_total(snapshot, metric.SPAN_REQUEST_COST),
        }
        total_wall = fast_seconds + request_seconds + server_seconds
        record["obs"] = {
            "phases": {name: round(value, 4) for name, value in phases.items()},
            "total_wall_seconds": round(total_wall, 4),
            "coverage_of_wall": round(sum(phases.values()) / total_wall, 4),
            "snapshot": snapshot,
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="10000,50000",
        help="comma-separated population sizes (default: 10000,50000)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=2000,
        help="requests per size for the throughput phase (default: 2000)",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--out",
        default="BENCH_wpg.json",
        help="output path (default: BENCH_wpg.json)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="record per-phase breakdowns via repro.obs (also: REPRO_OBS=1)",
    )
    args = parser.parse_args(argv)
    if args.obs:
        obs.enable()
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        parser.error(f"--sizes has no population sizes: {args.sizes!r}")
    if any(s < 1 for s in sizes):
        parser.error(f"--sizes must all be >= 1, got {sizes}")

    records = []
    for users in sizes:
        record = bench_size(users, args.requests, args.seed)
        build, reqs = record["build"], record["requests"]
        print(
            f"users={users}: build scalar {build['scalar_seconds']}s, "
            f"fast {build['fast_seconds']}s ({build['speedup']}x, "
            f"equal={build['graphs_equal']}), "
            f"{reqs['requests_per_second']} req/s, "
            f"cache hit rate {reqs['cache_hit_rate']}"
        )
        clu = record["clustering"]
        print(
            f"  clustering: distributed "
            f"{clu['distributed']['requests_per_second']} req/s, tree "
            f"{clu['tree']['requests_per_second']} req/s "
            f"({clu['speedup']}x, build {clu['tree']['build_seconds']}s, "
            f"partitions_equal={clu['partitions_equal']})"
        )
        if "obs" in record:
            phases = record["obs"]["phases"]
            breakdown = ", ".join(f"{k} {v}s" for k, v in phases.items())
            print(
                f"  phases: {breakdown} "
                f"(covers {record['obs']['coverage_of_wall']:.0%} of wall)"
            )
        records.append(record)

    payload = {
        "schema": "bench_wpg/v3",
        "max_peers": MAX_PEERS,
        "k": SimulationConfig().k,
        "seed": args.seed,
        "requests": args.requests,
        "obs_enabled": obs.enabled(),
        "sizes": records,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    equal = all(
        r["build"]["graphs_equal"] and r["clustering"]["partitions_equal"]
        for r in records
    )
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
