"""Dynamic-population churn: incremental maintenance vs rebuild-per-tick.

Regenerates ``BENCH_churn.json``: a sustained interleaved workload
(random-waypoint move batches + cloaking requests, tick after tick)
served two ways from identical schedules —

* **incremental** — one long-lived :class:`CloakingEngine` whose grid
  and WPG are patched in place by ``engine.apply_moves`` (the churn
  runtime), with the region cache surviving across ticks;
* **rebuild** — the pre-churn baseline: every tick tears the world down
  and rebuilds ``GridIndex`` + ``build_wpg_fast`` + a fresh engine from
  the current positions;
* **tree** — the incremental runtime with the cluster-tree fast path
  (``clustering="tree"``): ``apply_moves`` additionally patches the
  persistent :class:`~repro.graph.cluster_tree.ClusterTree`, and every
  request resolves by tree walk.

All paths serve the same host sequence; the final incremental and tree
graphs are cross-checked edge-for-edge against a from-scratch rebuild
of the final positions, and the tree leg's churn-patched cluster tree
against a fresh ``ClusterTree`` of that rebuild: every component's
preorder columns (child order included) and every vertex's constrained
Kruskal forest edges.  Every failed request is classified *outside*
the latency timing against the exact level-scan oracle
(:func:`repro.verify.oracles.oracle_smallest_cluster`, excluding the
already-assigned users): ``sub_k`` means the oracle agrees no valid
cluster exists (the paper's Fig. 5 failure regime), ``defect`` means
the oracle found one the engine missed — a correctness bug, reported as
a first-class column instead of vanishing into a bare count.  Run as a
script::

    PYTHONPATH=src python benchmarks/bench_churn.py \
        --users 50000 --ticks 20 --out BENCH_churn.json

The output schema (``bench_churn/v2``)::

    {
      "schema": "bench_churn/v2",
      "users": 50000, "delta": 0.0029, "max_peers": 10, "k": 10,
      "seed": 3, "ticks": 20, "movers_per_tick": 500,
      "requests_per_tick": 50,
      "incremental": {
        "maintenance_seconds": ..., "moves_per_second": ...,
        "dirty_users_total": ..., "edges_changed_total": ...,
        "request_seconds": ...,
        "request_latency_ms": {"p50": ..., "p95": ..., "p99": ...},
        "requests": {
          "served": ..., "failed": ...,
          "failures": {"sub_k": ..., "defect": ...},
          "cache_hit_rate": ...
        }
      },
      "rebuild": { ... same minus the churn counters ... },
      "tree": {
        ... same as incremental ...,
        "request_speedup": ...        # incremental req s / tree req s
      },
      "maintenance_speedup": ...,   # rebuild seconds / incremental seconds
      "graphs_equal": true,         # incremental final graph == rebuild
      "tree_graphs_equal": true,    # tree final graph == rebuild
      "tree_equal": true            # patched tree == fresh tree of rebuild
    }

Failure counts may legitimately differ between the tree path and the
others: the tree is bit-identical to the *closure* reading of
Algorithm 2 (``DistributedClustering(closure=True)``, pinned by
``benchmarks/bench_wpg_scale.py`` and the ``cluster-tree-equal`` fuzz
invariant), while the engine default serves the non-closure reading,
so their registries diverge.  Zero ``defect`` rows is the invariant
every path must hold.

The file is a plain script (no pytest fixtures) so ``pytest benchmarks/``
collects nothing from it; the CI smoke invokes it at a small population
and asserts ``maintenance_speedup >= 1``, both graph equalities, the
tree equality, and zero ``defect`` failures on every path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets.base import PointDataset
from repro.datasets.california import california_like_poi
from repro.errors import ClusteringError
from repro.experiments.workloads import clusterable_users
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast
from repro.graph.cluster_tree import ClusterTree
from repro.mobility.waypoint import RandomWaypointModel
from repro.verify.invariants import graph_equality_details
from repro.verify.oracles import oracle_smallest_cluster

PAPER_USERS = 104_770
PAPER_DELTA = 2e-3
MAX_PEERS = 10


def scaled_delta(users: int) -> float:
    """The paper's radio range, scaled to preserve WPG density."""
    return PAPER_DELTA * (PAPER_USERS / users) ** 0.5


def make_schedule(
    dataset, ticks: int, movers_per_tick: int, delta: float, seed: int
) -> list[list[tuple[int, Point]]]:
    """Pre-generate the per-tick move batches (shared by both paths).

    Random-waypoint walkers with speeds on the radio-range scale, a
    ``movers_per_tick`` random subset advancing each tick — the rest of
    the population idles, which is exactly the regime incremental
    maintenance exploits.
    """
    walkers = RandomWaypointModel(
        dataset, min_speed=delta, max_speed=10 * delta, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    n = len(dataset)
    return [
        walkers.step_subset(
            np.sort(rng.choice(n, size=movers_per_tick, replace=False))
        )
        for _ in range(ticks)
    ]


def make_hosts(
    graph, k: int, ticks: int, requests_per_tick: int, seed: int
) -> list[list[int]]:
    """Per-tick host draws from the t=0 clusterable pool, with repeats."""
    pool = clusterable_users(graph, k)
    rng = np.random.default_rng(seed + 2)
    return [
        [int(h) for h in rng.choice(pool, size=requests_per_tick, replace=True)]
        for _ in range(ticks)
    ]


def _serve(
    engine, k: int, hosts: list[int], latencies: list[float], failures: dict
) -> tuple[int, int, int]:
    """Serve ``hosts`` one by one, timing each; returns (served, failed, hits).

    Failures are classified against the exact oracle *after* the latency
    sample is taken, with the registry state the engine failed under:
    ``sub_k`` when no valid cluster of unassigned users exists (clean),
    ``defect`` when the oracle finds one the engine missed.
    """
    served = failed = hits = 0
    for host in hosts:
        t0 = time.perf_counter()
        try:
            result = engine.request(host)
        except ClusteringError:
            latencies.append(time.perf_counter() - t0)
            failed += 1
            answer = oracle_smallest_cluster(
                engine.graph,
                host,
                k,
                exclude=engine.clustering.registry.assigned_view(),
            )
            failures["sub_k" if answer is None else "defect"] += 1
        else:
            latencies.append(time.perf_counter() - t0)
            served += 1
            hits += bool(result.region_from_cache)
    return served, failed, hits


def _latency_ms(latencies: list[float]) -> dict:
    arr = np.asarray(latencies) * 1e3
    return {
        "p50": round(float(np.percentile(arr, 50)), 4),
        "p95": round(float(np.percentile(arr, 95)), 4),
        "p99": round(float(np.percentile(arr, 99)), 4),
    }


def run_incremental(
    dataset, graph, config, schedule, hosts, clustering=None
) -> tuple[dict, CloakingEngine]:
    """The churn runtime: one engine, patched in place tick after tick.

    ``clustering="tree"`` opts the engine into the cluster-tree fast
    path; the tree's own churn patching then runs (and is charged)
    inside ``apply_moves``.  Returns the record and the final engine.
    """
    engine = CloakingEngine(dataset, graph, config, clustering=clustering)
    maintenance = 0.0
    dirty_total = edges_changed = moves = 0
    latencies: list[float] = []
    failures = {"sub_k": 0, "defect": 0}
    served = failed = hits = 0
    for batch, tick_hosts in zip(schedule, hosts):
        t0 = time.perf_counter()
        patch = engine.apply_moves(batch)
        maintenance += time.perf_counter() - t0
        moves += patch.moved
        dirty_total += patch.dirty_users
        edges_changed += patch.edges_changed
        s, f, h = _serve(engine, config.k, tick_hosts, latencies, failures)
        served, failed, hits = served + s, failed + f, hits + h
    record = {
        "maintenance_seconds": round(maintenance, 4),
        "moves_per_second": round(moves / maintenance, 1),
        "dirty_users_total": dirty_total,
        "edges_changed_total": edges_changed,
        "request_seconds": round(sum(latencies), 4),
        "request_latency_ms": _latency_ms(latencies),
        "requests": {
            "served": served,
            "failed": failed,
            "failures": failures,
            "cache_hit_rate": round(hits / served, 4) if served else 0.0,
        },
    }
    return record, engine


def run_rebuild(dataset, config, schedule, hosts) -> tuple[dict, object]:
    """The pre-churn baseline: full teardown + rebuild every tick."""
    positions = list(dataset.points)
    maintenance = 0.0
    latencies: list[float] = []
    failures = {"sub_k": 0, "defect": 0}
    served = failed = hits = 0
    graph = None
    for batch, tick_hosts in zip(schedule, hosts):
        for user, point in batch:
            positions[user] = point
        t0 = time.perf_counter()
        snapshot = PointDataset(positions)
        graph = build_wpg_fast(snapshot, config.delta, config.max_peers)
        engine = CloakingEngine(snapshot, graph, config)
        maintenance += time.perf_counter() - t0
        s, f, h = _serve(engine, config.k, tick_hosts, latencies, failures)
        served, failed, hits = served + s, failed + f, hits + h
    record = {
        "maintenance_seconds": round(maintenance, 4),
        "request_seconds": round(sum(latencies), 4),
        "request_latency_ms": _latency_ms(latencies),
        "requests": {
            "served": served,
            "failed": failed,
            "failures": failures,
            "cache_hit_rate": round(hits / served, 4) if served else 0.0,
        },
    }
    return record, graph


def trees_equal(tree: ClusterTree, graph) -> bool:
    """Whether ``tree`` equals a fresh ``ClusterTree(graph)`` exactly:
    per-component preorder columns, compared in smallest-leaf order, and
    every vertex's forest edges in acceptance order."""
    fresh = ClusterTree(graph)

    def columns(of: ClusterTree) -> list:
        return sorted(of.component_columns(), key=lambda cols: min(cols[4]))

    return columns(tree) == columns(fresh) and all(
        tree.forest_neighbors(vertex) == fresh.forest_neighbors(vertex)
        for vertex in graph.vertices()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=50_000)
    parser.add_argument(
        "--ticks", type=int, default=20, help="move/request rounds (default: 20)"
    )
    parser.add_argument(
        "--movers-per-tick",
        type=int,
        default=None,
        help="users moving each tick (default: 1%% of the population)",
    )
    parser.add_argument(
        "--requests-per-tick",
        type=int,
        default=50,
        help="cloaking requests served after each move batch (default: 50)",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--out", default="BENCH_churn.json", help="output path"
    )
    args = parser.parse_args(argv)
    if args.users < 2 or args.ticks < 1 or args.requests_per_tick < 1:
        parser.error("need --users >= 2, --ticks >= 1, --requests-per-tick >= 1")
    movers = args.movers_per_tick or max(1, args.users // 100)
    if not 1 <= movers <= args.users:
        parser.error(f"--movers-per-tick must be in [1, {args.users}], got {movers}")

    delta = scaled_delta(args.users)
    config = SimulationConfig(
        user_count=args.users, delta=delta, max_peers=MAX_PEERS
    )
    dataset = california_like_poi(args.users, seed=args.seed)
    graph = build_wpg_fast(dataset, delta, MAX_PEERS)
    schedule = make_schedule(dataset, args.ticks, movers, delta, args.seed)
    hosts = make_hosts(
        graph, config.k, args.ticks, args.requests_per_tick, args.seed
    )

    print(
        f"users={args.users} delta={delta:.2g} ticks={args.ticks} "
        f"movers/tick={movers} requests/tick={args.requests_per_tick}"
    )
    incremental, incremental_engine = run_incremental(
        dataset, graph, config, schedule, hosts
    )
    print(
        f"incremental: {incremental['maintenance_seconds']}s maintenance, "
        f"p50 {incremental['request_latency_ms']['p50']}ms, "
        f"p99 {incremental['request_latency_ms']['p99']}ms, "
        f"failures {incremental['requests']['failures']}"
    )
    rebuild, final_graph = run_rebuild(
        california_like_poi(args.users, seed=args.seed), config, schedule, hosts
    )
    print(
        f"rebuild:     {rebuild['maintenance_seconds']}s maintenance, "
        f"p50 {rebuild['request_latency_ms']['p50']}ms, "
        f"p99 {rebuild['request_latency_ms']['p99']}ms, "
        f"failures {rebuild['requests']['failures']}"
    )
    tree_dataset = california_like_poi(args.users, seed=args.seed)
    tree, tree_engine = run_incremental(
        tree_dataset,
        build_wpg_fast(tree_dataset, delta, MAX_PEERS),
        config,
        schedule,
        hosts,
        clustering="tree",
    )
    tree["request_speedup"] = round(
        incremental["request_seconds"] / tree["request_seconds"], 2
    )
    print(
        f"tree:        {tree['maintenance_seconds']}s maintenance, "
        f"p50 {tree['request_latency_ms']['p50']}ms, "
        f"p99 {tree['request_latency_ms']['p99']}ms, "
        f"failures {tree['requests']['failures']}, "
        f"requests {tree['request_speedup']}x vs incremental"
    )

    graphs_equal = (
        graph_equality_details(
            incremental_engine.graph, final_graph, "incremental", "rebuild"
        )
        == []
    )
    tree_graphs_equal = (
        graph_equality_details(tree_engine.graph, final_graph, "tree", "rebuild")
        == []
    )
    tree_equal = trees_equal(tree_engine.clustering.tree, final_graph)
    speedup = round(
        rebuild["maintenance_seconds"] / incremental["maintenance_seconds"], 2
    )
    defects = sum(
        record["requests"]["failures"]["defect"]
        for record in (incremental, rebuild, tree)
    )
    print(
        f"maintenance speedup {speedup}x, graphs_equal={graphs_equal}, "
        f"tree_graphs_equal={tree_graphs_equal}, tree_equal={tree_equal}, "
        f"defects={defects}"
    )

    payload = {
        "schema": "bench_churn/v2",
        "users": args.users,
        "delta": delta,
        "max_peers": MAX_PEERS,
        "k": config.k,
        "seed": args.seed,
        "ticks": args.ticks,
        "movers_per_tick": movers,
        "requests_per_tick": args.requests_per_tick,
        "incremental": incremental,
        "rebuild": rebuild,
        "tree": tree,
        "maintenance_speedup": speedup,
        "graphs_equal": graphs_equal,
        "tree_graphs_equal": tree_graphs_equal,
        "tree_equal": tree_equal,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    clean = graphs_equal and tree_graphs_equal and tree_equal and defects == 0
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
