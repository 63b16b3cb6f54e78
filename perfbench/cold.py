"""``cloak-cold``: distinct subscribers cloaking once on a fresh engine.

Rounds until the run's time is up.  Each round builds a fresh default
engine over the world and has ``SUBSCRIBERS`` distinct clusterable users
cloak once each, in segments of ``SEGMENT`` requests: Algorithm 2
clustering and secure bounding do nearly all the work, the registry
starts empty (no depletion-driven refusals), and the hit share stays
near a quarter, well below the median.

Between rounds ``COMMUTERS`` users step one waypoint step away from home
and come back, as two batches through a long-lived world engine's
``apply_moves``: the grid and incremental WPG run, the cold engines never
see a moved user, and every round starts from the same world.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    DELTA, K, MAX_PEERS, POPULATION_SEED, USERS, Commuters, build_world, serve,
)
from measure import SetupClock, Timed, peak_rss_mb
from oracle import OracleWPG, OutcomeChecker, check_graph
from repro.cloaking.engine import CloakingEngine
from repro.datasets.california import california_like_poi

SUBSCRIBERS = 2000
SEGMENT = 500
COMMUTERS = 250


def run(seed: int, seconds: float) -> dict:
    setup = SetupClock()
    positions = california_like_poi(USERS, seed=POPULATION_SEED).as_array().copy()
    oracle = OracleWPG(positions, DELTA, MAX_PEERS)
    pool = oracle.clusterable(K)
    with setup.segment():
        dataset, graph, config = build_world()
        world = CloakingEngine(dataset, graph, config)
        world.apply_moves([])

    check_graph(world.graph, oracle, "setup")
    rng = np.random.default_rng(seed)
    commuters = Commuters(positions, seed + 1)
    checker = OutcomeChecker(positions, K, oracle)
    failed = attempted = 0
    timed = Timed(seconds)
    while True:
        subscribers = rng.choice(pool, size=SUBSCRIBERS, replace=False)
        engine = CloakingEngine(world.dataset, world.graph, config)
        checker.reset()
        for lo in range(0, SUBSCRIBERS, SEGMENT):
            hosts = subscribers[lo : lo + SEGMENT].tolist()
            latencies, results, refused = serve(engine, hosts)
            before = timed.close()
            attempted += len(hosts)
            failed += refused
            timed.add_requests(
                latencies,
                before,
                sum(r.total_phase_messages for r in results),
                sum(r.region_from_cache for r in results),
            )
            checker.check_results(results)
        leaving = np.sort(rng.choice(len(positions), COMMUTERS, replace=False))
        for batch in (commuters.tick(leaving), commuters.tick([])):
            t0 = time.perf_counter()
            world.apply_moves(batch)
            elapsed = time.perf_counter() - t0
            timed.add_moves(elapsed, timed.close(), len(batch))
            attempted += 1
        if not timed.more():
            break
    rss = peak_rss_mb()
    check_graph(world.graph, oracle, "end")
    metrics, raw = timed.metrics(setup, rss)
    raw["checked_cloaks"] = checker.checked
    return {
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "raw": raw, "timed": timed,
    }
