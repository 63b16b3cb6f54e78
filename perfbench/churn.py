"""``churn-distributed`` and ``churn-tree``: warm subscribers under churn.

Set-up cloaks every subscriber once (they stay registered: reciprocity
keeps clusters permanent).  Then ticks until the run's time is up.  Each
tick is one ``apply_moves`` batch (one timed segment): last tick's
movers return home and ``MOVING_SUBSCRIBERS`` subscribers plus
``MOVING_OTHERS`` other users step one random-waypoint step away from
home (see ``common.Commuters``: the world stays the same from tick to
tick, so a faster machine getting through more ticks measures the same
work).  Then one re-request from every subscriber that moved in the
batch, away or home, plus ``RANDOM_REQUESTS`` from random subscribers (a
second segment).  Moved subscribers' regions were invalidated, so most
re-requests re-bound and the hit share stays well below one half.

First-time requests under churn are left out on purpose: a newcomer
whose neighbourhood was depleted is refused (an oracle-confirmed
sub-k failure, not a defect), and how many there are depends on the
seed -- the failed share would differ between runs.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from common import (
    DELTA, K, MAX_PEERS, POPULATION_SEED, USERS, Commuters, build_world, serve,
)
from measure import SetupClock, Timed, peak_rss_mb
from oracle import OracleWPG, OutcomeChecker, check_graph, check_journal
from repro.cloaking.engine import CloakingEngine
from repro.datasets.california import california_like_poi
from repro.persist.store import PersistentStore

#: flavor -> warm subscribers
SUBSCRIBERS = {"distributed": 4000, "tree": 1000}
MOVING_SUBSCRIBERS = 250
MOVING_OTHERS = 250
RANDOM_REQUESTS = 50
SCRATCH = Path(__file__).resolve().parent / "_scratch"


def run(seed: int, seconds: float, flavor: str) -> dict:
    subscriber_count = SUBSCRIBERS[flavor]
    setup = SetupClock()
    positions = california_like_poi(USERS, seed=POPULATION_SEED).as_array().copy()
    oracle = OracleWPG(positions, DELTA, MAX_PEERS)
    pool = oracle.clusterable(K)
    rng = np.random.default_rng(seed)
    subscribers = np.sort(rng.choice(pool, size=subscriber_count, replace=False))
    checker = OutcomeChecker(positions, K)
    journal_dir = None
    if flavor == "distributed":
        journal_dir = SCRATCH / f"journal-{seed}-{time.time_ns()}"
    try:
        with setup.segment():
            dataset, graph, config = build_world()
            clustering = "tree" if flavor == "tree" else None
            engine = CloakingEngine(dataset, graph, config, clustering=clustering)
            _, warm, failed = serve(engine, rng.permutation(subscribers).tolist())
            if journal_dir is not None:
                engine.enable_persistence(PersistentStore(journal_dir))
            engine.apply_moves([])
        attempted = len(subscribers)
        check_graph(engine.graph, oracle, "setup")
        checker.check_results(warm)
        del oracle, warm
        commuters = Commuters(positions, seed + 1)
        others = np.setdiff1d(np.arange(USERS), subscribers)
        batches = []
        timed = Timed(seconds)
        while True:
            at_home_subscribers = np.setdiff1d(subscribers, commuters.away)
            at_home_others = np.setdiff1d(others, commuters.away)
            moving = rng.choice(at_home_subscribers, MOVING_SUBSCRIBERS, replace=False)
            leaving = np.concatenate(
                (moving, rng.choice(at_home_others, MOVING_OTHERS, replace=False))
            )
            returning = commuters.away
            batch = commuters.tick(leaving)
            checker.note_moves(np.concatenate((leaving, returning)))
            moved = np.concatenate(
                (moving, np.intersect1d(returning, subscribers))
            )
            t0 = time.perf_counter()
            engine.apply_moves(batch)
            elapsed = time.perf_counter() - t0
            timed.add_moves(elapsed, timed.close(), len(batch))
            batches.append(batch)
            attempted += 1
            hosts = np.concatenate(
                (
                    rng.permutation(moved),
                    rng.choice(subscribers, RANDOM_REQUESTS),
                )
            ).tolist()
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
            if not timed.more():
                break
        rss = peak_rss_mb()
        check_graph(
            engine.graph, OracleWPG(positions, DELTA, MAX_PEERS), "end"
        )
        if journal_dir is not None:
            engine.disable_persistence()
            check_journal(journal_dir / "journal.wal", batches)
    finally:
        if journal_dir is not None:
            shutil.rmtree(journal_dir, ignore_errors=True)
    metrics, raw = timed.metrics(setup, rss)
    raw["checked_cloaks"] = checker.checked
    raw["ticks"] = len(batches)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "raw": raw, "timed": timed,
    }
