"""Show each output check failing on a corrupted input.

    python3 perfbench/check_demo.py

Runs the program on a small world (3,000 users, three churn ticks with
the journal on), confirms every check passes, then corrupts one input of
each check -- never the program -- and prints what the check reports:

* a member moved outside its region   -> check (b)
* one WPG edge dropped                -> check (a)
* one journal record removed          -> check (d)
* one stale cache hit injected        -> check (c)
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from oracle import (  # noqa: E402
    CheckFailed, OracleWPG, OutcomeChecker, check_graph, check_journal,
)
from common import Walkers  # noqa: E402
from repro.cloaking.engine import CloakingEngine  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.datasets.california import california_like_poi  # noqa: E402
from repro.graph.build import build_wpg_fast  # noqa: E402
from repro.persist.store import PersistentStore  # noqa: E402

USERS = 3000
DELTA = 2e-3 * (104_770 / USERS) ** 0.5
M, K = 10, 10


def _rect(result):
    rect = result.region.rect
    return (rect.x_min, rect.x_max, rect.y_min, rect.y_max)


def _expect_failure(label: str, check) -> bool:
    try:
        check()
    except CheckFailed as exc:
        print(f"caught   {label}: {exc}")
        return True
    print(f"MISSED   {label}")
    return False


def main() -> int:
    dataset = california_like_poi(USERS, seed=3)
    positions = dataset.as_array().copy()
    oracle = OracleWPG(positions, DELTA, M)
    graph = build_wpg_fast(dataset, DELTA, M)
    config = SimulationConfig(user_count=USERS, delta=DELTA, max_peers=M, k=K)
    engine = CloakingEngine(dataset, graph, config)
    rng = np.random.default_rng(1)
    subscribers = rng.choice(oracle.clusterable(K), 200, replace=False)
    checker = OutcomeChecker(positions, K, oracle)
    results = [engine.request(int(h)) for h in subscribers]
    for r in results:
        checker.check(r.host, r.cluster.members, _rect(r), r.region_from_cache)
    check_graph(engine.graph, oracle, "setup")

    scratch = HERE / "_scratch" / f"demo-{os.getpid()}"
    try:
        engine.enable_persistence(PersistentStore(scratch / "store"))
        walkers = Walkers(positions, 2)
        batches = []
        for _ in range(3):
            movers = np.sort(rng.choice(subscribers, 20, replace=False))
            batch = walkers.step(movers)
            checker.note_moves(movers)
            engine.apply_moves(batch)
            batches.append(batch)
        engine.disable_persistence()
        journal = scratch / "store" / "journal.wal"
        check_graph(engine.graph, OracleWPG(positions, DELTA, M), "end")
        check_journal(journal, batches)
        fresh = engine.request(int(movers[0]))
        checker.check(fresh.host, fresh.cluster.members, _rect(fresh), False)
        print(f"passed   all checks on {checker.checked} cloaks, 3 ticks")

        caught = []
        # (b) a member moved outside its region, in the benchmark's copy.
        member = min(fresh.cluster.members)
        saved = positions[member].copy()
        positions[member] = (1.0, 1.0) if _rect(fresh)[1] < 1.0 else (0.0, 0.0)
        caught.append(_expect_failure(
            "member outside its region",
            lambda: checker.check(fresh.host, fresh.cluster.members, _rect(fresh), False),
        ))
        positions[member] = saved
        # (a) one WPG edge dropped from the independent build.
        final = OracleWPG(positions, DELTA, M)
        final.keys, final.weights = final.keys[1:], final.weights[1:]
        caught.append(_expect_failure(
            "one WPG edge dropped",
            lambda: check_graph(engine.graph, final, "end"),
        ))
        # (d) one journal record removed from a copy of the journal.
        data = journal.read_bytes()
        header = len(b"repro churn journal v1\n")
        length = int.from_bytes(data[header : header + 4], "little")
        cut = scratch / "cut.wal"
        cut.write_bytes(data[:header] + data[header + 8 + length :])
        caught.append(_expect_failure(
            "one journal record removed",
            lambda: check_journal(cut, batches),
        ))
        # (c) a stale hit: the region served again after a member moved.
        checker.note_moves([member])
        caught.append(_expect_failure(
            "one stale hit injected",
            lambda: checker.check(fresh.host, fresh.cluster.members, _rect(fresh), True),
        ))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(caught) else 1


if __name__ == "__main__":
    sys.exit(main())
