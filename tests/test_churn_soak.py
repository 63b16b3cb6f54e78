"""Seeded soak: sustained interleaved churn + requests leaves no stale state.

A small-N tier-1 version of the ``bench_churn`` workload: 200 interleaved
operations (random-waypoint move batches through ``engine.apply_moves``,
cloaking requests in between, ``request_many`` over each served host's
cluster) against a long-lived journaled engine that is checkpointed and
warm-restarted from its store every ``RESTART_EVERY`` operations, while
a reference engine consumes the identical schedule without ever
restarting.  The checks are the ones that matter operationally:

* every answer — members, region bits, anonymity, region id, cache
  provenance, typed failures — equals the reference's at every step,
  across every restart (each restart also replays a journaled batch);
* every region still cached at the end is *valid now* — contains all of
  its cluster's members at their current positions and satisfies
  k-anonymity (``apply_moves`` must have evicted everything stale);
* the incrementally-maintained WPG equals a from-scratch rebuild over
  the final positions;
* the cache accounting stays an identity through ``request``,
  ``request_many``, churn and restores: ``hits + misses == requests``;
* ``clear_regions()`` drains the cache completely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets.base import PointDataset
from repro.datasets.synthetic import uniform_points
from repro.errors import ClusteringError
from repro.graph.build import build_wpg_fast
from repro.mobility.waypoint import RandomWaypointModel
from repro.obs import names as metric
from repro.persist import PersistentStore
from repro.verify.invariants import graph_equality_details

N = 400
OPERATIONS = 200
MOVERS_PER_TICK = 8
#: The soaked engine checkpoints after the request at offset 39 of every
#: window of this many operations and is warm-restarted after the move
#: batch at offset 40, so each restart replays one journaled batch.  Only
#: moves are journaled: no request may fall between the two.
RESTART_EVERY = 50


def _outcome(result):
    return (
        tuple(sorted(result.cluster.members)),
        result.region.rect,
        result.region.anonymity,
        result.region.cluster_id,
        result.region_from_cache,
    )


def _answer(engine, host):
    try:
        return ("ok", *_outcome(engine.request(host)))
    except ClusteringError as exc:
        return ("err", str(exc))


@pytest.fixture(scope="module")
def soak(tmp_path_factory):
    dataset = uniform_points(N, seed=21)
    config = SimulationConfig(
        user_count=N, k=4, delta=0.08, max_peers=6, seed=21
    )
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    engine = CloakingEngine(dataset, graph.copy(), config)
    reference = CloakingEngine(dataset, graph, config)
    store = PersistentStore(tmp_path_factory.mktemp("churn-soak"))
    engine.enable_persistence(store)
    walkers = RandomWaypointModel(
        dataset, min_speed=0.005, max_speed=0.03, seed=77
    )
    rng = np.random.default_rng(123)
    stats = {
        "served": 0, "failed": 0, "moves": 0, "batched": 0, "restores": 0,
        "divergences": [],
    }
    registry = obs.enable(obs.MetricsRegistry())
    try:
        for op in range(OPERATIONS):
            if op % 2 == 0:
                movers = rng.choice(N, size=MOVERS_PER_TICK, replace=False)
                batch = walkers.step_subset(np.sort(movers))
                engine.apply_moves(batch)
                reference.apply_moves(batch)
                stats["moves"] += len(batch)
            else:
                host = int(rng.integers(0, N))
                got = _answer(engine, host)
                want = _answer(reference, host)
                if got != want:
                    stats["divergences"].append((op, host, got, want))
                stats["served" if got[0] == "ok" else "failed"] += 1
                if got[0] == "ok":
                    mates = list(got[1])
                    many = engine.request_many(mates)
                    many_ref = reference.request_many(mates)
                    if list(map(_outcome, many)) != list(map(_outcome, many_ref)):
                        stats["divergences"].append((op, mates, "request_many"))
                    stats["batched"] += len(mates)
            if op % RESTART_EVERY == 39:
                engine.checkpoint()
            elif op % RESTART_EVERY == 40:
                engine.disable_persistence()
                engine = CloakingEngine.restore(store)
                stats["restores"] += 1
    finally:
        obs.disable()
        engine.disable_persistence()
    return engine, reference, config, registry, stats


def test_soak_exercised_both_paths(soak):
    engine, _reference, _config, _registry, stats = soak
    assert stats["served"] + stats["failed"] == OPERATIONS // 2
    assert stats["served"] > 0, "soak never formed a region — workload too sparse"
    assert stats["moves"] > 0
    assert stats["restores"] == OPERATIONS // RESTART_EVERY
    assert engine.churn_runtime is not None


def test_restarted_engine_answers_like_the_reference(soak):
    engine, reference, _config, _registry, stats = soak
    assert stats["divergences"] == [], (
        f"{len(stats['divergences'])} divergence(s); first: "
        f"{stats['divergences'][:1]}"
    )
    assert engine.cached_regions() == reference.cached_regions()
    assert engine.dataset.points == reference.dataset.points
    registry, reference_registry = (
        engine.clustering.registry, reference.clustering.registry
    )
    assert [
        registry.cluster_by_id(cid) for cid in range(len(registry))
    ] == [
        reference_registry.cluster_by_id(cid)
        for cid in range(len(reference_registry))
    ]


def test_cache_accounting_identity(soak):
    _engine, _reference, _config, registry, stats = soak
    counters = registry.counters
    requests = counters[metric.CLOAKING_REQUESTS].value
    hits = counters[metric.CLOAKING_CACHE_HITS].value
    misses = counters[metric.CLOAKING_CACHE_MISSES].value
    assert hits + misses == requests
    # Both engines ran under the one registry; refused requests count
    # nowhere, every served answer exactly once.
    assert requests == 2 * (stats["served"] + stats["batched"])


def test_no_stale_cached_regions(soak):
    engine, _reference, config, _registry, _stats = soak
    points = engine.dataset.points
    cached = engine.cached_regions()
    for members, region in cached.items():
        assert region.anonymity == len(members)
        assert region.satisfies(config.k)
        for member in members:
            assert region.rect.contains(points[member]), (
                f"cached region for {sorted(members)} no longer contains "
                f"user {member} at its current position — stale entry "
                "survived apply_moves"
            )


def test_incremental_graph_matches_final_rebuild(soak):
    engine, _reference, config, _registry, _stats = soak
    rebuilt = build_wpg_fast(
        PointDataset(list(engine.dataset.points)),
        config.delta,
        config.max_peers,
    )
    assert (
        graph_equality_details(engine.graph, rebuilt, "soaked", "rebuild")
        == []
    )


def test_clear_regions_drains_cache(soak):
    # Runs last in file order: mutates the module-scoped engine's cache.
    engine, _reference, _config, _registry, _stats = soak
    before = engine.regions_cached
    assert engine.clear_regions() == before
    assert engine.regions_cached == 0
    assert engine.cached_regions() == {}
