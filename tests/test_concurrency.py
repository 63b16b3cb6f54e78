"""Tests for the lock manager and concurrent cloaking coordination."""

import pytest

from repro.clustering.distributed import DistributedClustering
from repro.datasets import uniform_points
from repro.errors import ProtocolError
from repro.graph.build import build_wpg_fast
from repro.network.concurrency import (
    ConcurrentCloakingCoordinator,
    LockManager,
    run_concurrent_requests,
)


class TestLockManager:
    def test_acquire_and_release(self):
        locks = LockManager()
        assert locks.acquire_all(1, [5, 6, 7]) is None
        assert locks.holder(6) == 1
        locks.release_all(1)
        assert locks.holder(6) is None
        assert locks.locked_count == 0

    def test_conflict_reports_blocker_and_rolls_back(self):
        locks = LockManager()
        locks.acquire_all(1, [5, 6])
        assert locks.acquire_all(2, [4, 6, 9]) == 1
        # Nothing of host 2's partial acquisition remains.
        assert locks.holder(4) is None
        assert locks.holder(9) is None

    def test_reentrant_for_same_owner(self):
        locks = LockManager()
        locks.acquire_all(1, [5, 6])
        assert locks.acquire_all(1, [6, 7]) is None
        assert locks.holder(7) == 1

    def test_ordered_acquisition_no_deadlock(self):
        """Two owners requesting overlapping sets in opposite orders:
        ordered acquisition means one wins outright, never a deadlock."""
        locks = LockManager()
        assert locks.acquire_all(1, [9, 2, 5]) is None
        blocker = locks.acquire_all(2, [5, 9, 11])
        assert blocker == 1
        locks.release_all(1)
        assert locks.acquire_all(2, [5, 9, 11]) is None


class TestConcurrentCoordination:
    @pytest.fixture(scope="class")
    def world(self):
        ds = uniform_points(400, seed=31)
        graph = build_wpg_fast(ds, delta=0.08, max_peers=8)
        return graph

    def test_batch_all_terminate(self, world):
        clustering = DistributedClustering(world, 5)
        hosts = [0, 1, 2, 3, 4, 5, 50, 100, 150, 200]
        outcomes = run_concurrent_requests(clustering, hosts)
        assert len(outcomes) == len(hosts)
        for outcome in outcomes:
            assert (outcome.result is not None) or (outcome.error is not None)

    def test_no_user_in_two_clusters(self, world):
        clustering = DistributedClustering(world, 5)
        hosts = list(range(0, 60, 2))
        run_concurrent_requests(clustering, hosts)
        clustering.registry.check_reciprocity()

    def test_conflicting_neighbors_resolve(self, world):
        """Adjacent hosts propose overlapping clusters simultaneously;
        exactly one commits the shared users, the other restarts."""
        clustering = DistributedClustering(world, 5)
        solo = DistributedClustering(world, 5)
        base = solo.request(0)
        conflicted_host = next(iter(base.members - {0}))
        outcomes = run_concurrent_requests(clustering, [0, conflicted_host])
        assert all(o.result is not None for o in outcomes)
        # Either the second was served from the first's cluster (cache)
        # or it built a disjoint one; both satisfy reciprocity.
        clustering.registry.check_reciprocity()

    def test_restart_budget_respected(self, world):
        clustering = DistributedClustering(world, 5)
        coordinator = ConcurrentCloakingCoordinator(clustering, max_restarts=0)
        outcomes = coordinator.run_batch([0, 1])
        assert all(
            (o.result is not None) or (o.error is not None) for o in outcomes
        )

    def test_bad_budget_rejected(self, world):
        with pytest.raises(ProtocolError):
            ConcurrentCloakingCoordinator(
                DistributedClustering(world, 5), max_restarts=-1
            )

    def test_impossible_host_gets_clean_error(self):
        from repro.graph.wpg import WeightedProximityGraph

        g = WeightedProximityGraph.from_edges([(0, 1, 1.0)])
        clustering = DistributedClustering(g, 3)
        (outcome,) = run_concurrent_requests(clustering, [0])
        assert outcome.result is None
        assert outcome.error is not None
