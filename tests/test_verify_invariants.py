"""The invariant registry and its behaviour over real world runs."""

from __future__ import annotations

import pytest

from repro.verify.fuzz import run_world
from repro.verify.invariants import (
    Violation,
    WorldRun,
    _REGISTRY,
    check_world,
    invariant,
    registered_invariants,
)
from repro.verify.worlds import World

EXPECTED_INVARIANTS = {
    "wpg-fast-scalar-equal",
    "k-anonymity",
    "member-containment",
    "cloak-vs-oracle-box",
    "region-reciprocity",
    "clustering-level-scan",
    "min-mew-exhaustive",
    "isolation-theorem-4.4",
    "clean-failure-justified",
    "unexpected-errors",
    "deterministic-replay",
    "p2p-matches-analytic",
    "transcript-audit",
    "churn-incremental-equal",
    "cluster-tree-equal",
    "trace-ledger-agree",
    "snapshot-replay-equal",
    "service-shard-equal",
}


@pytest.fixture(scope="module")
def clean_run() -> WorldRun:
    """One small served world, shared by the read-only checks."""
    return run_world(World(seed=2, n=28, k=3, requests=3))


class TestRegistry:
    def test_expected_invariants_registered(self):
        assert set(registered_invariants()) == EXPECTED_INVARIANTS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):

            @invariant("wpg-fast-scalar-equal")
            def _clash(run):
                return []

    def test_temporary_registration(self):
        @invariant("test-only-noop")
        def _noop(run):
            return []

        try:
            assert "test-only-noop" in registered_invariants()
        finally:
            del _REGISTRY["test-only-noop"]
        assert "test-only-noop" not in registered_invariants()


class TestCheckWorld:
    def test_clean_world_has_no_violations(self, clean_run):
        assert check_world(clean_run) == []

    def test_names_filter_restricts_checks(self, clean_run):
        @invariant("test-always-fails")
        def _fail(run):
            return ["synthetic failure"]

        try:
            only_k = check_world(clean_run, names=["k-anonymity"])
            assert only_k == []
            filtered = check_world(clean_run, names=["test-always-fails"])
            assert [v.invariant for v in filtered] == ["test-always-fails"]
        finally:
            del _REGISTRY["test-always-fails"]

    def test_violation_carries_replayable_world(self, clean_run):
        @invariant("test-always-fails")
        def _fail(run):
            return ["synthetic failure"]

        try:
            violations = check_world(clean_run, names=["test-always-fails"])
        finally:
            del _REGISTRY["test-always-fails"]
        assert violations == [
            Violation(
                "test-always-fails",
                "synthetic failure",
                clean_run.built.world.to_dict(),
            )
        ]
        assert World.from_dict(violations[0].world) == clean_run.built.world

    def test_crashing_invariant_becomes_a_finding(self, clean_run):
        @invariant("test-crashes")
        def _crash(run):
            raise RuntimeError("boom")

        try:
            violations = check_world(clean_run, names=["test-crashes"])
        finally:
            del _REGISTRY["test-crashes"]
        assert len(violations) == 1
        assert "invariant crashed" in violations[0].detail
        assert "boom" in violations[0].detail


class TestRunWorld:
    def test_run_world_populates_replay_records(self, clean_run):
        assert clean_run.replay_records is not None
        assert len(clean_run.replay_records) == len(clean_run.records)
        assert clean_run.p2p is None  # not a p2p world

    def test_p2p_world_carries_transcript(self):
        run = run_world(
            World(seed=4, n=40, k=3, delta=0.2, requests=3, p2p=True, policy="linear")
        )
        assert run.p2p is not None
        assert len(run.p2p.results) > 0
        assert len(run.p2p.recorder.messages) > 0
        assert check_world(run) == []

    def test_faulty_world_serves_without_unexpected_errors(self):
        run = run_world(
            World(
                seed=6,
                n=30,
                k=3,
                requests=3,
                policy="secure",
                drop_probability=0.15,
            )
        )
        assert all(r.error_kind != "unexpected" for r in run.records)
        assert check_world(run) == []
