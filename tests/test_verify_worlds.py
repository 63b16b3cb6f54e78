"""World generation: validation, serialisation, purity, realisation."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.errors import VerificationError
from repro.radio.tdoa import TDOAModel
from repro.verify.worlds import (
    DATASET_KINDS,
    MODES,
    POLICIES,
    PROGRESSIVE_POLICIES,
    RADIO_MODELS,
    World,
    build_world,
    random_world,
    world_strategy,
)


class TestWorldValidation:
    def test_defaults_are_valid(self):
        world = World(seed=0)
        assert not world.faulty and not world.p2p

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kind", "hexgrid"),
            ("radio", "lidar"),
            ("policy", "quadratic"),
            ("mode", "serverless"),
            ("drop_probability", 1.0),
            ("drop_probability", -0.1),
            ("k", 0),
            ("k", 999),
        ],
    )
    def test_bad_fields_raise(self, field, value):
        with pytest.raises(VerificationError):
            World(seed=0, **{field: value})

    def test_p2p_requires_distributed_progressive(self):
        with pytest.raises(VerificationError):
            World(seed=0, p2p=True, mode="centralized")
        with pytest.raises(VerificationError):
            World(seed=0, p2p=True, policy="optimal")
        World(seed=0, p2p=True, mode="distributed", policy="secure")

    def test_fault_world_constraints(self):
        with pytest.raises(VerificationError):
            World(seed=0, drop_probability=0.1, policy="optimal")
        world = World(seed=0, crashed=(3,), policy="linear")
        assert world.faulty

    def test_faulty_property(self):
        assert not World(seed=0).faulty
        assert World(seed=0, drop_probability=0.05).faulty
        assert World(seed=0, crashed=(1, 2)).faulty


class TestWorldSerialisation:
    def test_roundtrip(self):
        world = World(
            seed=9,
            kind="gaussian",
            n=30,
            k=4,
            policy="exponential",
            drop_probability=0.1,
            crashed=(5, 11),
        )
        payload = world.to_dict()
        assert payload["crashed"] == [5, 11]  # JSON-friendly list
        assert World.from_dict(payload) == world

    def test_from_dict_validates(self):
        payload = World(seed=0).to_dict()
        payload["policy"] = "bogus"
        with pytest.raises(VerificationError):
            World.from_dict(payload)


class TestRandomWorld:
    def test_pure_function_of_seed(self):
        for seed in range(25):
            assert random_world(seed) == random_world(seed)

    def test_draws_are_valid_and_in_range(self):
        for seed in range(60):
            world = random_world(seed)
            assert world.kind in DATASET_KINDS
            assert world.radio in RADIO_MODELS
            assert world.policy in POLICIES
            assert world.mode in MODES
            assert 2 <= world.k <= min(8, world.n)
            assert 0.0 <= world.drop_probability < 1.0
            if world.p2p or world.faulty:
                assert world.mode == "distributed"
                assert world.policy in PROGRESSIVE_POLICIES

    def test_covers_fault_and_p2p_flavors(self):
        worlds = [random_world(seed) for seed in range(60)]
        assert any(w.p2p for w in worlds)
        assert any(w.faulty for w in worlds)
        assert any(not w.p2p and not w.faulty for w in worlds)


class TestBuildWorld:
    def test_grid_rounds_to_a_square(self):
        built = build_world(World(seed=3, kind="grid", n=99, k=4))
        side = math.isqrt(99)
        assert built.world.n == side * side
        assert len(built.dataset) == side * side
        assert built.config.user_count == side * side

    def test_hosts_are_distinct_and_in_range(self):
        world = World(seed=5, n=40, requests=6)
        built = build_world(world)
        assert len(built.hosts) == 6
        assert len(set(built.hosts)) == 6
        assert all(0 <= h < 40 for h in built.hosts)

    def test_fast_and_scalar_graphs_built_identically(self):
        built = build_world(World(seed=7, n=50, radio="shadowing"))
        fast = {e.key(): e.weight for e in built.graph.edges()}
        scalar = {e.key(): e.weight for e in built.scalar_graph.edges()}
        assert fast == scalar

    def test_meter_matches_radio_model(self):
        assert build_world(World(seed=1)).model() is None
        noisy = build_world(World(seed=1, radio="tdoa", n=24))
        assert isinstance(noisy.model(), TDOAModel)
        # Each call hands out a fresh, same-seeded instance.
        assert noisy.model() is not noisy.model()

    def test_build_is_deterministic(self):
        world = random_world(11)
        a, b = build_world(world), build_world(world)
        assert a.hosts == b.hosts
        assert {e.key(): e.weight for e in a.graph.edges()} == {
            e.key(): e.weight for e in b.graph.edges()
        }

    def test_unknown_radio_rejected_before_build(self):
        world = build_world(World(seed=0, n=24)).world
        with pytest.raises(VerificationError):
            replace(world, radio="sonar")


class TestWorldStrategy:
    @settings(max_examples=20)
    @given(world_strategy(max_users=24))
    def test_generated_worlds_are_valid(self, world):
        # World.__post_init__ is the validator; surviving construction and
        # passing the generator's own promises is the property.
        assert 12 <= world.n <= 24
        assert 2 <= world.k <= 6
        assert not world.faulty  # faults are opt-in

    @settings(max_examples=20)
    @given(world_strategy(max_users=20, allow_faults=True))
    def test_fault_opt_in_worlds_stay_consistent(self, world):
        if world.faulty:
            assert world.mode == "distributed"
            assert world.policy in PROGRESSIVE_POLICIES
