"""Property-based world generation for the verification harness.

A *world* is everything one end-to-end cloaking simulation needs: a
dataset kind and size, the WPG construction parameters, the anonymity
requirement, the bounding increment policy, the radio model, and an
optional fault plan.  Worlds are plain frozen data with
``to_dict``/``from_dict``, so a failing fuzz seed can be dumped as JSON
and replayed bit-for-bit.

Two generators produce them:

* :func:`random_world` — one seeded draw, used by the fuzz CLI
  (``world seed -> world`` is a pure function);
* :func:`world_strategy` — a Hypothesis strategy over the same space,
  used by the property suites (shrinking finds minimal counterexamples).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from repro.config import SimulationConfig
from repro.datasets import gaussian_clusters, grid_points, uniform_points
from repro.datasets.base import PointDataset
from repro.errors import VerificationError
from repro.graph.build import build_wpg_fast
from repro.graph.wpg import WeightedProximityGraph
from repro.radio.rss import LogDistanceRSSModel, RSSModel
from repro.radio.tdoa import TDOAModel
from repro.verify.oracles import oracle_build_wpg

DATASET_KINDS = ("uniform", "gaussian", "grid")
RADIO_MODELS = ("ideal", "shadowing", "tdoa")
POLICIES = ("linear", "exponential", "secure", "secure-exact", "optimal")
#: Policies the message-level / reliability paths accept (progressive
#: presets only — "optimal" exposes coordinates and has no wire protocol).
PROGRESSIVE_POLICIES = ("linear", "exponential", "secure", "secure-exact")
MODES = ("distributed", "centralized")


@dataclass(frozen=True, slots=True)
class World:
    """One fully specified simulation world (JSON-serialisable)."""

    seed: int
    kind: str = "uniform"
    n: int = 48
    k: int = 3
    delta: float = 0.12
    max_peers: int = 6
    policy: str = "secure"
    mode: str = "distributed"
    radio: str = "ideal"
    requests: int = 4
    drop_probability: float = 0.0
    crashed: tuple[int, ...] = field(default_factory=tuple)
    p2p: bool = False
    #: Total user moves in the seeded churn schedule applied after the
    #: first serving pass (0 = static world, the historical default —
    #: old world JSON replays unchanged).
    churn_moves: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise VerificationError(f"unknown dataset kind {self.kind!r}")
        if self.radio not in RADIO_MODELS:
            raise VerificationError(f"unknown radio model {self.radio!r}")
        if self.policy not in POLICIES:
            raise VerificationError(f"unknown policy {self.policy!r}")
        if self.mode not in MODES:
            raise VerificationError(f"unknown mode {self.mode!r}")
        if not 1 <= self.k <= self.n:
            raise VerificationError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise VerificationError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )
        if (self.p2p or self.faulty) and (
            self.mode != "distributed" or self.policy not in PROGRESSIVE_POLICIES
        ):
            raise VerificationError(
                "p2p/fault worlds need the distributed mode and a "
                f"progressive policy, got mode={self.mode!r} "
                f"policy={self.policy!r}"
            )
        if self.churn_moves < 0:
            raise VerificationError(
                f"churn_moves must be non-negative, got {self.churn_moves}"
            )
        if self.churn_moves > 0 and (
            self.faulty or self.p2p or self.radio != "ideal"
        ):
            raise VerificationError(
                "churn worlds require the ideal radio model and no "
                "faults/p2p replay: incremental WPG maintenance cannot "
                "replay stateful noise streams or pinned device positions"
            )

    @property
    def faulty(self) -> bool:
        """True when the world injects message loss or crashes."""
        return self.drop_probability > 0.0 or bool(self.crashed)

    def to_dict(self) -> dict:
        """A JSON-ready representation (the fuzz repro payload)."""
        payload = asdict(self)
        payload["crashed"] = list(self.crashed)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "World":
        """Rebuild a world dumped by :meth:`to_dict`."""
        data = dict(payload)
        data["crashed"] = tuple(data.get("crashed", ()))
        return cls(**data)


@dataclass(frozen=True, slots=True)
class BuiltWorld:
    """A world realised into the objects the engines consume."""

    world: World
    dataset: PointDataset
    config: SimulationConfig
    graph: WeightedProximityGraph
    #: The same WPG from :func:`~repro.verify.oracles.oracle_build_wpg`.
    scalar_graph: WeightedProximityGraph
    hosts: tuple[int, ...]

    def model(self) -> Optional[RSSModel]:
        """A fresh radio model instance for this world.

        Noisy models carry RNG state, so every WPG build needs its own
        same-seeded instance to stay bit-identical; ``None`` selects the
        builder's default ideal model.
        """
        return _model_for(self.world)


def _model_for(world: World) -> Optional[RSSModel]:
    if world.radio == "ideal":
        return None
    if world.radio == "shadowing":
        return LogDistanceRSSModel(shadowing_sigma_db=2.0, seed=world.seed + 7)
    if world.radio == "tdoa":
        return TDOAModel(jitter_sigma=2e-8, seed=world.seed + 7)
    raise VerificationError(f"unknown radio model {world.radio!r}")


def _dataset_for(world: World) -> PointDataset:
    if world.kind == "uniform":
        return uniform_points(world.n, seed=world.seed)
    if world.kind == "gaussian":
        return gaussian_clusters(world.n, clusters=4, spread=0.05, seed=world.seed)
    # Grid worlds round n down to the nearest square at generation time.
    side = math.isqrt(world.n)
    return grid_points(side, jitter=0.2, seed=world.seed)


def random_world(seed: int) -> World:
    """One seeded world draw — the fuzz CLI's generator.

    The draw covers all dataset kinds, radio models, increment policies
    and both engine modes; roughly one world in seven replays message
    -level through the peer network and one in seven injects faults.
    """
    rng = np.random.default_rng(seed)
    kind = str(rng.choice(DATASET_KINDS, p=[0.5, 0.3, 0.2]))
    if kind == "grid":
        side = int(rng.integers(5, 11))
        n = side * side
    else:
        n = int(rng.integers(24, 121))
    k = int(rng.integers(2, min(8, n) + 1))
    delta = float(rng.uniform(0.06, 0.22))
    max_peers = int(rng.integers(3, 11))
    policy = str(rng.choice(POLICIES))
    mode = str(rng.choice(MODES, p=[0.75, 0.25]))
    radio = str(rng.choice(RADIO_MODELS, p=[0.6, 0.25, 0.15]))
    requests = int(rng.integers(3, 9))
    flavor = rng.random()
    drop_probability = 0.0
    crashed: tuple[int, ...] = ()
    p2p = False
    churn_moves = 0
    if flavor < 0.15:
        p2p = True
    elif flavor < 0.30:
        drop_probability = float(rng.uniform(0.02, 0.2))
        if rng.random() < 0.4:
            crashed = tuple(
                int(v) for v in rng.choice(n, size=min(2, n - k), replace=False)
            )
    elif flavor < 0.45 and radio == "ideal":
        # Dynamic-population worlds: a seeded churn schedule runs between
        # two serving passes and the churn invariant compares the
        # incrementally-patched world against a from-scratch rebuild.
        churn_moves = int(rng.integers(5, 41))
    if p2p or drop_probability > 0.0 or crashed:
        mode = "distributed"
        if policy not in PROGRESSIVE_POLICIES:
            policy = str(rng.choice(PROGRESSIVE_POLICIES))
    return World(
        seed=seed,
        kind=kind,
        n=n,
        k=k,
        delta=delta,
        max_peers=max_peers,
        policy=policy,
        mode=mode,
        radio=radio,
        requests=requests,
        drop_probability=drop_probability,
        crashed=crashed,
        p2p=p2p,
        churn_moves=churn_moves,
    )


def churn_schedule(world: World) -> list[list[tuple[int, "Point"]]]:
    """The world's seeded churn schedule: batches of ``(user, new point)``.

    A pure function of the world (``seed``, ``n``, ``churn_moves``), so a
    replayed world re-applies the identical movement.  Moves land uniform
    in the unit square, grouped into small batches; a user appears at
    most once per batch (the ``apply_moves`` contract) but may move again
    in later batches.
    """
    from repro.geometry.point import Point

    rng = np.random.default_rng(world.seed + 86243)
    remaining = world.churn_moves
    batches: list[list[tuple[int, Point]]] = []
    while remaining > 0:
        size = int(min(remaining, rng.integers(1, 7)))
        users = rng.choice(world.n, size=size, replace=False)
        coords = rng.random((size, 2))
        batches.append(
            [
                (int(u), Point(float(x), float(y)))
                for u, (x, y) in zip(users, coords)
            ]
        )
        remaining -= size
    return batches


def build_world(world: World) -> BuiltWorld:
    """Realise ``world``: dataset, config, WPG, oracle WPG, hosts.

    The builder and :func:`~repro.verify.oracles.oracle_build_wpg` run
    with independent same-seeded radio models so the differential
    invariant can compare them on every fuzzed world, noisy radio models
    included.
    """
    dataset = _dataset_for(world)
    n = len(dataset)
    k = min(world.k, n)
    config = SimulationConfig(
        user_count=n,
        delta=world.delta,
        max_peers=world.max_peers,
        k=k,
        seed=world.seed,
    )
    graph = build_wpg_fast(
        dataset, world.delta, world.max_peers, model=_model_for(world)
    )
    scalar_graph = oracle_build_wpg(
        dataset, world.delta, world.max_peers, model=_model_for(world)
    )
    rng = np.random.default_rng(world.seed + 1009)
    count = min(world.requests, n)
    hosts = tuple(int(v) for v in rng.choice(n, size=count, replace=False))
    return BuiltWorld(
        world=replace(world, n=n, k=k),
        dataset=dataset,
        config=config,
        graph=graph,
        scalar_graph=scalar_graph,
        hosts=hosts,
    )


# -- Hypothesis strategies ----------------------------------------------------------
#
# Hypothesis is a dev/test dependency; everything below imports it
# lazily so the fuzz CLI and the engines stay importable without it.


def world_strategy(max_users: int = 40, allow_faults: bool = False):
    """A Hypothesis strategy drawing small, fast-to-serve worlds.

    Sized for property suites: populations stay small (shrinking then
    produces readable counterexamples) and radio defaults to the ideal
    model unless the drawn world opts into noise.
    """
    from hypothesis import strategies as st

    def _assemble(draw):
        seed = draw(st.integers(0, 2**31 - 1))
        kind = draw(st.sampled_from(DATASET_KINDS))
        n = draw(st.integers(12, max_users))
        k = draw(st.integers(2, min(6, n)))
        policy = draw(st.sampled_from(POLICIES))
        mode = draw(st.sampled_from(MODES))
        radio = draw(st.sampled_from(RADIO_MODELS))
        drop = 0.0
        crashed: tuple[int, ...] = ()
        if allow_faults and draw(st.booleans()):
            drop = draw(
                st.floats(0.02, 0.25, allow_nan=False, allow_infinity=False)
            )
        if drop > 0.0:
            mode = "distributed"
            if policy not in PROGRESSIVE_POLICIES:
                policy = "secure"
        churn = 0
        if drop == 0.0 and radio == "ideal":
            churn = draw(st.integers(0, 16))
        return World(
            seed=seed,
            kind=kind,
            n=n,
            k=k,
            delta=draw(st.floats(0.08, 0.25, allow_nan=False)),
            max_peers=draw(st.integers(3, 8)),
            policy=policy,
            mode=mode,
            radio=radio,
            requests=draw(st.integers(2, 4)),
            drop_probability=drop,
            crashed=crashed,
            p2p=False,
            churn_moves=churn,
        )

    return st.composite(lambda draw: _assemble(draw))()


def register_profiles() -> None:
    """Register the repository's Hypothesis settings profiles.

    ``repro-ci`` keeps the property suites inside the CI time budget;
    ``repro-dev`` digs deeper locally.  Select with the standard
    ``HYPOTHESIS_PROFILE`` environment variable (the test conftest loads
    ``repro-ci`` by default).
    """
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "repro-ci",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
    settings.register_profile(
        "repro-dev",
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
