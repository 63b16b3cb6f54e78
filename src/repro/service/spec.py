"""The service spec: a JSON-serialisable recipe for identical replicas.

Every shard worker holds a full deterministic replica of the engine (the
ROADMAP's shared-state flavor of the sharded runtime: the WPG's
components are the unit of cloaking correctness, and a component may
chain through ≤ δ edges across any number of tile slabs, so partial
state cannot answer every request bit-identically).  A
:class:`ServiceSpec` is everything needed to build one replica — under
the ``fork`` start method workers inherit the dispatcher's already-built
engine copy-on-write and the spec is provenance; under any other start
method it is the build recipe itself.

Two sources are supported: a :mod:`repro.verify` world payload (the
differential test harness drives the service over fuzzed worlds) and a
synthetic population (the benchmark's 50k-user load).

The **centralized** engine mode is refused with a typed
:class:`~repro.errors.ServiceError`: its one-shot whole-graph partition
is global state triggered by whichever request arrives first, so two
shards that first hear a request at different points of the churn
timeline would partition different graphs — there is no shard-local
serving order that reproduces the single-process engine.  The
``distributed`` and ``tree`` flavors confine all cross-request state to
the requester's WPG component, which is exactly what makes sharding
invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cloaking.engine import CloakingEngine
from repro.config import SimulationConfig
from repro.datasets.base import MutablePointDataset, PointDataset
from repro.errors import ServiceError

#: Clustering flavors whose request-time state is component-local.
SHARDABLE_FLAVORS = ("distributed", "tree")

#: Synthetic dataset kinds the spec can generate.
SYNTHETIC_KINDS = ("california", "uniform")


@dataclass(frozen=True, slots=True)
class ServiceSpec:
    """Everything a worker needs to build its engine replica.

    ``source`` is either ``{"world": <verify World payload>}`` or
    ``{"synthetic": {"users", "seed", "kind", "delta", "max_peers",
    "k"}}``.  ``flavor`` selects the phase-1 service (``distributed`` or
    the cluster-tree fast path); ``policy``/``min_area`` pass through to
    the engine.  ``shards`` and ``queue_capacity`` shape the service in
    front of the replicas; ``obs`` turns the per-process metrics
    registry on in every worker.
    """

    source: dict
    flavor: str = "distributed"
    policy: str = "secure"
    min_area: float = 0.0
    shards: int = 2
    queue_capacity: int = 256
    obs: bool = False

    def __post_init__(self) -> None:
        if self.flavor not in SHARDABLE_FLAVORS:
            raise ServiceError(
                f"clustering flavor {self.flavor!r} cannot be sharded "
                f"(supported: {', '.join(SHARDABLE_FLAVORS)}); the "
                "centralized mode's one-shot global partition has no "
                "shard-local serving order"
            )
        if self.shards < 1:
            raise ServiceError(f"shards must be >= 1, got {self.shards}")
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        keys = set(self.source) if isinstance(self.source, dict) else set()
        if keys != {"world"} and keys != {"synthetic"}:
            raise ServiceError(
                "spec source must be {'world': ...} or {'synthetic': ...}"
            )

    @classmethod
    def synthetic(
        cls,
        users: int,
        seed: int = 7,
        kind: str = "california",
        delta: float = 0.02,
        max_peers: int = 10,
        k: int = 5,
        **kwargs: object,
    ) -> "ServiceSpec":
        """A spec over a generated population (benchmarks, the daemon)."""
        if kind not in SYNTHETIC_KINDS:
            raise ServiceError(
                f"unknown synthetic dataset kind {kind!r} "
                f"(supported: {', '.join(SYNTHETIC_KINDS)})"
            )
        source = {
            "synthetic": {
                "users": int(users),
                "seed": int(seed),
                "kind": kind,
                "delta": float(delta),
                "max_peers": int(max_peers),
                "k": int(k),
            }
        }
        return cls(source=source, **kwargs)  # type: ignore[arg-type]

    @property
    def delta(self) -> float:
        """The world's δ (tile width of the shard map)."""
        if "world" in self.source:
            return float(self.source["world"]["delta"])
        return float(self.source["synthetic"]["delta"])

    def to_dict(self) -> dict:
        """JSON-ready payload (``python -m repro.service --spec``)."""
        return {
            "format": "service-spec-v1",
            "source": self.source,
            "flavor": self.flavor,
            "policy": self.policy,
            "min_area": self.min_area,
            "shards": self.shards,
            "queue_capacity": self.queue_capacity,
            "obs": self.obs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceSpec":
        """Inverse of :meth:`to_dict`; typed error on unknown formats."""
        if not isinstance(payload, dict) or payload.get("format") != "service-spec-v1":
            raise ServiceError(
                f"unknown service spec format: {payload.get('format') if isinstance(payload, dict) else payload!r}"
            )
        if payload.get("tuning") is not None:
            # Older specs wrote ``"tuning": null``, which still loads; a
            # real policy would otherwise be dropped and served untuned.
            raise ServiceError(
                "service spec carries a 'tuning' policy: online tuning "
                "is no longer supported"
            )
        return cls(
            source=payload["source"],
            flavor=payload.get("flavor", "distributed"),
            policy=payload.get("policy", "secure"),
            min_area=float(payload.get("min_area", 0.0)),
            shards=int(payload.get("shards", 2)),
            queue_capacity=int(payload.get("queue_capacity", 256)),
            obs=bool(payload.get("obs", False)),
        )

    def with_shards(self, shards: int) -> "ServiceSpec":
        """This spec at a different shard count (scaling curves)."""
        return replace(self, shards=shards)


def spec_from_world(world, shards: int = 2, **kwargs: object) -> ServiceSpec:
    """A spec serving a :class:`repro.verify.worlds.World`.

    The world's policy and mode carry over; a ``centralized`` world is
    served with the ``distributed`` flavor (see the module docstring for
    why the centralized mode is not shardable) — the differential
    harness builds its single-process reference with the same flavor, so
    the comparison stays apples-to-apples.
    """
    flavor = "distributed" if world.mode == "centralized" else world.mode
    kwargs.setdefault("flavor", flavor)
    kwargs.setdefault("policy", world.policy)
    return ServiceSpec(
        source={"world": world.to_dict()}, shards=shards, **kwargs
    )  # type: ignore[arg-type]


def materialize(spec: ServiceSpec):
    """Build (dataset, graph, config) for one replica, deterministically.

    Every call produces *fresh* objects from the spec's seeds: two
    replicas built from the same spec start bit-identical and then evolve
    independently in their own processes.
    """
    if "world" in spec.source:
        from repro.verify.worlds import World, build_world

        built = build_world(World.from_dict(spec.source["world"]))
        dataset = MutablePointDataset.from_dataset(built.dataset)
        return dataset, built.graph, built.config
    params = spec.source["synthetic"]
    users = int(params["users"])
    seed = int(params["seed"])
    delta = float(params["delta"])
    max_peers = int(params["max_peers"])
    if params["kind"] == "california":
        from repro.datasets.california import california_like_poi

        base: PointDataset = california_like_poi(users, seed=seed)
    else:
        from repro.datasets.synthetic import uniform_points

        base = uniform_points(users, seed=seed)
    dataset = MutablePointDataset.from_dataset(base)
    from repro.graph.build import build_wpg_fast

    graph = build_wpg_fast(dataset, delta, max_peers)
    config = SimulationConfig(
        user_count=users,
        delta=delta,
        max_peers=max_peers,
        k=int(params["k"]),
    )
    return dataset, graph, config


def build_engine(spec: ServiceSpec) -> CloakingEngine:
    """One engine replica: what every shard worker (and the dispatcher's
    routing mirror, and the differential tests' reference) runs."""
    dataset, graph, config = materialize(spec)
    if spec.flavor == "tree":
        return CloakingEngine(
            dataset,
            graph,
            config,
            clustering="tree",
            policy=spec.policy,
            min_area=spec.min_area,
        )
    return CloakingEngine(
        dataset,
        graph,
        config,
        mode="distributed",
        policy=spec.policy,
        min_area=spec.min_area,
    )
