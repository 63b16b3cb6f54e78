"""Shared machinery for the figure runners.

``ExperimentSetup`` owns the (expensive) dataset and caches WPGs per
(delta, max_peers) and whole-graph partitions per (graph, k), so a sweep
over k or S rebuilds nothing it does not have to.  Scale is controlled by
environment variables so the same code drives a laptop-sized smoke run
and the full 104,770-user reproduction:

* ``REPRO_USERS``    — population size (default 104,770; Table I);
* ``REPRO_REQUESTS`` — default workload size S (default 2,000; Table I).

``run_clustering_workload`` is Section VI's measurement loop: serve S
cloaking requests with one algorithm, record per-request communication
cost and cloaked-region area (optimal bounding — the paper isolates the
clustering algorithms from the bounding algorithms this way).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Protocol, Sequence

from repro.config import SimulationConfig
from repro.datasets.base import PointDataset
from repro.datasets.california import california_like_poi
from repro.errors import ClusteringError, ConfigurationError, ReproError
from repro.geometry.rect import Rect
from repro.clustering.base import ClusterResult, Partition
from repro.clustering.centralized import centralized_k_clustering
from repro.clustering.distributed import DistributedClustering
from repro.clustering.knn import KNNClustering
from repro.clustering.hilbert_asr import HilbertASRClustering
from repro.cloaking.anonymizer import CentralizedAnonymizer
from repro.graph.build import build_wpg_fast
from repro.graph.wpg import WeightedProximityGraph
from repro.server.poidb import POIDatabase

Algorithm = Literal["t-conn", "centralized t-conn", "knn", "hilbert-asr"]

#: The paper's three contenders (Figs. 9-12).
ALGORITHMS: tuple[Algorithm, ...] = ("t-conn", "knn", "centralized t-conn")

#: Extended set including the coordinate-exposing hilbASR upper baseline
#: from related work (not part of the paper's own evaluation).
ALGORITHMS_EXTENDED: tuple[Algorithm, ...] = (*ALGORITHMS, "hilbert-asr")


def default_user_count() -> int:
    """Population size from ``REPRO_USERS`` (Table I's 104,770 default)."""
    return int(os.environ.get("REPRO_USERS", "104770"))


def default_request_count() -> int:
    """Workload size from ``REPRO_REQUESTS`` (Table I's 2,000 default)."""
    return int(os.environ.get("REPRO_REQUESTS", "2000"))


class ClusteringService(Protocol):
    """Serve one k-clustering request for ``host``."""
    def request(self, host: int) -> ClusterResult:
        """The phase-1 interface every clustering scheme implements."""
        ...


@dataclass
class ExperimentSetup:
    """Dataset plus caches shared by every figure runner."""

    dataset: PointDataset
    base_config: SimulationConfig
    _graphs: dict[tuple[float, int], WeightedProximityGraph] = field(
        default_factory=dict
    )
    _partitions: dict[tuple[int, int, int], Partition] = field(default_factory=dict)

    @classmethod
    def paper_default(
        cls,
        users: Optional[int] = None,
        requests: Optional[int] = None,
        seed: int = 2009,
    ) -> "ExperimentSetup":
        """The paper's setup at (possibly scaled) population size.

        When the population is scaled below Table I's 104,770, the
        communication range delta is scaled by ``sqrt(104770 / users)``
        so the expected number of radio neighbours — and with it the WPG
        density the experiments sweep — is preserved.
        """
        user_count = users if users is not None else default_user_count()
        request_count = requests if requests is not None else default_request_count()
        dataset = california_like_poi(user_count, seed=seed)
        from repro.config import DEFAULT_DELTA, DEFAULT_USER_COUNT

        delta = DEFAULT_DELTA * (DEFAULT_USER_COUNT / user_count) ** 0.5
        config = SimulationConfig(
            user_count=user_count,
            request_count=request_count,
            delta=delta,
            seed=seed,
        )
        return cls(dataset=dataset, base_config=config)

    def graph(self, config: SimulationConfig) -> WeightedProximityGraph:
        """The WPG for a config's (delta, max_peers), built once."""
        key = (config.delta, config.max_peers)
        cached = self._graphs.get(key)
        if cached is None:
            cached = build_wpg_fast(self.dataset, config.delta, config.max_peers)
            self._graphs[key] = cached
        return cached

    def whole_partition(
        self, graph: WeightedProximityGraph, k: int
    ) -> Partition:
        """The centralized Algorithm 1 partition of ``graph``, built once."""
        key = (id(graph), k, 0)
        cached = self._partitions.get(key)
        if cached is None:
            cached = centralized_k_clustering(graph, k, method="greedy")
            self._partitions[key] = cached
        return cached

    def service(
        self,
        algorithm: Algorithm,
        graph: WeightedProximityGraph,
        k: int,
    ) -> ClusteringService:
        """A fresh phase-1 clustering service (own registry)."""
        if algorithm == "t-conn":
            return DistributedClustering(graph, k)
        if algorithm == "knn":
            return KNNClustering(graph, k)
        if algorithm == "centralized t-conn":
            return CentralizedAnonymizer(
                graph, k, precomputed=self.whole_partition(graph, k)
            )
        if algorithm == "hilbert-asr":
            return HilbertASRClustering(self.dataset, k)
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True, slots=True)
class ClusteringWorkloadResult:
    """Section VI's two clustering metrics plus bookkeeping.

    ``avg_comm_cost`` and ``avg_cloaked_area`` are averaged over the
    *served* requests (the paper's "averaged over the total number of
    cloaking requests"); failures are reported, not averaged in.
    ``clusters`` holds the distinct clusters the workload formed for the
    served hosts, for downstream phases (Fig. 13 reuses them).
    """

    algorithm: str
    k: int
    requests: int
    served: int
    cached_hits: int
    failures: int
    avg_comm_cost: float
    avg_cloaked_area: float
    clusters: tuple[frozenset[int], ...]
    per_request_costs: tuple[int, ...]
    per_request_areas: tuple[float, ...]
    per_request_pois: tuple[int, ...] = ()

    @property
    def avg_pois(self) -> float:
        """Average POIs inside the served requests' cloaked regions."""
        if not self.per_request_pois:
            return float("nan")
        return sum(self.per_request_pois) / len(self.per_request_pois)


def run_clustering_workload(
    setup: ExperimentSetup,
    algorithm: Algorithm,
    config: SimulationConfig,
    hosts: Sequence[int],
    graph: Optional[WeightedProximityGraph] = None,
    db: "Optional[POIDatabase]" = None,
) -> ClusteringWorkloadResult:
    """Serve ``hosts`` with one algorithm and measure Section VI's metrics.

    Pass a :class:`~repro.server.poidb.POIDatabase` to additionally count
    the POIs inside each request's cloaked region (Fig. 10's request-cost
    component).
    """
    wpg = graph if graph is not None else setup.graph(config)
    service = setup.service(algorithm, wpg, config.k)
    costs: list[int] = []
    areas: list[float] = []
    pois: list[int] = []
    region_cache: dict[frozenset[int], tuple[float, int]] = {}
    clusters: list[frozenset[int]] = []
    cached_hits = 0
    failures = 0
    for host in hosts:
        try:
            result = service.request(host)
        except (ClusteringError, ReproError):
            failures += 1
            continue
        if result.from_cache:
            cached_hits += 1
        costs.append(result.involved)
        cached_region = region_cache.get(result.members)
        if cached_region is None:
            # Optimal (exact) bounding box: the paper evaluates clustering
            # with optimal bounding to isolate the two phases.
            points = [setup.dataset[i] for i in result.members]
            region = Rect.from_points(points)
            poi_count = db.count_in_region(region) if db is not None else 0
            cached_region = (region.area, poi_count)
            region_cache[result.members] = cached_region
            clusters.append(result.members)
        areas.append(cached_region[0])
        pois.append(cached_region[1])
    served = len(costs)
    return ClusteringWorkloadResult(
        algorithm=algorithm,
        k=config.k,
        requests=len(hosts),
        served=served,
        cached_hits=cached_hits,
        failures=failures,
        avg_comm_cost=sum(costs) / served if served else float("nan"),
        avg_cloaked_area=sum(areas) / served if served else float("nan"),
        clusters=tuple(clusters),
        per_request_costs=tuple(costs),
        per_request_areas=tuple(areas),
        per_request_pois=tuple(pois) if db is not None else (),
    )


@lru_cache(maxsize=4)
def shared_setup(
    users: Optional[int] = None, requests: Optional[int] = None, seed: int = 2009
) -> ExperimentSetup:
    """Process-wide setup cache so benches share the dataset and WPGs."""
    return ExperimentSetup.paper_default(users=users, requests=requests, seed=seed)
