"""repro — Non-Exposure Location Anonymity (Hu & Xu, ICDE 2009).

Location cloaking without exposing accurate user locations: proximity
minimum k-clustering over a weighted proximity graph plus a secure
progressive bounding protocol.

Quickstart::

    from repro import (
        SimulationConfig, california_like_poi, build_wpg_fast, CloakingEngine,
    )

    config = SimulationConfig(user_count=5000)
    users = california_like_poi(5000)
    graph = build_wpg_fast(users, config.delta, config.max_peers)
    engine = CloakingEngine(users, graph, config)
    result = engine.request(host=42)
    assert result.region.satisfies(config.k)
"""

from repro.config import DEFAULTS, SimulationConfig
from repro.errors import (
    BoundingError,
    ClusteringError,
    ConfigurationError,
    DatasetError,
    GraphError,
    ProtocolError,
    ReproError,
)
from repro.geometry import Point, Rect
from repro.datasets import (
    PointDataset,
    california_like_poi,
    gaussian_clusters,
    load_csv,
    save_csv,
    uniform_points,
)
from repro.graph import WeightedProximityGraph, build_wpg_fast
from repro.clustering import (
    ClusterRegistry,
    ClusterResult,
    DistributedClustering,
    KNNClustering,
    centralized_k_clustering,
)
from repro.bounding import (
    ExponentialPolicy,
    LinearPolicy,
    SecurePolicy,
    paper_policy,
    progressive_upper_bound,
    secure_bounding_box,
)
from repro.cloaking import CentralizedAnonymizer, CloakedRegion, CloakingEngine
from repro.server import POIDatabase

__version__ = "1.0.0"

__all__ = [
    "DEFAULTS",
    "BoundingError",
    "CentralizedAnonymizer",
    "CloakedRegion",
    "CloakingEngine",
    "ClusterRegistry",
    "ClusterResult",
    "ClusteringError",
    "ConfigurationError",
    "DatasetError",
    "DistributedClustering",
    "ExponentialPolicy",
    "GraphError",
    "KNNClustering",
    "LinearPolicy",
    "POIDatabase",
    "Point",
    "PointDataset",
    "ProtocolError",
    "Rect",
    "ReproError",
    "SecurePolicy",
    "SimulationConfig",
    "WeightedProximityGraph",
    "build_wpg_fast",
    "california_like_poi",
    "centralized_k_clustering",
    "gaussian_clusters",
    "load_csv",
    "paper_policy",
    "progressive_upper_bound",
    "save_csv",
    "secure_bounding_box",
    "uniform_points",
]
