"""The weighted proximity graph (WPG) and supporting graph machinery."""

from repro.graph.wpg import Edge, WeightedProximityGraph
from repro.graph.build import build_wpg_fast
from repro.graph.incremental import ChurnPatch, IncrementalWPG
from repro.graph.unionfind import UnionFind
from repro.graph.dendrogram import DendrogramNode, single_linkage_dendrogram
from repro.graph.components import (
    connected_component,
    connected_components,
    external_border,
    is_connected,
    t_connected,
    t_component,
)
from repro.graph.dendrogram import cut_smallest_valid
from repro.graph.io import (
    graph_from_arrays,
    graph_to_arrays,
    load_wpg,
    save_wpg,
)
from repro.graph.metrics import (
    average_degree,
    graph_diameter,
    max_edge_weight,
    regular_graph_diameter_bound,
)

__all__ = [
    "ChurnPatch",
    "DendrogramNode",
    "Edge",
    "IncrementalWPG",
    "UnionFind",
    "WeightedProximityGraph",
    "average_degree",
    "build_wpg_fast",
    "connected_component",
    "connected_components",
    "cut_smallest_valid",
    "external_border",
    "graph_diameter",
    "graph_from_arrays",
    "graph_to_arrays",
    "is_connected",
    "load_wpg",
    "max_edge_weight",
    "regular_graph_diameter_bound",
    "save_wpg",
    "single_linkage_dendrogram",
    "t_component",
    "t_connected",
]
