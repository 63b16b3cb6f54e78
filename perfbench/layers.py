"""Per-layer metrics of a traced run, normalised by the run's work.

Times are speed-scaled self times with the run's factor (both slices
summed, median over the run), per answered cloak (request side), per
applied move (churn side), per build or per frame; counts are per cloak,
per move, per batch or per frame.  A layer that does not run on a
workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from measure import SETUP_SLICE
from tracing import summarize

#: name -> (unit, better)
PER_LAYER = {
    "graph.build_s": ("s", "lower"),
    "spatial.grid.move_s": ("s/move", "lower"),
    "spatial.grid.query_s": ("s/move", "lower"),
    "graph.incremental.apply_s": ("s/move", "lower"),
    "graph.incremental.dirty_users": ("count/move", "lower"),
    "graph.incremental.edges_changed": ("count/move", "lower"),
    "graph.incremental.useful_dirty_ratio": ("ratio", "higher"),
    "graph.cluster_tree.patch_s": ("s/move", "lower"),
    "graph.cluster_tree.components_rebuilt": ("count/batch", "lower"),
    "clustering.request_s": ("s/cloak", "lower"),
    "clustering.involved_users": ("count/cloak", "lower"),
    "clustering.registry_hit_ratio": ("ratio", "higher"),
    "bounding.request_s": ("s/cloak", "lower"),
    "bounding.runs": ("count/cloak", "lower"),
    "bounding.messages": ("messages/run", "lower"),
    "bounding.region_area_mean": ("unit_square", "lower"),
    "bounding.churn_s": ("s/move", "lower"),
    "cloaking.request_self_s": ("s/cloak", "lower"),
    "cloaking.apply_self_s": ("s/move", "lower"),
    "cloaking.region_hit_ratio": ("ratio", "higher"),
    "cloaking.regions_invalidated": ("count/move", "lower"),
    "persist.journal.append_s": ("s/move", "lower"),
    "persist.journal.bytes_per_move": ("B/move", "lower"),
}

#: Reported by ``service-tcp`` only (not in BENCHMARK.json: see README).
SERVICE_LAYERS = {
    "service.request_frame_s": ("s/frame", "lower"),
    "service.worker.request_busy_s": ("s/frame", "lower"),
    "service.front_wire_s": ("s/frame", "lower"),
    "service.churn_frame_s": ("s/frame", "lower"),
    "service.barrier.worker_churn_s": ("s/frame", "lower"),
    "service.barrier.mirror_apply_s": ("s/frame", "lower"),
    "service.barrier.route_s": ("s/frame", "lower"),
    "service.barrier.rest_s": ("s/frame", "lower"),
    "service.halo_refreshes": ("count/frame", "lower"),
    "service.rerouted_users": ("count/frame", "lower"),
    "service.synced_regions": ("count/frame", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _merge(span_lists, since: float):
    totals: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counters: dict = defaultdict(float)
    for spans in span_lists:
        summary, counts = summarize(spans, since)
        for name, entry in summary.items():
            for key, value in entry.items():
                totals[name][key] += value
        for name, value in counts.items():
            counters[name] += value
    return totals, counters


def per_layer(result: dict, spans: list) -> dict:
    timed = result["timed"]
    factor = timed.meter.run_factor(SETUP_SLICE)
    span_lists = [spans, *result.get("spans", [])]
    window, counts = _merge(span_lists, timed.started)
    setup, _ = _merge(span_lists, float("-inf"))
    cloaks, moves = timed.cloaks, timed.moves
    batches = window["graph.incremental.apply"]["calls"]

    def self_s(name: str) -> float:
        return window[name]["self_s"] * factor

    builds = setup["graph.build"]
    values = {
        "graph.build_s": _ratio(builds["total_s"] * factor, builds["calls"]),
        "spatial.grid.move_s": _ratio(self_s("spatial.grid.move"), moves),
        "spatial.grid.query_s": _ratio(self_s("spatial.grid.query"), moves),
        "graph.incremental.apply_s": _ratio(self_s("graph.incremental.apply"), moves),
        "graph.incremental.dirty_users": _ratio(
            counts["graph.incremental.dirty_users"], moves),
        "graph.incremental.edges_changed": _ratio(
            counts["graph.incremental.edges_changed"], moves),
        "graph.incremental.useful_dirty_ratio": _ratio(
            counts["graph.incremental.useful_users"],
            counts["graph.incremental.dirty_users"]),
        "graph.cluster_tree.patch_s": _ratio(self_s("graph.cluster_tree.patch"), moves),
        "graph.cluster_tree.components_rebuilt": _ratio(
            counts["graph.cluster_tree.components_rebuilt"], batches),
        "clustering.request_s": _ratio(self_s("clustering.request"), cloaks),
        "clustering.involved_users": _ratio(counts["clustering.involved_users"], cloaks),
        "clustering.registry_hit_ratio": _ratio(
            counts["clustering.registry_hits"], window["clustering.request"]["calls"]),
        "bounding.request_s": _ratio(self_s("bounding.request"), cloaks),
        "bounding.runs": _ratio(window["bounding.request"]["calls"], cloaks),
        "bounding.messages": _ratio(
            counts["bounding.messages"],
            window["bounding.request"]["calls"] + window["bounding.churn"]["calls"]),
        "bounding.region_area_mean": _ratio(
            counts["bounding.region_area"],
            window["bounding.request"]["calls"] + window["bounding.churn"]["calls"]),
        "bounding.churn_s": _ratio(self_s("bounding.churn"), moves),
        "cloaking.request_self_s": _ratio(self_s("cloaking.request"), cloaks),
        "cloaking.apply_self_s": _ratio(self_s("cloaking.apply"), moves),
        "cloaking.region_hit_ratio": _ratio(timed.hits, cloaks),
        "cloaking.regions_invalidated": _ratio(
            counts["cloaking.regions_invalidated"], moves),
        "persist.journal.append_s": _ratio(self_s("persist.journal.append"), moves),
        "persist.journal.bytes_per_move": _ratio(counts["persist.journal.bytes"], moves),
    }
    names = dict(PER_LAYER)
    if result.get("service"):
        values.update(_service(result["service"], window, factor))
        names.update(SERVICE_LAYERS)
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _better) in names.items()
    }


def _service(layers, window, factor) -> dict:
    frames = len(layers["request_frame"])
    churns = len(layers["churn_frame"])
    request_frame = _ratio(sum(layers["request_frame"]) * factor, frames)
    request_busy = _ratio(sum(layers["request_busy"]) * factor, frames)
    churn_frame = _ratio(sum(layers["churn_frame"]) * factor, churns)
    worker_churn = _ratio(sum(layers["worker_churn"]) * factor, churns)
    mirror = _ratio(window["service.mirror.apply"]["total_s"] * factor, churns)
    route = _ratio(window["service.barrier.route"]["total_s"] * factor, churns)
    return {
        "service.request_frame_s": request_frame,
        "service.worker.request_busy_s": request_busy,
        "service.front_wire_s": request_frame - request_busy,
        "service.churn_frame_s": churn_frame,
        "service.barrier.worker_churn_s": worker_churn,
        "service.barrier.mirror_apply_s": mirror,
        "service.barrier.route_s": route,
        "service.barrier.rest_s": churn_frame - worker_churn - mirror - route,
        "service.halo_refreshes": _ratio(sum(layers["halo"]), churns),
        "service.rerouted_users": _ratio(sum(layers["rerouted"]), churns),
        "service.synced_regions": _ratio(sum(layers["synced"]), churns),
    }
