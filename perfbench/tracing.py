"""Spans around the calls into each layer's public functions.

The traced run (``--trace 1``) wraps the functions listed in
:data:`TARGETS` -- class methods, and names bound into the modules that
call them -- from the benchmark's own files; the program is untouched.
Each call records a span ``(name, start, end, parent, request, counts)``
in memory, ``counts`` being what the result says about the work done; a
span opened with no enclosing span starts a new request id.
Spans are written out when the run ends.  A layer's self time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


def _useful_dirty(patch) -> int:
    """Dirty (re-ranked) users incident to at least one changed edge."""
    incident = {user for edge in patch.changed_edges for user in edge}
    return len(incident.intersection(patch.touched_users))


#: (module, attribute path, span name, counters recorded from the result)
TARGETS = [
    ("repro.graph.build", "build_wpg_fast", "graph.build", None),
    ("repro.spatial.grid", "GridIndex.move_many", "spatial.grid.move", None),
    ("repro.spatial.grid", "GridIndex.batch_query_radius", "spatial.grid.query", None),
    (
        "repro.graph.incremental", "IncrementalWPG.apply_moves",
        "graph.incremental.apply",
        lambda r: {
            "graph.incremental.dirty_users": r.dirty_users,
            "graph.incremental.edges_changed": r.edges_changed,
            "graph.incremental.useful_users": _useful_dirty(r),
        },
    ),
    (
        "repro.graph.cluster_tree", "ClusterTree.apply_patch",
        "graph.cluster_tree.patch",
        lambda r: {"graph.cluster_tree.components_rebuilt": r},
    ),
    (
        "repro.clustering.distributed", "DistributedClustering.request",
        "clustering.request",
        lambda r: {
            "clustering.involved_users": r.involved,
            "clustering.registry_hits": int(r.from_cache),
        },
    ),
    (
        "repro.clustering.tree", "TreeClustering.request",
        "clustering.request",
        lambda r: {
            "clustering.involved_users": r.involved,
            "clustering.registry_hits": int(r.from_cache),
        },
    ),
    (
        "repro.cloaking.engine", "secure_bounding_box", "bounding",
        lambda r: {
            "bounding.messages": r.messages,
            "bounding.region_area": r.region.area,
        },
    ),
    ("repro.cloaking.engine", "CloakingEngine.request", "cloaking.request", None),
    ("repro.cloaking.engine", "CloakingEngine.request_many", "cloaking.request", None),
    ("repro.cloaking.engine", "CloakingEngine.apply_moves", "cloaking.apply", None),
    (
        "repro.cloaking.engine", "CloakingEngine.invalidate_region",
        "cloaking.invalidate",
        lambda r: {"cloaking.regions_invalidated": int(r)},
    ),
    (
        "repro.persist.journal", "ChurnJournal.append", "persist.journal.append",
        lambda r: {"persist.journal.bytes": r},
    ),
    ("repro.service.dispatcher", "route_users", "service.barrier.route", None),
    ("repro.service.dispatcher", "CloakingService.apply_moves", "service.churn", None),
    ("repro.service.dispatcher", "CloakingService.request_many", "service.request", None),
]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0

    def reset(self) -> None:
        """Forget everything (a forked worker starts its own record)."""
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0

    def wrap(self, name: str, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                if stack:
                    parent = stack[-1]
                    request = tracer.spans[parent][4]
                else:
                    parent = -1
                    tracer._requests += 1
                    request = f"{os.getpid()}:{tracer._requests}"
                index = len(tracer.spans)
                span = [name, 0.0, 0.0, parent, request, None]
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in place (idempotent per process)."""
        for module_name, path, name, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            if getattr(original, "__wrapped__", None) is not None:
                continue
            setattr(owner, attr, self.wrap(name, original, counts))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            path.write_text(json.dumps(self.spans))


def load(path: Path) -> list[list]:
    return json.loads(Path(path).read_text())


def summarize(spans: list[list], since: float = float("-inf")) -> dict:
    """Per-name totals over spans that started at or after ``since``.

    Returns ``({name: {"calls", "total_s", "self_s"}}, counters)``.
    Bounding spans are split into ``bounding.churn`` -- under a churn
    apply -- and ``bounding.request`` -- the rest; the service mirror's
    applies are also totalled as ``service.mirror.apply``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    counters: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, _request, counts) in enumerate(spans):
        if start < since:
            continue
        key = name
        if name == "bounding":
            key = "bounding.request"
            ancestor = parent
            while ancestor >= 0:
                if spans[ancestor][0] == "cloaking.apply":
                    key = "bounding.churn"
                    break
                ancestor = spans[ancestor][3]
        keys = [key]
        if name == "cloaking.apply" and parent >= 0 and spans[parent][0] == "service.churn":
            # The dispatcher's routing mirror, applying a churn frame.
            keys.append("service.mirror.apply")
        for key in keys:
            entry = out[key]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        for counter, value in (counts or {}).items():
            counters[counter] += value
    return out, counters
