"""WPG persistence.

Building the full-scale WPG takes seconds to minutes; persisting it lets
a deployment (or a benchmark matrix) build once and reload instantly.
Two formats:

* a plain CSV of ``u,v,weight`` rows plus a leading ``# isolated: ...``
  comment listing isolated vertices (:func:`save_wpg`/:func:`load_wpg`),
  greppable and diffable;
* flat numpy columns (:func:`graph_to_arrays`/:func:`graph_from_arrays`)
  for the binary ``.npz`` snapshots of :mod:`repro.persist` — edges
  sorted by canonical key, weights bit-exact, isolated vertices carried
  in a separate column.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.errors import GraphError
from repro.graph.wpg import WeightedProximityGraph

#: The one CSV format version this module reads and writes.
WPG_FORMAT_VERSION = 1

_MAGIC = f"# wpg v{WPG_FORMAT_VERSION}"


def save_wpg(graph: WeightedProximityGraph, path: str | Path) -> None:
    """Write ``graph`` as an edge-list CSV (isolated vertices in a header)."""
    target = Path(path)
    isolated = sorted(v for v in graph.vertices() if graph.degree(v) == 0)
    with target.open("w", newline="") as handle:
        handle.write(_MAGIC + "\n")
        handle.write("# isolated: " + " ".join(map(str, isolated)) + "\n")
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "weight"])
        for edge in sorted(graph.edges(), key=lambda e: e.key()):
            writer.writerow([edge.u, edge.v, repr(edge.weight)])


def load_wpg(path: str | Path) -> WeightedProximityGraph:
    """Read a graph written by :func:`save_wpg`.

    Strict about provenance: an empty file, a non-WPG magic line, a
    *version-mismatched* ``# wpg`` header (a future writer's output must
    not be silently half-parsed), or a duplicate edge row all raise a
    typed :class:`~repro.errors.GraphError`.
    """
    source = Path(path)
    if not source.exists():
        raise GraphError(f"graph file not found: {source}")
    graph = WeightedProximityGraph()
    with source.open(newline="") as handle:
        first = handle.readline()
        if not first:
            raise GraphError(f"{source}: empty file, not a WPG")
        if not first.startswith("# wpg"):
            raise GraphError(f"{source}: not a WPG file (bad magic {first!r})")
        if first.rstrip("\r\n") != _MAGIC:
            raise GraphError(
                f"{source}: unsupported WPG format version "
                f"{first.rstrip()!r} (this reader supports {_MAGIC!r})"
            )
        isolated_line = handle.readline()
        if not isolated_line.startswith("# isolated:"):
            raise GraphError(f"{source}: missing isolated-vertices header")
        for token in isolated_line.split(":", 1)[1].split():
            graph.add_vertex(int(token))
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["u", "v", "weight"]:
            raise GraphError(f"{source}: malformed column header {header!r}")
        for row_number, row in enumerate(reader, start=4):
            try:
                u, v, weight = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise GraphError(
                    f"{source}:{row_number}: malformed edge row {row!r}"
                ) from exc
            if graph.has_edge(u, v):
                raise GraphError(
                    f"{source}:{row_number}: duplicate edge ({u}, {v})"
                )
            graph.add_edge(u, v, weight)
    return graph


# -- array form (binary snapshots) --------------------------------------------------


def graph_to_arrays(
    graph: WeightedProximityGraph,
) -> dict[str, np.ndarray]:
    """``graph`` as flat numpy columns (the ``.npz`` snapshot form).

    ``vertices`` lists every vertex id ascending; ``us``/``vs``/``ws``
    are the edge columns sorted by canonical ``(u, v)`` key.  Weights
    round-trip bit for bit (binary64 in, binary64 out).
    """
    vertices, us, vs, ws = graph.edge_columns()
    return {"vertices": vertices, "us": us, "vs": vs, "ws": ws}


def graph_from_arrays(arrays: dict[str, np.ndarray]) -> WeightedProximityGraph:
    """Rebuild a graph from :func:`graph_to_arrays` output.

    Dense vertex ranges (``0..n-1``, the engine case) go through the
    lazy bulk constructor, so restoring a large graph defers the
    per-edge dict boxing exactly like the fast builder does; sparse id
    sets fall back to the scalar path.
    """
    vertices = np.asarray(arrays["vertices"], dtype=np.int64)
    us = np.asarray(arrays["us"], dtype=np.int64)
    vs = np.asarray(arrays["vs"], dtype=np.int64)
    ws = np.asarray(arrays["ws"], dtype=float)
    if not (len(us) == len(vs) == len(ws)):
        raise GraphError(
            f"edge columns disagree: {len(us)}/{len(vs)}/{len(ws)} entries"
        )
    n = len(vertices)
    if n and int(vertices[0]) == 0 and int(vertices[-1]) == n - 1:
        return WeightedProximityGraph.from_arrays(n, us, vs, ws)
    return WeightedProximityGraph.from_edges(
        zip(us.tolist(), vs.tolist(), ws.tolist()),
        vertices=vertices.tolist(),
    )
