"""Trace-context propagation and the protocol flight recorder.

The paper's protocols are multi-party and multi-round: one cloaking
request fans out into clustering consultations, four directional secure
bounding runs, and — under the reliability runtime — retries, dedup
replays, crash evictions, and aborts.  The metrics registry aggregates
all of that per process; this module adds the *per-request* axis:

* A **trace context**: :func:`request_scope` allocates a process-unique
  trace id at each engine entry point (``request`` / ``request_many`` /
  ``apply_moves`` / a bare ``P2PCloakingSession.request``) and parks it
  in a module global that the network simulator stamps onto every
  :class:`~repro.network.message.Message` envelope.  Nested scopes adopt
  the outer id, so a ``request`` issued by ``request_many`` stays one
  trace.
* A **flight recorder**: a bounded ring of typed
  :class:`TraceEvent` entries (request start/end, cache hit/miss,
  cluster formed/reformed, bounding runs, retries, evictions, aborts,
  churn patches, per-leg messages), each stamped with the current trace
  id, installable with :func:`install_recorder`.
* **JSONL export + CLI**: :func:`export_jsonl` writes a ``trace/v1``
  file (meta line, recent span records, events); ``python -m
  repro.obs.trace file.jsonl`` summarizes traces and renders a
  per-request waterfall.

Disabled-path contract (inherited from the registry): when no recorder
is installed and metrics are off, :func:`request_scope` returns a shared
no-op scope — module-global loads and one branch, no allocation — and
instrumented call sites read :data:`_recorder` once and skip event
construction entirely.

This module is a dependency *leaf*: ``registry`` and ``spans`` import
it (for exemplar lookup and trace-id adoption); it imports neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Deque, Iterable, Optional, Sequence

from repro.errors import ConfigurationError

#: Schema tag written into (and required of) every JSONL trace file.
TRACE_SCHEMA = "trace/v1"

#: Default flight-recorder capacity (events retained before eviction).
DEFAULT_CAPACITY = 65536

# -- event vocabulary -------------------------------------------------------------

EVT_REQUEST_START = "request_start"
EVT_REQUEST_END = "request_end"
EVT_CACHE_HIT = "cache_hit"
EVT_CACHE_MISS = "cache_miss"
EVT_CLUSTER_FORMED = "cluster_formed"
EVT_CLUSTER_REFORMED = "cluster_reformed"
EVT_BOUNDING_RUN = "bounding_run"
EVT_BOUNDING_RESTART = "bounding_restart"
EVT_RETRY = "retry"
EVT_PEER_SUSPECTED = "peer_suspected"
EVT_EVICTION = "eviction"
EVT_ABORT = "abort"
EVT_CHURN_PATCH = "churn_patch"
EVT_MESSAGE = "message"

#: The closed set of event kinds; :meth:`FlightRecorder.record` rejects
#: anything else so a typo can never produce an unqueryable stream.
EVENT_KINDS = frozenset(
    {
        EVT_REQUEST_START,
        EVT_REQUEST_END,
        EVT_CACHE_HIT,
        EVT_CACHE_MISS,
        EVT_CLUSTER_FORMED,
        EVT_CLUSTER_REFORMED,
        EVT_BOUNDING_RUN,
        EVT_BOUNDING_RESTART,
        EVT_RETRY,
        EVT_PEER_SUSPECTED,
        EVT_EVICTION,
        EVT_ABORT,
        EVT_CHURN_PATCH,
        EVT_MESSAGE,
    }
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured protocol event, stamped with its trace context."""

    trace_id: Optional[int]
    ts: float  # perf_counter timestamp
    kind: str
    fields: dict = field(default_factory=dict)


class FlightRecorder:
    """A bounded ring of :class:`TraceEvent` entries.

    Overflow evicts the oldest event and counts it in :attr:`dropped`,
    so a truncated stream is detectable instead of silent.
    """

    __slots__ = ("capacity", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"flight recorder capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    def record(self, kind: str, /, **fields: object) -> None:
        """Append one event, stamped with the current trace id and time."""
        if kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown flight-recorder event kind {kind!r}"
            )
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(TraceEvent(_current, perf_counter(), kind, fields))

    def events(self, trace_id: Optional[int] = None) -> list[TraceEvent]:
        """Retained events, oldest first; optionally one trace only."""
        if trace_id is None:
            return list(self._events)
        return [e for e in self._events if e.trace_id == trace_id]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Drop every retained event and reset the dropped counter."""
        self._events.clear()
        self.dropped = 0


# -- module trace-context state ---------------------------------------------------
#
# Single-threaded by design, like the metrics registry: workers should
# carry their own context.  ``_metrics_active`` mirrors the registry's
# enabled switch (toggled by ``registry.enable``/``disable``) so this
# module needs no import of the registry.

_current: Optional[int] = None
_next_trace_id = 0
_recorder: Optional[FlightRecorder] = None
_metrics_active = False


def new_trace_id() -> int:
    """Allocate the next process-unique trace id."""
    global _next_trace_id
    trace_id = _next_trace_id
    _next_trace_id += 1
    return trace_id


def current_trace_id() -> Optional[int]:
    """The trace id of the enclosing request scope, or None."""
    return _current


class _NullScope:
    """The shared disabled-path scope: enters and exits doing nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class _TraceScope:
    """An enabled request scope: binds (or adopts) the current trace id."""

    __slots__ = ("trace_id", "_restore")

    def __enter__(self) -> int:
        global _current
        self._restore = _current
        if _current is None:
            _current = new_trace_id()
        self.trace_id = _current
        return self.trace_id

    def __exit__(self, *exc_info: object) -> None:
        global _current
        _current = self._restore


def request_scope() -> object:
    """A context manager establishing a trace id for one request.

    Nested scopes adopt the enclosing id (a ``request`` issued by
    ``request_many`` stays one trace); a top-level scope allocates a
    fresh id.  When no flight recorder is installed and
    metrics are off this returns a shared no-op singleton, keeping the
    disabled path at global loads plus one branch.
    """
    if _recorder is None and not _metrics_active:
        return _NULL_SCOPE
    return _TraceScope()


class _AdoptedScope:
    """A request scope bound to a trace id minted in another process."""

    __slots__ = ("trace_id", "_restore")

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id

    def __enter__(self) -> int:
        global _current, _next_trace_id
        self._restore = _current
        _current = self.trace_id
        # Keep locally minted ids disjoint from adopted ones, so a
        # worker's own top-level scopes can never collide with a trace
        # id the dispatcher stamped onto a wire frame.
        if self.trace_id >= _next_trace_id:
            _next_trace_id = self.trace_id + 1
        return self.trace_id

    def __exit__(self, *exc_info: object) -> None:
        global _current
        _current = self._restore


def adopt_scope(trace_id: Optional[int]) -> object:
    """Bind a trace id that crossed a process boundary.

    The service dispatcher stamps its current trace id onto every wire
    frame; the shard worker wraps the frame's work in this scope so the
    spans, exemplars and flight-recorder events it produces carry the
    *dispatcher's* id — one request, one id, across processes.  With no
    id on the frame this degrades to an ordinary :func:`request_scope`.
    """
    if trace_id is None:
        return request_scope()
    return _AdoptedScope(int(trace_id))


def install_recorder(
    recorder: Optional[FlightRecorder] = None,
) -> FlightRecorder:
    """Install (and return) the process flight recorder.

    Passing a recorder resumes recording into it; omitting one keeps the
    previous recorder if any, else creates a fresh default-capacity one.
    """
    global _recorder
    if recorder is not None:
        _recorder = recorder
    elif _recorder is None:
        _recorder = FlightRecorder()
    return _recorder


def uninstall_recorder() -> Optional[FlightRecorder]:
    """Remove the flight recorder; returns the one that was installed."""
    global _recorder
    recorder, _recorder = _recorder, None
    return recorder


def get_recorder() -> Optional[FlightRecorder]:
    """The installed flight recorder, or None."""
    return _recorder


def record_event(kind: str, /, **fields: object) -> None:
    """Record one event if a recorder is installed (no-op otherwise).

    Hot paths should instead read :func:`get_recorder` once and guard —
    this helper still builds the kwargs dict on the disabled path.
    """
    recorder = _recorder
    if recorder is None:
        return
    recorder.record(kind, **fields)


def reset_trace_context() -> None:
    """Clear the current trace id (test isolation; scopes restore it)."""
    global _current
    _current = None


# -- JSONL export -----------------------------------------------------------------


def export_jsonl(
    path: Path | str,
    recorder: Optional[FlightRecorder] = None,
    include_spans: bool = True,
) -> Path:
    """Write the recorder's events (plus recent spans) as ``trace/v1`` JSONL."""
    recorder = recorder if recorder is not None else _recorder
    if recorder is None:
        raise ConfigurationError(
            "no flight recorder installed and none was passed"
        )
    path = Path(path)
    lines = [
        json.dumps(
            {
                "type": "meta",
                "schema": TRACE_SCHEMA,
                "events": len(recorder),
                "events_dropped": recorder.dropped,
                "capacity": recorder.capacity,
            }
        )
    ]
    if include_spans:
        from repro.obs import spans as _spans  # leaf module: import lazily

        for record in _spans.recent_spans():
            lines.append(
                json.dumps(
                    {
                        "type": "span",
                        "trace_id": record.trace_id,
                        "name": record.name,
                        "depth": record.depth,
                        "start": record.start,
                        "duration": record.duration,
                    }
                )
            )
    for event in recorder.events():
        lines.append(
            json.dumps(
                {
                    "type": "event",
                    "trace_id": event.trace_id,
                    "ts": event.ts,
                    "kind": event.kind,
                    "fields": event.fields,
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def load_jsonl(path: Path | str) -> tuple[dict, list[dict], list[dict]]:
    """Parse a ``trace/v1`` JSONL file into (meta, spans, events)."""
    meta: Optional[dict] = None
    spans: list[dict] = []
    events: list[dict] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        row = json.loads(line)
        kind = row.get("type")
        if kind == "meta":
            meta = row
        elif kind == "span":
            spans.append(row)
        elif kind == "event":
            events.append(row)
        else:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown trace row type {kind!r}"
            )
    if meta is None or meta.get("schema") != TRACE_SCHEMA:
        raise ConfigurationError(
            f"{path}: missing or unsupported trace meta "
            f"(want schema {TRACE_SCHEMA!r})"
        )
    return meta, spans, events


# -- CLI: summary + waterfall -----------------------------------------------------


def _fmt_fields(fields: dict) -> str:
    return " ".join(f"{k}={fields[k]}" for k in sorted(fields))


def summarize_traces(
    spans: Sequence[dict], events: Sequence[dict]
) -> list[dict]:
    """Per-trace rollups (root span, duration, event/message counts, status)."""
    ids: list[int] = []
    seen: set[int] = set()
    for row in list(spans) + list(events):
        trace_id = row["trace_id"]
        if trace_id is not None and trace_id not in seen:
            seen.add(trace_id)
            ids.append(trace_id)
    summaries = []
    for trace_id in ids:
        my_spans = [s for s in spans if s["trace_id"] == trace_id]
        my_events = [e for e in events if e["trace_id"] == trace_id]
        roots = [s for s in my_spans if s["depth"] == 0]
        starts = [s["start"] for s in my_spans] + [e["ts"] for e in my_events]
        ends = [s["start"] + s["duration"] for s in my_spans] + [
            e["ts"] for e in my_events
        ]
        status = "-"
        for event in my_events:
            if event["kind"] == EVT_REQUEST_END:
                status = str(event["fields"].get("status", "ok"))
            elif event["kind"] == EVT_ABORT:
                status = f"abort:{event['fields'].get('reason', '?')}"
        summaries.append(
            {
                "trace_id": trace_id,
                "root": roots[0]["name"] if roots else "(events only)",
                "start": min(starts),
                "duration": max(ends) - min(starts),
                "spans": len(my_spans),
                "events": len(my_events),
                "messages": sum(
                    1 for e in my_events if e["kind"] == EVT_MESSAGE
                ),
                "retries": sum(1 for e in my_events if e["kind"] == EVT_RETRY),
                "status": status,
            }
        )
    summaries.sort(key=lambda s: s["start"])
    return summaries


def render_summary(
    meta: dict,
    spans: Sequence[dict],
    events: Sequence[dict],
    tail: int = 5,
) -> str:
    """The trace-file overview: one line per trace plus the slowest tail."""
    summaries = summarize_traces(spans, events)
    unattributed = sum(1 for e in events if e["trace_id"] is None)
    lines = [
        f"{TRACE_SCHEMA}: {len(summaries)} trace(s), {len(events)} event(s), "
        f"{len(spans)} span record(s), {meta.get('events_dropped', 0)} "
        f"dropped, {unattributed} unattributed"
    ]
    if not summaries:
        return "\n".join(lines)
    header = (
        f"{'trace':>7}  {'root':<24} {'duration':>12}  {'spans':>5} "
        f"{'events':>6} {'msgs':>5} {'retries':>7}  status"
    )
    lines += ["", header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"#{s['trace_id']:>6}  {s['root']:<24} "
            f"{s['duration'] * 1e3:>9.3f} ms  {s['spans']:>5} "
            f"{s['events']:>6} {s['messages']:>5} {s['retries']:>7}  "
            f"{s['status']}"
        )
    slowest = sorted(summaries, key=lambda s: s["duration"], reverse=True)
    lines += ["", f"slowest {min(tail, len(slowest))} trace(s):"]
    for s in slowest[:tail]:
        lines.append(
            f"  #{s['trace_id']} {s['root']} {s['duration'] * 1e3:.3f} ms "
            f"({s['messages']} msgs, {s['retries']} retries, {s['status']})"
        )
    return "\n".join(lines)


def render_waterfall(
    trace_id: int, spans: Sequence[dict], events: Sequence[dict]
) -> str:
    """One trace as a time-ordered waterfall of spans and events."""
    my_spans = [s for s in spans if s["trace_id"] == trace_id]
    my_events = [e for e in events if e["trace_id"] == trace_id]
    if not my_spans and not my_events:
        return f"trace #{trace_id}: no spans or events retained"
    t0 = min(
        [s["start"] for s in my_spans] + [e["ts"] for e in my_events]
    )
    rows: list[tuple[float, int, str]] = []
    for s in my_spans:
        rows.append(
            (
                s["start"],
                s["depth"],
                f"{'  ' * s['depth']}▸ {s['name']}  "
                f"{s['duration'] * 1e3:.3f} ms",
            )
        )
    for e in my_events:
        rows.append(
            (e["ts"], 99, f"    · {e['kind']}  {_fmt_fields(e['fields'])}")
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    summary = summarize_traces(my_spans, my_events)[0]
    lines = [
        f"trace #{trace_id} — {summary['root']} — "
        f"{summary['duration'] * 1e3:.3f} ms, {summary['events']} event(s), "
        f"{summary['messages']} message(s), status {summary['status']}"
    ]
    for ts, _, label in rows:
        lines.append(f"  +{(ts - t0) * 1e3:9.3f} ms  {label}")
    by_kind: dict[str, int] = {}
    for e in my_events:
        if e["kind"] == EVT_MESSAGE:
            key = str(e["fields"].get("kind", "?"))
            by_kind[key] = by_kind.get(key, 0) + 1
    if by_kind:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
        lines.append(f"  messages by kind: {counts}")
    return "\n".join(lines)


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point: ``python -m repro.obs.trace file.jsonl [...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Inspect a trace/v1 JSONL flight-recorder export.",
    )
    parser.add_argument("path", type=Path, help="trace JSONL file")
    parser.add_argument(
        "--trace",
        type=int,
        default=None,
        metavar="ID",
        help="render the waterfall of one trace id",
    )
    parser.add_argument(
        "--slowest",
        action="store_true",
        help="render the waterfall of the slowest trace",
    )
    parser.add_argument(
        "--tail",
        type=int,
        default=5,
        metavar="N",
        help="how many slowest traces the summary lists",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the per-trace summary as JSON instead of text",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    try:
        meta, spans, events = load_jsonl(args.path)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace is not None:
        print(render_waterfall(args.trace, spans, events))
        return 0
    if args.slowest:
        summaries = summarize_traces(spans, events)
        if not summaries:
            print("no traces retained", file=sys.stderr)
            return 2
        slowest = max(summaries, key=lambda s: s["duration"])
        print(render_waterfall(slowest["trace_id"], spans, events))
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "schema": TRACE_SCHEMA,
                    "meta": meta,
                    "traces": summarize_traces(spans, events),
                },
                indent=2,
            )
        )
        return 0
    print(render_summary(meta, spans, events, tail=args.tail))
    return 0
