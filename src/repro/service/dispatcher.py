"""The dispatcher: admission control, routing, and the churn barrier.

:class:`CloakingService` forks one worker process per shard (each
inheriting the pre-fork engine build copy-on-write — replicas start
bit-identical for free), keeps a socketpair to each, and routes every
cloak request to the shard owning the requester's WPG component.  One
reader thread per worker resolves in-flight futures by frame id, so any
number of caller threads can have requests outstanding on all shards at
once.

Admission is a bounded counter, not a hidden queue: when
``queue_capacity`` requests are in flight the next one is rejected with
a typed :class:`~repro.errors.ServiceOverload` — *never* silently
dropped, never an unbounded pile-up.  Backpressure is the caller's
signal to slow down.

Churn is a fleet-wide barrier, because a move batch can merge WPG
components that different workers own — and a post-merge request needs
the registrations *both* precursors made.  The barrier's order is the
correctness argument:

1. close the admission gate, drain in-flight requests to zero (one
   barrier at a time: a second caller waits for the first to reopen
   the gate before closing it again);
2. ``drain_state``: collect every worker's new clusters and cached
   regions since the last sync;
3. ``merge_state``: broadcast each worker the others' deltas (adopted
   via ``engine.adopt_cluster`` / ``adopt_region``);
4. ``churn``: broadcast the full move batch, with each shard's
   halo-refresh list (border users whose visibility changed);
5. apply the same moves to the dispatcher's routing mirror;
6. recompute component → shard routing, send ``own`` deltas;
7. reopen the gate.

Steps 2-3 run at the only moments component structure can change, so
between barriers every component's state lives wholly on its one owner —
which is why per-request answers are bit-identical to a single engine.
"""

from __future__ import annotations

import itertools
import multiprocessing
import socket
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

from repro import errors as _errors
from repro import obs
from repro.errors import ReproError, ServiceError, ServiceOverload
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.frames import (
    DEFAULT_MAX_FRAME,
    read_frame,
    send_frame,
    stamp_trace,
)
from repro.obs import names as metric
from repro.obs import trace as _trace
from repro.service.shards import ShardMap, halo_moves, ownership_delta, route_users
from repro.service.spec import ServiceSpec, build_engine
from repro.service.worker import worker_main


def _raise_remote(error: dict) -> None:
    """Re-raise a wire error dict as its typed local exception."""
    name = error.get("type", "ServiceError")
    message = error.get("message", "remote error")
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ServiceError
        message = f"{name}: {message}"
    raise cls(message)


class _WorkerLink:
    """The dispatcher's end of one worker: socket, process, pending futures."""

    def __init__(self, shard: int, sock: socket.socket, process) -> None:
        self.shard = shard
        self.sock = sock
        self.process = process
        self.pending: dict[int, Future] = {}
        self.lock = threading.Lock()  # serialises writers on this socket
        self.alive = True


class CloakingService:
    """A sharded, multi-process cloaking service (context manager).

    ``request``/``request_many``/``apply_moves`` are the serving API and
    answer exactly what a single-process engine on the same world would;
    the rest is introspection for the differential harness, the soak
    test and the benchmark.
    """

    def __init__(self, spec: ServiceSpec, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self._spec = spec
        self._max_frame = max_frame
        self._closed = False
        if spec.obs:
            obs.enable()
        # The routing mirror doubles as the pre-fork replica build: every
        # worker inherits this exact engine copy-on-write.
        self._mirror = build_engine(spec)
        self._map = ShardMap(spec.shards, spec.delta)
        self._table = route_users(
            self._mirror.graph, self._mirror.dataset.points, self._map
        )
        self._clusters: set[frozenset[int]] = set()
        self._regions: dict[frozenset[int], tuple[Rect, int]] = {}
        # Admission state: a bounded in-flight counter plus the churn gate.
        self._admission = threading.Condition()
        self._in_flight = 0
        self._gate_closed = False
        # Held by one barrier from gate-close to gate-open (see _gated).
        self._barrier_lock = threading.Lock()
        self._frame_ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._links = self._spawn_workers()
        self._readers = [
            threading.Thread(
                target=self._reader, args=(link,), daemon=True,
                name=f"service-reader-{link.shard}",
            )
            for link in self._links
        ]
        for reader in self._readers:
            reader.start()

    # -- lifecycle ---------------------------------------------------------------

    def _spawn_workers(self) -> list[_WorkerLink]:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise ServiceError(
                "the sharded service needs the 'fork' start method so "
                "workers can inherit the pre-fork engine build"
            ) from exc
        pairs = [socket.socketpair() for _ in range(self._spec.shards)]
        owned: list[list[int]] = [[] for _ in range(self._spec.shards)]
        for user, shard in enumerate(self._table):
            owned[shard].append(user)
        links: list[_WorkerLink] = []
        for shard, (parent_end, child_end) in enumerate(pairs):
            close_first = [p for p, _ in pairs] + [
                c for other, (_, c) in enumerate(pairs) if other != shard
            ]
            process = ctx.Process(
                target=worker_main,
                args=(
                    child_end,
                    close_first,
                    shard,
                    self._mirror,
                    self._map,
                    owned[shard],
                    self._spec.obs,
                    self._max_frame,
                ),
                name=f"cloak-shard-{shard}",
                daemon=True,
            )
            process.start()
            links.append(_WorkerLink(shard, parent_end, process))
        for _, child_end in pairs:
            child_end.close()
        return links

    def __enter__(self) -> "CloakingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drain in-flight requests, shut every worker down, reap them."""
        if self._closed:
            return
        self._closed = True
        with self._admission:
            self._gate_closed = True
            self._admission.wait_for(lambda: self._in_flight == 0, timeout=30.0)
            self._admission.notify_all()  # wake gated waiters into the typed error
        for link in self._links:
            if not link.alive:
                continue
            try:
                future = self._submit(link, {"op": "shutdown"})
                future.result(timeout=10.0)
            except Exception:
                pass  # shutting down anyway; reap below
            try:
                link.sock.close()
            except OSError:
                pass
        for reader in self._readers:
            reader.join(timeout=5.0)
        for link in self._links:
            link.process.join(timeout=10.0)
            if link.process.is_alive():  # pragma: no cover - hung worker
                link.process.terminate()
                link.process.join(timeout=5.0)

    # -- the wire ----------------------------------------------------------------

    def _reader(self, link: _WorkerLink) -> None:
        """Resolve this worker's replies to their futures, until EOF."""
        while True:
            try:
                frame = read_frame(link.sock, self._max_frame)
            except (ReproError, OSError):
                break
            if frame is None:
                break
            future = link.pending.pop(frame.get("id"), None)
            if future is not None and not future.cancelled():
                future.set_result(frame)
        link.alive = False
        death = ServiceError(f"shard {link.shard} worker died mid-request")
        for future in list(link.pending.values()):
            if not future.done():
                future.set_exception(death)
        link.pending.clear()

    def _submit(self, link: _WorkerLink, payload: dict) -> Future:
        """Send one frame, return the Future its reply will resolve."""
        if not link.alive:
            raise ServiceError(f"shard {link.shard} worker is not running")
        with self._id_lock:
            payload["id"] = next(self._frame_ids)
        stamp_trace(payload)
        future: Future = Future()
        link.pending[payload["id"]] = future
        with link.lock:
            try:
                send_frame(link.sock, payload, self._max_frame)
            except OSError as exc:
                link.pending.pop(payload["id"], None)
                raise ServiceError(
                    f"shard {link.shard} worker is unreachable: {exc}"
                ) from exc
        if obs.enabled():
            obs.inc(metric.SERVICE_FRAMES_SENT)
        return future

    def _call(self, shard: int, payload: dict, timeout: float = 120.0) -> dict:
        """Round-trip one op; typed re-raise on an error reply."""
        reply = self._submit(self._links[shard], payload).result(timeout=timeout)
        if reply.get("status") != "ok":
            _raise_remote(reply.get("error", {}))
        return reply

    def _broadcast(self, payloads: Sequence[dict], timeout: float = 120.0) -> list[dict]:
        """One op per worker, concurrently; gather all replies in shard order."""
        futures = [
            self._submit(link, payload)
            for link, payload in zip(self._links, payloads)
        ]
        replies = []
        for future in futures:
            reply = future.result(timeout=timeout)
            if reply.get("status") != "ok":
                _raise_remote(reply.get("error", {}))
            replies.append(reply)
        return replies

    # -- admission -----------------------------------------------------------------

    def _admit(self, slots: int = 1) -> None:
        """Take admission slots or raise :class:`ServiceOverload` (typed,
        immediate — the bounded queue never silently drops).  Blocks only
        while the churn barrier holds the gate."""
        with self._admission:
            self._admission.wait_for(lambda: not self._gate_closed or self._closed)
            if self._closed:
                raise ServiceError("service is closed")
            if self._in_flight + slots > self._spec.queue_capacity:
                if obs.enabled():
                    obs.inc(metric.SERVICE_OVERLOADS)
                raise ServiceOverload(
                    f"admission queue full: {self._in_flight} in flight, "
                    f"capacity {self._spec.queue_capacity} — retry later"
                )
            self._in_flight += slots

    def _release(self, slots: int = 1) -> None:
        with self._admission:
            self._in_flight -= slots
            self._admission.notify_all()

    # -- the serving API -------------------------------------------------------------

    @property
    def spec(self) -> ServiceSpec:
        """The spec this service was built from."""
        return self._spec

    @property
    def shard_map(self) -> ShardMap:
        """The slab plan (tests probe halo geometry through it)."""
        return self._map

    def shard_of(self, host: int) -> int:
        """The shard currently owning ``host`` (component anchor routing)."""
        self._check_host(host)
        return self._table[host]

    def _check_host(self, host: int) -> None:
        if not isinstance(host, int) or isinstance(host, bool):
            raise ServiceError(f"host must be an int, got {host!r}")
        if not 0 <= host < len(self._table):
            raise ServiceError(
                f"unknown host {host} (population is {len(self._table)})"
            )

    def request(self, host: int) -> dict:
        """One cloak request; the canonical outcome dict of
        :func:`repro.service.worker.outcome_of` (cloaking failures come
        back as ``ok: false`` outcomes, not exceptions)."""
        self._check_host(host)
        self._admit()
        try:
            with _trace.request_scope(), obs.span(metric.SPAN_SERVICE_REQUEST):
                if obs.enabled():
                    obs.inc(metric.SERVICE_REQUESTS)
                reply = self._call(
                    self._table[host], {"op": "request", "host": host}
                )
            return reply["outcome"]
        finally:
            self._release()

    def request_many(self, hosts: Sequence[int]) -> list[dict]:
        """A batch of requests, scatter-gathered by owning shard.

        Per-shard arrival order preserves the batch order, and the reply
        is reassembled in the caller's order — exactly the sequential
        semantics of looping :meth:`request`.
        """
        hosts = list(hosts)
        for host in hosts:
            self._check_host(host)
        if not hosts:
            return []
        by_shard: dict[int, list[tuple[int, int]]] = {}
        for position, host in enumerate(hosts):
            by_shard.setdefault(self._table[host], []).append((position, host))
        self._admit(len(by_shard))
        try:
            with _trace.request_scope(), obs.span(metric.SPAN_SERVICE_REQUEST):
                if obs.enabled():
                    obs.inc(metric.SERVICE_REQUESTS, len(hosts))
                futures = {
                    shard: self._submit(
                        self._links[shard],
                        {"op": "request_many", "hosts": [h for _, h in pairs]},
                    )
                    for shard, pairs in by_shard.items()
                }
            answers: list[Optional[dict]] = [None] * len(hosts)
            for shard, pairs in by_shard.items():
                reply = futures[shard].result(timeout=120.0)
                if reply.get("status") != "ok":
                    _raise_remote(reply.get("error", {}))
                for (position, _), outcome in zip(pairs, reply["outcomes"]):
                    answers[position] = outcome
            return answers  # type: ignore[return-value]
        finally:
            self._release(len(by_shard))

    def stall(self, shard: int, seconds: float) -> Future:
        """Hold ``shard`` busy (diagnostic, admission-counted).

        The protocol tests use this to fill the bounded queue
        deterministically; the returned future resolves when the worker
        wakes up.  The admission slot is released on completion.
        """
        if not 0 <= shard < self._spec.shards:
            raise ServiceError(f"no shard {shard}")
        self._admit()
        try:
            future = self._submit(
                self._links[shard], {"op": "stall", "seconds": float(seconds)}
            )
        except BaseException:
            self._release()
            raise
        future.add_done_callback(lambda _f: self._release())
        return future

    # -- the churn barrier -------------------------------------------------------------

    def apply_moves(self, moves: Sequence) -> dict:
        """Run one churn tick through the full barrier (see module doc).

        ``moves`` entries are ``(user, x, y)`` or ``(user, Point)``.
        Returns a summary dict: per-shard halo-refresh counts, the number
        of users rerouted to a different owner, and the state-sync sizes.
        """
        batch: list[tuple[int, Point]] = []
        for entry in moves:
            if len(entry) == 2:
                user, point = entry
                batch.append((int(user), point))
            else:
                user, x, y = entry
                batch.append((int(user), Point(float(x), float(y))))
        with self._gated():
            with _trace.request_scope(), obs.span(metric.SPAN_SERVICE_CHURN):
                summary = self._barrier(batch)
            if obs.enabled():
                obs.inc(metric.SERVICE_CHURN_TICKS)
            return summary

    @contextmanager
    def _gated(self) -> Iterator[None]:
        """Hold the admission gate closed, with nothing in flight.

        Barriers run one at a time: the lock is held from gate-close to
        gate-open.  Without it a second barrier's drain check passes at
        once (the first's closed gate already keeps requests out), the
        two broadcast to the workers interleaved, and the first to
        finish reopens the gate under the other.
        """
        with self._barrier_lock:
            with self._admission:
                self._gate_closed = True
                drained = self._admission.wait_for(
                    lambda: self._in_flight == 0, timeout=120.0
                )
                if not drained:  # pragma: no cover - pathological stall
                    self._gate_closed = False
                    self._admission.notify_all()
                    raise ServiceError("barrier timed out draining in-flight work")
            try:
                yield
            finally:
                with self._admission:
                    self._gate_closed = False
                    self._admission.notify_all()

    def _barrier(self, batch: list[tuple[int, Point]]) -> dict:
        synced = self._sync_state_locked()
        # Halo lists must read pre-move positions; snapshot them now.
        points = self._mirror.dataset.points
        old_x = {user: points[user].x for user, _ in batch}
        wire_moves = [[user, point.x, point.y] for user, point in batch]
        move_triples = [(user, point.x, point.y) for user, point in batch]
        halo_lists = [
            halo_moves(move_triples, old_x, self._map, shard)
            for shard in range(self._spec.shards)
        ]
        self._broadcast(
            [
                {"op": "churn", "moves": wire_moves, "halo": halo_lists[shard]}
                for shard in range(self._spec.shards)
            ]
        )
        self._mirror.apply_moves(batch)
        old_table = self._table
        # self._clusters is complete here: _sync_state_locked ran first,
        # and no requests slip in while the gate is closed.
        self._table = route_users(
            self._mirror.graph,
            self._mirror.dataset.points,
            self._map,
            groups=self._clusters,
        )
        delta = ownership_delta(old_table, self._table)
        if delta:
            self._broadcast_some(
                {
                    shard: {"op": "own", "grant": gained, "revoke": lost}
                    for shard, (gained, lost) in delta.items()
                }
            )
        rerouted = sum(len(gained) for gained, _ in delta.values())
        halo_total = sum(len(lst) for lst in halo_lists)
        if obs.enabled():
            if halo_total:
                obs.inc(metric.SERVICE_HALO_REFRESHES, halo_total)
            if rerouted:
                obs.inc(metric.SERVICE_REROUTED_USERS, rerouted)
        return {
            "moved": len(batch),
            "halo_refreshes": [len(lst) for lst in halo_lists],
            "rerouted_users": rerouted,
            "synced_clusters": synced[0],
            "synced_regions": synced[1],
        }

    def _broadcast_some(self, payloads: dict[int, dict]) -> None:
        futures = {
            shard: self._submit(self._links[shard], payload)
            for shard, payload in payloads.items()
        }
        for shard, future in futures.items():
            reply = future.result(timeout=120.0)
            if reply.get("status") != "ok":
                _raise_remote(reply.get("error", {}))

    def _sync_state_locked(self) -> tuple[int, int]:
        """Steps 2-3: drain every worker's new state, cross-merge it.

        Assumes the gate is closed and in-flight is zero.  Also folds
        everything into the dispatcher's canonical cluster set / region
        map (what :meth:`registry_clusters` and :meth:`cached_regions`
        serve).  Returns (clusters, regions) counts drained this sync.
        """
        replies = self._broadcast(
            [{"op": "drain_state"} for _ in self._links]
        )
        per_worker = []
        live: set[frozenset[int]] = set()
        for reply in replies:
            clusters = [frozenset(members) for members in reply["clusters"]]
            regions = {
                frozenset(members): (Rect(*rect), int(anonymity))
                for members, rect, anonymity in reply["regions"]
            }
            per_worker.append((clusters, regions))
            self._clusters.update(clusters)
            self._regions.update(regions)
            live.update(frozenset(members) for members in reply["live_regions"])
        # Retire regions the fleet no longer caches (churn invalidation
        # runs identically on every replica); regions drained this very
        # sync are live on their maker by construction.
        self._regions = {
            members: value
            for members, value in self._regions.items()
            if members in live
        }
        payloads = []
        for shard in range(self._spec.shards):
            foreign_clusters: list[list[int]] = []
            foreign_regions: list[list] = []
            for other, (clusters, regions) in enumerate(per_worker):
                if other == shard:
                    continue
                foreign_clusters.extend(sorted(group) for group in clusters)
                foreign_regions.extend(
                    [
                        sorted(members),
                        [rect.x_min, rect.x_max, rect.y_min, rect.y_max],
                        anonymity,
                    ]
                    for members, (rect, anonymity) in regions.items()
                )
            payloads.append(
                {
                    "op": "merge_state",
                    "clusters": foreign_clusters,
                    "regions": foreign_regions,
                }
            )
        self._broadcast(payloads)
        return (
            sum(len(clusters) for clusters, _ in per_worker),
            sum(len(regions) for _, regions in per_worker),
        )

    def sync_state(self) -> tuple[int, int]:
        """Run the state-sync barrier alone (no moves); returns the
        (clusters, regions) counts drained.  The introspection methods
        call this so their answers include un-synced recent requests."""
        with self._gated():
            return self._sync_state_locked()

    # -- introspection (the differential harness's hooks) -----------------------------

    def registry_clusters(self) -> set[frozenset[int]]:
        """The canonical merged registry: the *set* of clusters formed
        anywhere in the fleet.  Registration order differs legitimately
        between replicas (each worker hears about foreign clusters at
        sync points), so the set — not the sequence — is the equality
        surface the tests compare."""
        self.sync_state()
        return set(self._clusters)

    def cached_regions(self) -> dict[frozenset[int], tuple[Rect, int]]:
        """Merged region cache: members → (rect, anonymity).  Cache ids
        are process-local and deliberately absent."""
        self.sync_state()
        return dict(self._regions)

    def shard_graph_views(self) -> list[dict]:
        """Every worker's geometric view (edges, halo check) for the
        stitch test."""
        return [
            {k: reply[k] for k in ("edges", "geometric_owned", "halo_ok", "violations")}
            for reply in self._broadcast(
                [{"op": "graph_view"} for _ in self._links]
            )
        ]

    def worker_stats(self) -> list[dict]:
        """Per-worker serving stats (busy seconds, op counts)."""
        replies = self._broadcast([{"op": "stats"} for _ in self._links])
        keys = (
            "shard", "owned", "busy_cpu", "busy_wall", "ops",
            "halo_refreshes", "clusters", "regions",
        )
        return [{k: reply[k] for k in keys} for reply in replies]

    def reset_worker_stats(self) -> None:
        """Zero every worker's busy meters (benchmark phase boundaries)."""
        self._broadcast([{"op": "reset_stats"} for _ in self._links])

    def obs_snapshot(self) -> Optional[dict]:
        """The fleet-wide observability snapshot: every worker's
        process-local snapshot merged with the dispatcher's own
        (:func:`repro.obs.merge_snapshots`)."""
        replies = self._broadcast([{"op": "snapshot"} for _ in self._links])
        snapshots = [reply["snapshot"] for reply in replies if reply["snapshot"]]
        if obs.enabled():
            snapshots.append(obs.snapshot())
        if not snapshots:
            return None
        return obs.merge_snapshots(snapshots)
