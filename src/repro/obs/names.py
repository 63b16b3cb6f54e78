"""Canonical metric and span names, one constant per observable.

Every instrumented layer imports its names from here instead of spelling
strings inline, so two layers measuring the same quantity *cannot* drift
apart (the bounding protocol and the message-level network both report
verification round trips through :data:`BOUNDING_VERIFICATIONS`, and a
test asserts they agree on an identical run).

Naming scheme: ``<subsystem>.<quantity>``, lowercase, underscores inside
segments — validated by :data:`~repro.obs.registry.NAME_RE` at metric
creation.  Span names share the scheme; phase spans of the request path
(``cloaking.clustering``, ``cloaking.bounding``, ``server.request_cost``,
``wpg.build_fast``) are the per-phase columns of ``BENCH_wpg.json``.
"""

from __future__ import annotations

import re

# -- cloaking engine (request path) ----------------------------------------------

CLOAKING_REQUESTS = "cloaking.requests"
CLOAKING_CACHE_HITS = "cloaking.cache_hits"
CLOAKING_CACHE_MISSES = "cloaking.cache_misses"
CLOAKING_REGIONS_INVALIDATED = "cloaking.regions_invalidated"
CLOAKING_REGIONS_CACHED = "cloaking.regions_cached"  # gauge
CLOAKING_REGION_AREA = "cloaking.region_area"  # histogram

SPAN_REQUEST = "cloaking.request"
SPAN_REQUEST_MANY = "cloaking.request_many"

# Observability self-accounting: spans evicted from the recent-trace
# ring before inspection (truncated traces are detectable, not silent).
OBS_SPANS_DROPPED = "obs.spans_dropped"
SPAN_CLUSTERING = "cloaking.clustering"  # phase 1
SPAN_BOUNDING = "cloaking.bounding"  # phase 2

# -- churn runtime (dynamic populations) ------------------------------------------

#: apply_moves batches consumed by the engine.
CHURN_BATCHES = "engine.churn.batches"
#: Individual user moves applied across all batches.
CHURN_MOVES = "engine.churn.moves"
#: Users re-ranked because a mover's old or new position intersected
#: their delta-neighborhood (the incremental maintainer's dirty set).
CHURN_DIRTY_USERS = "engine.churn.dirty_users"
CHURN_EDGES_ADDED = "engine.churn.edges_added"
CHURN_EDGES_REMOVED = "engine.churn.edges_removed"
CHURN_EDGES_REWEIGHTED = "engine.churn.edges_reweighted"
#: Cached cloaked regions dropped because a member moved.
CHURN_REGIONS_INVALIDATED = "engine.churn.regions_invalidated"
#: Dirty-set size per batch (histogram): the locality of each patch.
CHURN_DIRTY_PER_BATCH = "engine.churn.dirty_per_batch"

SPAN_CHURN_APPLY = "engine.churn.apply_moves"
SPAN_CHURN_GRID = "engine.churn.grid_patch"  # grid move + dirty-set discovery
SPAN_CHURN_WPG = "engine.churn.wpg_patch"  # re-rank + edge diff

# -- durable state (repro.persist) -------------------------------------------------

#: Move batches appended to the write-ahead churn journal.
PERSIST_JOURNAL_RECORDS = "persist.journal_records"
#: Bytes fsync'd into the journal (framing included).
PERSIST_JOURNAL_BYTES = "persist.journal_bytes"
#: Snapshots written by checkpoint().
PERSIST_CHECKPOINTS = "persist.checkpoints"
#: Engines restored from a snapshot (+ journal replay).
PERSIST_RESTORES = "persist.restores"
#: Journal batches replayed during restore.
PERSIST_REPLAYED_BATCHES = "persist.replayed_batches"
#: Journals found with a torn/corrupt tail (discarded suffix).
PERSIST_TORN_TAILS = "persist.torn_tails"

SPAN_PERSIST_CHECKPOINT = "persist.checkpoint"
SPAN_PERSIST_RESTORE = "persist.restore"
SPAN_PERSIST_REPLAY = "persist.replay"

# -- clustering (phase 1 internals) ----------------------------------------------

CLUSTERING_REQUESTS = "clustering.requests"
CLUSTERING_CACHE_HITS = "clustering.cache_hits"
CLUSTERING_INVOLVED_USERS = "clustering.involved_users"
CLUSTERING_MEW_ITERATIONS = "clustering.mew_iterations"
CLUSTERING_ISOLATION_CHECKS = "clustering.isolation_checks"
CLUSTERING_ISOLATION_MERGES = "clustering.isolation_merges"

SPAN_PROPOSE = "clustering.propose"
SPAN_PARTITION_ALL = "clustering.partition_all"

# -- cluster-tree fast path (phase 1, tree service) -------------------------------

#: Requests the tree service resolved entirely by ancestor walks.
CLUSTERING_TREE_FAST = "clustering.tree_fast_requests"
#: Requests delegated to the exclusion-aware distributed path because a
#: consulted tree node contained already-assigned (marked) leaves.
CLUSTERING_TREE_FALLBACKS = "clustering.tree_fallbacks"
#: Component trees re-derived while consuming churn patches.
CLUSTERING_TREE_REBUILDS = "clustering.tree_rebuilds"

SPAN_TREE_BUILD = "clustering.tree_build"
SPAN_TREE_PATCH = "clustering.tree_patch"

# -- secure bounding (phase 2 internals) -----------------------------------------

BOUNDING_RUNS = "bounding.runs"
BOUNDING_ITERATIONS = "bounding.iterations"
#: Verification round trips, the paper's cost unit Cb.  Reported by the
#: analytic protocol AND the message-level p2p layer — same name, same
#: unit, so the two accountings are directly comparable.
BOUNDING_VERIFICATIONS = "bounding.verifications"
#: Users whose value was pinned to a finite agreement interval — the
#: protocol's information leak (Section VII), first-class rather than a
#: buried dict.
BOUNDING_EXPOSED_USERS = "bounding.exposed_users"
BOUNDING_ITERATIONS_PER_RUN = "bounding.iterations_per_run"  # histogram

# -- WPG construction ------------------------------------------------------------

WPG_BUILDS = "wpg.builds"
WPG_VERTICES = "wpg.vertices"  # gauge
WPG_EDGES = "wpg.edges"  # gauge

SPAN_BUILD_FAST = "wpg.build_fast"

# -- peer network ----------------------------------------------------------------

NETWORK_MESSAGES_SENT = "network.messages_sent"
NETWORK_MESSAGES_DROPPED = "network.messages_dropped"
NETWORK_CALLS = "network.calls"
NETWORK_LATENCY_SECONDS = "network.latency_seconds"  # histogram (simulated)

# -- fault-tolerant runtime (reliability layer) -----------------------------------

#: Call attempts re-issued after a presumed-lost message (timeout).
NETWORK_RETRIES = "network.retries"
#: Simulated seconds spent waiting in capped-exponential backoff.
NETWORK_BACKOFF_SECONDS = "network.backoff_seconds"
#: Redelivered sequence-numbered requests answered from the replay cache
#: instead of re-invoking the handler (idempotent redelivery).
NETWORK_DEDUP_REPLAYS = "network.dedup_replays"
#: Peers declared crashed by the failure detector (consecutive timeouts).
NETWORK_PEERS_SUSPECTED = "network.peers_suspected"
#: Unresponsive peers evicted from a forming cluster.
CLUSTERING_EVICTIONS = "clustering.evictions"
#: Cluster re-formations after an eviction or unrecoverable loss.
CLUSTERING_REFORMS = "clustering.reforms"
#: Secure-bounding runs restarted with the surviving members.
BOUNDING_RESTARTS = "bounding.restarts"
#: Requests that ended in a typed clean :class:`ProtocolAbort`.
PROTOCOL_ABORTS = "protocol.aborts"

_KIND_SANITIZE = re.compile(r"[^a-z0-9_]+")


def network_kind(kind: str) -> str:
    """Per-message-kind counter name, e.g. ``network.messages.verify_bound``.

    Message kinds are protocol-defined strings (``adjacency``,
    ``verify_bound:reply``); anything outside the metric-name alphabet is
    squashed to ``_`` so a kind can never produce a malformed name.
    """
    cleaned = _KIND_SANITIZE.sub("_", kind.lower()).strip("_") or "unknown"
    return f"network.messages.{cleaned}"


# -- differential verification (fuzz harness) -------------------------------------

VERIFY_WORLDS = "verify.worlds"
VERIFY_REQUESTS = "verify.requests"
#: Requests that ended in a documented clean failure (undersized
#: component, typed protocol abort) rather than a served region.
VERIFY_CLEAN_FAILURES = "verify.clean_failures"
VERIFY_INVARIANT_CHECKS = "verify.invariant_checks"
VERIFY_VIOLATIONS = "verify.violations"
#: Worlds additionally replayed message-level through the peer network.
VERIFY_P2P_WORLDS = "verify.p2p_worlds"

SPAN_VERIFY_WORLD = "verify.world"

# -- sharded service runtime (repro.service) --------------------------------------

#: Cloak requests admitted by the dispatcher (single + batched hosts).
SERVICE_REQUESTS = "service.requests"
#: Requests rejected with a typed ServiceOverload (admission queue full).
SERVICE_OVERLOADS = "service.overloads"
#: Wire frames the dispatcher sent to shard workers.
SERVICE_FRAMES_SENT = "service.frames_sent"
#: Churn barriers driven through the whole fleet.
SERVICE_CHURN_TICKS = "service.churn_ticks"
#: Moves whose old or new position crossed into some shard's delta-halo
#: band (each such move is listed in that shard's halo-refresh message).
SERVICE_HALO_REFRESHES = "service.halo_refreshes"
#: Users whose owning shard changed at a churn barrier (component
#: drifted across a slab boundary).
SERVICE_REROUTED_USERS = "service.rerouted_users"
#: Malformed/oversized frames rejected at the front end or a worker.
SERVICE_WIRE_ERRORS = "service.wire_errors"

#: Worker-side: frames served by this shard worker process.
SERVICE_WORKER_FRAMES = "service.worker.frames"
#: Worker-side: cloak requests this shard worker answered.
SERVICE_WORKER_REQUESTS = "service.worker.requests"

SPAN_SERVICE_REQUEST = "service.request"  # dispatcher-side round trip
SPAN_SERVICE_CHURN = "service.churn_tick"  # full barrier
SPAN_WORKER_OP = "service.worker.op"  # worker-side frame handling

# -- LBS server ------------------------------------------------------------------

SERVER_REQUESTS = "server.requests"
SERVER_CANDIDATE_POIS = "server.candidate_pois"
SERVER_COST_MESSAGES = "server.cost_messages"
SERVER_CANDIDATES_PER_REQUEST = "server.candidates_per_request"  # histogram

SPAN_REQUEST_COST = "server.request_cost"
