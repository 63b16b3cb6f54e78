"""The invariant registry: what every served world must satisfy.

Each invariant is a function over a :class:`WorldRun` (one fuzzed world
plus everything the engines produced for it) returning a list of
human-readable violation details — empty when the property holds.
:func:`check_world` runs every registered invariant and folds the
results into :class:`Violation` records carrying the world's JSON repro.

A violation is *data*, not an exception: the fuzz CLI keeps checking the
remaining invariants and worlds so one bug surfaces with its full blast
radius, then exits nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.clustering.base import ClusterRegistry
from repro.clustering.centralized import strict_partition
from repro.clustering.isolation import (
    border_condition_holds,
    isolation_counterexample,
    smallest_valid_cluster_rule,
)
from repro.cloaking.engine import CloakingEngine, CloakingResult
from repro.cloaking.p2p_engine import P2PCloakingResult, P2PCloakingSession
from repro.datasets.base import PointDataset
from repro.errors import VerificationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.graph.build import build_wpg_fast
from repro.graph.cluster_tree import ClusterTree
from repro.graph.wpg import WeightedProximityGraph
from repro.network.node import UserDevice
from repro.network.simulator import PeerNetwork
from repro.obs import names as metric
from repro.obs import trace as trace_mod
from repro.verify.oracles import (
    ORACLE_MAX_VERTICES,
    oracle_bounding_box,
    oracle_greedy_partition,
    oracle_isolation_violations,
    oracle_min_mew_clusters,
    oracle_smallest_cluster,
    oracle_strict_partition,
)
from repro.verify.transcript import (
    TranscriptRecorder,
    audit_intervals,
    DIRECTION_PAYLOAD,
)
from repro.verify.worlds import BuiltWorld

#: Worlds larger than this skip the exhaustive isolation sweep (it is
#: quadratic in users times a level scan each — exact, not fast).
ISOLATION_SWEEP_MAX_USERS = 40


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant failure, carrying everything needed to replay it."""

    invariant: str
    detail: str
    world: dict


@dataclass(slots=True)
class RequestRecord:
    """One request served during a fuzzed world, with its prior state."""

    host: int
    assigned_before: frozenset[int]
    result: Optional[CloakingResult | P2PCloakingResult] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None  # "clustering" | "abort" | "unexpected"


@dataclass(slots=True)
class P2PObservation:
    """The message-level replay of a world: traffic, tap, devices."""

    results: List[P2PCloakingResult]
    recorder: TranscriptRecorder
    devices: Dict[int, UserDevice]
    analytic: List[CloakingResult]
    #: Hosts where exactly one of the two protocols failed.
    mismatches: List[str] = field(default_factory=list)
    #: Flight recorder active during this pass (trace-ledger-agree).
    flight: Optional[trace_mod.FlightRecorder] = None
    #: The network the session ran over (its stats reconcile the flight).
    network: Optional[PeerNetwork] = None


@dataclass(slots=True)
class ChurnObservation:
    """What a churn world's movement phase produced.

    ``final_points`` are the population's positions after the full
    schedule ran; ``post_records`` the second serving pass over the same
    hosts, served from the incrementally-patched world.
    """

    final_points: tuple[Point, ...]
    moves_applied: int
    post_records: List[RequestRecord] = field(default_factory=list)


@dataclass(slots=True)
class TreeObservation:
    """The cluster-tree differential replay of a world.

    Two extra engines serve the same request sequence — one on the
    persistent cluster tree (``clustering="tree"``), one on the plain
    closure reading of Algorithm 2
    (``DistributedClustering(closure=True)``) — and for churn worlds
    both consume the identical movement schedule, the tree engine
    patching its tree incrementally.  The ``cluster-tree-equal``
    invariant compares the two record streams and the patched tree
    against a fresh build.
    """

    engine: CloakingEngine  # clustering="tree"
    reference: CloakingEngine  # DistributedClustering(closure=True)
    records: List[RequestRecord]
    reference_records: List[RequestRecord]
    post_records: Optional[List[RequestRecord]] = None
    reference_post_records: Optional[List[RequestRecord]] = None


@dataclass(slots=True)
class WorldRun:
    """Everything one fuzzed world produced, ready for invariant checks."""

    built: BuiltWorld
    #: The runtime that served ``records``: the engine, or for a faulty
    #: world the fault-tolerant session (and ``engine`` is None).
    engine: Optional[CloakingEngine]
    session: Optional[P2PCloakingSession] = None
    records: List[RequestRecord] = field(default_factory=list)
    replay_records: Optional[List[RequestRecord]] = None
    p2p: Optional[P2PObservation] = None
    churn: Optional[ChurnObservation] = None
    tree: Optional[TreeObservation] = None
    #: Flight recorder active during the FIRST serving pass only.
    flight: Optional[trace_mod.FlightRecorder] = None


Invariant = Callable[[WorldRun], List[str]]

_REGISTRY: Dict[str, Invariant] = {}


def invariant(name: str) -> Callable[[Invariant], Invariant]:
    """Register an invariant under ``name`` (decorator)."""

    def _register(func: Invariant) -> Invariant:
        if name in _REGISTRY:
            raise ValueError(f"invariant {name!r} registered twice")
        _REGISTRY[name] = func
        return func

    return _register


def registered_invariants() -> tuple[str, ...]:
    """The names of every registered invariant, in registration order."""
    return tuple(_REGISTRY)


def check_world(run: WorldRun, names: Optional[List[str]] = None) -> List[Violation]:
    """Run the registered invariants over one world's outcomes."""
    violations: List[Violation] = []
    world_dict = run.built.world.to_dict()
    recording = obs.enabled()
    for name, func in _REGISTRY.items():
        if names is not None and name not in names:
            continue
        if recording:
            obs.inc(metric.VERIFY_INVARIANT_CHECKS)
        try:
            details = func(run)
        except Exception as exc:  # an invariant crashing IS a finding
            details = [f"invariant crashed: {type(exc).__name__}: {exc}"]
        for detail in details:
            violations.append(Violation(name, detail, world_dict))
        if details and recording:
            obs.inc(metric.VERIFY_VIOLATIONS, len(details))
    return violations


def _successes(run: WorldRun) -> List[CloakingResult | P2PCloakingResult]:
    return [r.result for r in run.records if r.result is not None]


#: Either cloaking runtime: the analytic engine or the wire-level session.
Server = CloakingEngine | P2PCloakingSession


def registry_of(server: Server) -> ClusterRegistry:
    """The cluster registry of either cloaking runtime."""
    if isinstance(server, P2PCloakingSession):
        return server.registry
    return server.clustering.registry


# -- WPG construction ---------------------------------------------------------------


def graph_equality_details(
    a: WeightedProximityGraph,
    b: WeightedProximityGraph,
    label_a: str = "left",
    label_b: str = "right",
) -> List[str]:
    """Human-readable differences between two WPGs (empty when equal).

    The shared equality oracle of the differential invariants and the
    churn property suites: vertex sets and the full edge->weight maps
    must match exactly — weights are compared as floats, bit for bit.
    """
    details: List[str] = []
    if set(a.vertices()) != set(b.vertices()):
        details.append(f"{label_a}/{label_b} WPG vertex sets differ")
        return details
    a_edges = {e.key(): e.weight for e in a.edges()}
    b_edges = {e.key(): e.weight for e in b.edges()}
    if a_edges != b_edges:
        diff = set(a_edges.items()) ^ set(b_edges.items())
        details.append(
            f"{label_a}/{label_b} WPG edge maps differ on {len(diff)} "
            f"entries (e.g. {sorted(diff)[:3]})"
        )
    return details


@invariant("wpg-fast-scalar-equal")
def _wpg_differential(run: WorldRun) -> List[str]:
    """``build_wpg_fast`` must equal the per-user oracle exactly."""
    return graph_equality_details(
        run.built.graph, run.built.scalar_graph, "fast", "oracle"
    )


# -- anonymity and containment ------------------------------------------------------


@invariant("k-anonymity")
def _k_anonymity(run: WorldRun) -> List[str]:
    """Every served region provides k-anonymity; the registry reciprocates."""
    k = run.built.config.k
    faulty = run.built.world.faulty
    details: List[str] = []
    for result in _successes(run):
        if result.host not in result.cluster.members:
            details.append(f"host {result.host} missing from its own cluster")
        if result.cluster.size < k:
            details.append(
                f"host {result.host}: cluster of {result.cluster.size} < k={k}"
            )
        if result.region.anonymity < k:
            details.append(
                f"host {result.host}: region anonymity "
                f"{result.region.anonymity} < k={k}"
            )
        if not faulty and result.region.anonymity != result.cluster.size:
            details.append(
                f"host {result.host}: anonymity {result.region.anonymity} "
                f"!= cluster size {result.cluster.size}"
            )
    server = run.session if run.session is not None else run.engine
    if server is not None:
        try:
            registry_of(server).check_reciprocity()
        except Exception as exc:
            details.append(f"registry reciprocity violated: {exc}")
    return details


@invariant("member-containment")
def _containment(run: WorldRun) -> List[str]:
    """The cloak contains every member's true coordinate.

    Skipped for fault worlds: an evicted member is no longer covered by
    design (graceful degradation keeps anonymity >= k over survivors).
    """
    if run.built.world.faulty:
        return []
    dataset = run.built.dataset
    details: List[str] = []
    for result in _successes(run):
        for member in sorted(result.cluster.members):
            if not result.region.rect.contains(dataset[member]):
                details.append(
                    f"host {result.host}: member {member} at "
                    f"{dataset[member]} outside cloak {result.region.rect}"
                )
    return details


@invariant("cloak-vs-oracle-box")
def _cloak_vs_oracle(run: WorldRun) -> List[str]:
    """The cloak matches the direct-coordinate oracle box.

    With the ``optimal`` policy the cloak must *equal* the oracle box
    exactly (same floats).  Progressive policies only ever overshoot, so
    the cloak must contain it; the granularity expansion preserves that.
    """
    if run.built.world.faulty:
        return []
    dataset = run.built.dataset
    optimal = run.built.world.policy == "optimal"
    details: List[str] = []
    for result in _successes(run):
        points = [dataset[m] for m in sorted(result.cluster.members)]
        oracle = oracle_bounding_box(points)
        cloak = result.region.rect
        if optimal:
            if cloak != oracle:
                details.append(
                    f"host {result.host}: optimal cloak {cloak} != "
                    f"oracle box {oracle}"
                )
        elif not cloak.contains_rect(oracle):
            details.append(
                f"host {result.host}: cloak {cloak} does not contain "
                f"oracle box {oracle}"
            )
    return details


@invariant("region-reciprocity")
def _region_reciprocity(run: WorldRun) -> List[str]:
    """One cluster, one region: every member sees the identical rectangle."""
    seen: Dict[frozenset, Rect] = {}
    details: List[str] = []
    for result in _successes(run):
        members = result.cluster.members
        previous = seen.get(members)
        if previous is None:
            seen[members] = result.region.rect
        elif previous != result.region.rect:
            details.append(
                f"cluster {sorted(members)[:6]}... served two regions: "
                f"{previous} and {result.region.rect}"
            )
    return details


# -- clustering oracles -------------------------------------------------------------


@invariant("clustering-level-scan")
def _clustering_level_scan(run: WorldRun) -> List[str]:
    """Dendrogram rule == from-definition level scan, per requested host."""
    graph = run.built.graph
    k = run.built.config.k
    details: List[str] = []
    for host in run.built.hosts:
        rule = smallest_valid_cluster_rule(graph, host, k)
        scan = oracle_smallest_cluster(graph, host, k)
        scan_set = None if scan is None else set(scan[0])
        if rule != scan_set:
            details.append(
                f"host {host}: dendrogram rule {rule and sorted(rule)} != "
                f"level scan {scan_set and sorted(scan_set)}"
            )
    return details


@invariant("min-mew-exhaustive")
def _min_mew(run: WorldRun) -> List[str]:
    """Subset-enumeration min-MEW agrees with the level scan (small comps)."""
    graph = run.built.graph
    k = run.built.config.k
    details: List[str] = []
    for host in run.built.hosts:
        scan = oracle_smallest_cluster(graph, host, k)
        try:
            exact = oracle_min_mew_clusters(graph, host, k)
        except VerificationError:
            continue  # component above the exact regime; skip
        if (exact is None) != (scan is None):
            details.append(
                f"host {host}: exhaustive oracle "
                f"{'found no' if exact is None else 'found a'} cluster but "
                f"level scan disagrees"
            )
            continue
        if exact is None or scan is None:
            continue
        t_exact, minimizers = exact
        cluster, t_scan = scan
        if t_exact != t_scan:
            details.append(
                f"host {host}: exhaustive min-MEW t={t_exact} != "
                f"level-scan t={t_scan}"
            )
        for subset in minimizers:
            if not subset <= cluster:
                details.append(
                    f"host {host}: minimizer {sorted(subset)} escapes the "
                    f"level-scan cluster {sorted(cluster)}"
                )
                break
    return details


@invariant("isolation-theorem-4.4")
def _isolation(run: WorldRun) -> List[str]:
    """Theorem 4.4 plus checker cross-validation on small worlds.

    For every strict t-component cluster: the repo's
    :func:`isolation_counterexample` and the independent level-scan
    auditor must agree on whether the cluster is isolated, and whenever
    the border condition holds at the cluster's internal t, both must
    find it isolated.
    """
    graph = run.built.graph
    if graph.vertex_count > ISOLATION_SWEEP_MAX_USERS:
        return []
    k = run.built.config.k
    details: List[str] = []
    partition = strict_partition(graph, k)
    for cluster in partition.clusters:
        oracle = oracle_isolation_violations(graph, cluster, k)
        witness = isolation_counterexample(graph, cluster, k)
        if (witness is None) != (not oracle):
            details.append(
                f"cluster {sorted(cluster)[:6]}: repo checker says "
                f"{witness!r}, oracle says {oracle[:4]!r}"
            )
        sub = graph.subgraph(cluster)
        t = max((e.weight for e in sub.edges()), default=0.0)
        if border_condition_holds(graph, cluster, t, k) and oracle:
            details.append(
                f"Theorem 4.4 violated: border condition holds for "
                f"{sorted(cluster)[:6]} at t={t} yet vertices {oracle[:4]} "
                "change cluster on removal"
            )
    return details


@invariant("clean-failure-justified")
def _clean_failures(run: WorldRun) -> List[str]:
    """A refused request must be genuinely unservable (oracle-confirmed)."""
    if run.built.world.faulty:
        return []  # network failures are their own justification
    graph = run.built.graph
    k = run.built.config.k
    details: List[str] = []
    for record in run.records:
        if record.error_kind != "clustering":
            continue
        scan = oracle_smallest_cluster(
            graph, record.host, k, exclude=record.assigned_before
        )
        if scan is not None:
            details.append(
                f"host {record.host} was refused ({record.error}) but the "
                f"oracle finds a valid cluster {sorted(scan[0])[:6]}"
            )
    return details


@invariant("unexpected-errors")
def _unexpected_errors(run: WorldRun) -> List[str]:
    """Only typed clean failures may surface from a request."""
    return [
        f"host {record.host}: {record.error}"
        for record in run.records
        if record.error_kind == "unexpected"
    ]


# -- determinism --------------------------------------------------------------------


@invariant("deterministic-replay")
def _deterministic_replay(run: WorldRun) -> List[str]:
    """Serving the identical world twice is bit-identical (policy off)."""
    if run.replay_records is None:
        return []
    details: List[str] = []
    if len(run.replay_records) != len(run.records):
        return [
            f"replay served {len(run.replay_records)} requests, "
            f"first run {len(run.records)}"
        ]
    for first, second in zip(run.records, run.replay_records):
        if (first.error is None) != (second.error is None):
            details.append(
                f"host {first.host}: first run "
                f"{'failed' if first.error else 'succeeded'}, replay did not"
            )
            continue
        if first.result is None or second.result is None:
            if first.error != second.error:
                details.append(
                    f"host {first.host}: failure differs between runs: "
                    f"{first.error!r} vs {second.error!r}"
                )
            continue
        a, b = first.result, second.result
        if (
            a.region.rect != b.region.rect
            or a.cluster.members != b.cluster.members
            or a.clustering_messages != b.clustering_messages
            or a.bounding_messages != b.bounding_messages
            or a.region_from_cache != b.region_from_cache
        ):
            details.append(
                f"host {first.host}: replay diverged "
                f"({a.region.rect} vs {b.region.rect}, "
                f"messages {a.total_phase_messages} vs {b.total_phase_messages})"
            )
    return details


# -- message-level replay -----------------------------------------------------------


@invariant("p2p-matches-analytic")
def _p2p_matches_analytic(run: WorldRun) -> List[str]:
    """Fault-free wire protocol == analytic protocol, result for result."""
    if run.p2p is None:
        return []
    details: List[str] = list(run.p2p.mismatches)
    for wire, analytic in zip(run.p2p.results, run.p2p.analytic):
        if wire.cluster.members != analytic.cluster.members:
            details.append(
                f"host {wire.host}: p2p cluster "
                f"{sorted(wire.cluster.members)[:6]} != analytic "
                f"{sorted(analytic.cluster.members)[:6]}"
            )
            continue
        if wire.region.rect != analytic.region.rect:
            details.append(
                f"host {wire.host}: p2p region {wire.region.rect} != "
                f"analytic {analytic.region.rect}"
            )
    return details


@invariant("transcript-audit")
def _transcript_audit(run: WorldRun) -> List[str]:
    """The wire transcript alone reproduces the protocol's disclosure.

    Three checks per p2p world: (a) the auditor's recomputed agreement
    intervals are consistent and contain each member's true signed
    coordinate; (b) every device's disclosure ledger equals its wire
    transcript — no hidden question, no unrecorded answer; (c) the
    auditor never derives an interval for a user the ledger says was
    never asked.
    """
    if run.p2p is None:
        return []
    dataset = run.built.dataset
    details: List[str] = []
    try:
        intervals = audit_intervals(run.p2p.recorder.messages)
    except Exception as exc:
        return [f"transcript self-contradictory: {exc}"]
    for (user, direction), (low, high) in intervals.items():
        axis, sign = DIRECTION_PAYLOAD[direction]
        value = sign * dataset[user].coordinate(axis)
        if not (low < value <= high):
            details.append(
                f"user {user} {direction}: true signed coordinate {value} "
                f"outside audited interval ({low}, {high}]"
            )
    for user, device in run.p2p.devices.items():
        transcript_questions = run.p2p.recorder.question_set(user)
        if device.questions_answered != transcript_questions:
            missing = device.questions_answered - transcript_questions
            extra = transcript_questions - device.questions_answered
            details.append(
                f"user {user}: ledger/transcript mismatch "
                f"(ledger-only {sorted(missing)[:3]}, "
                f"transcript-only {sorted(extra)[:3]})"
            )
    return details


# -- dynamic populations ------------------------------------------------------------


@invariant("churn-incremental-equal")
def _churn_incremental_equal(run: WorldRun) -> List[str]:
    """The incrementally-patched world equals a from-scratch rebuild.

    After the churn schedule ran: (a) the engine's live WPG must be
    bit-identical to ``build_wpg_fast`` over the final positions — so
    every post-churn cloak equals what a rebuild-per-tick engine with the
    same request history would serve; (b) the engine's dataset must hold
    exactly the final positions; (c) every post-churn result satisfies
    containment, k-anonymity and the oracle-box relation at those
    positions; (d) no cached region is stale — each one still contains
    all its members.
    """
    if run.churn is None or run.engine is None:
        return []
    final = PointDataset(list(run.churn.final_points), name="post-churn")
    world = run.built.world
    details: List[str] = []

    rebuilt = build_wpg_fast(final, world.delta, world.max_peers)
    details.extend(
        graph_equality_details(
            run.engine.graph, rebuilt, "incremental", "rebuild"
        )
    )
    for user, point in enumerate(run.churn.final_points):
        if run.engine.dataset[user] != point:
            details.append(
                f"user {user}: engine dataset {run.engine.dataset[user]} "
                f"!= final position {point}"
            )
            break

    k = run.built.config.k
    optimal = world.policy == "optimal"
    for record in run.churn.post_records:
        result = record.result
        if result is None:
            continue
        members = sorted(result.cluster.members)
        if result.cluster.size < k:
            details.append(
                f"post-churn host {result.host}: cluster of "
                f"{result.cluster.size} < k={k}"
            )
        outside = [m for m in members if not result.region.rect.contains(final[m])]
        if outside:
            details.append(
                f"post-churn host {result.host}: members {outside[:4]} "
                f"outside cloak {result.region.rect}"
            )
        oracle = oracle_bounding_box([final[m] for m in members])
        if optimal and result.region.rect != oracle:
            details.append(
                f"post-churn host {result.host}: optimal cloak "
                f"{result.region.rect} != oracle box {oracle}"
            )
        elif not optimal and not result.region.rect.contains_rect(oracle):
            details.append(
                f"post-churn host {result.host}: cloak {result.region.rect} "
                f"does not contain oracle box {oracle}"
            )
    for members, region in run.engine.cached_regions().items():
        stale = [m for m in sorted(members) if not region.rect.contains(final[m])]
        if stale:
            details.append(
                f"stale cached region for cluster {sorted(members)[:6]}: "
                f"members {stale[:4]} moved out without invalidation"
            )
    return details


# -- cluster-tree fast path ---------------------------------------------------------


def _canonical_partition(groups) -> list[tuple[int, ...]]:
    """Order-free canonical form of a partition.

    Never compare group containers with ``sorted()`` directly: sets and
    frozensets order by the *subset* relation, a partial order that makes
    list comparisons meaningless.
    """
    return sorted(tuple(sorted(group)) for group in groups)


def _tree_record_diffs(
    tree_records: List[RequestRecord],
    reference_records: List[RequestRecord],
    label: str,
) -> List[str]:
    """Record-by-record differences between the two tree-replay passes."""
    if len(tree_records) != len(reference_records):
        return [
            f"{label}: tree pass produced {len(tree_records)} records, "
            f"reference {len(reference_records)}"
        ]
    details: List[str] = []
    for ours, ref in zip(tree_records, reference_records):
        if ours.error != ref.error:
            details.append(
                f"{label} host {ours.host}: tree pass "
                f"{ours.error or 'succeeded'!r} vs reference "
                f"{ref.error or 'succeeded'!r}"
            )
            continue
        if ours.result is None or ref.result is None:
            continue
        a, b = ours.result, ref.result
        if a.cluster.members != b.cluster.members:
            details.append(
                f"{label} host {ours.host}: tree cluster "
                f"{sorted(a.cluster.members)[:6]} != reference "
                f"{sorted(b.cluster.members)[:6]}"
            )
        elif a.region.rect != b.region.rect:
            details.append(
                f"{label} host {ours.host}: tree region {a.region.rect} "
                f"!= reference {b.region.rect}"
            )
        elif a.region_from_cache != b.region_from_cache:
            details.append(
                f"{label} host {ours.host}: region_from_cache "
                f"{a.region_from_cache} != reference {b.region_from_cache}"
            )
        elif a.cluster.from_cache != b.cluster.from_cache:
            details.append(
                f"{label} host {ours.host}: cluster from_cache "
                f"{a.cluster.from_cache} != reference {b.cluster.from_cache}"
            )
    return details


@invariant("cluster-tree-equal")
def _cluster_tree_equal(run: WorldRun) -> List[str]:
    """The persistent cluster tree is exactly the dendrogram/oracle math.

    Four layers, all on the same fuzzed world: (a) the tree's whole-graph
    strict and greedy partitions — the Algorithm 1 kernel every
    partition runs through — equal the literal edge-removal oracles as
    sets; (b) every requested host's tree ancestor walk equals the
    from-definition level-scan oracle, cluster and t both; (c) on small
    worlds, the tree's Property 4.1 isolation
    bits along each host's ancestor path match the exhaustive removal
    oracle; (d) the tree-replay engine pass (including post-churn, where
    the tree was patched incrementally) matches the closure-reference
    pass record for record, and the patched tree equals a fresh build
    over the churned graph node for node.
    """
    graph = run.built.graph
    k = run.built.config.k
    details: List[str] = []
    tree = ClusterTree(graph)

    for method, kernel, oracle in (
        ("strict", tree.strict_partition, oracle_strict_partition),
        ("greedy", tree.greedy_partition, oracle_greedy_partition),
    ):
        if _canonical_partition(kernel(k)) != _canonical_partition(
            oracle(graph, k)
        ):
            details.append(
                f"whole-graph {method} partition differs between the "
                "cluster tree and the literal Algorithm 1 oracle"
            )

    for host in run.built.hosts:
        scan = oracle_smallest_cluster(graph, host, k)
        walk = tree.smallest_valid_cluster(host, k)
        if (scan is None) != (walk is None):
            details.append(
                f"host {host}: level scan "
                f"{'found no' if scan is None else 'found a'} cluster, "
                f"tree walk disagrees"
            )
        elif scan is not None and walk is not None:
            if set(scan[0]) != set(walk[0]) or scan[1] != walk[1]:
                details.append(
                    f"host {host}: tree walk ({sorted(walk[0])[:6]}, "
                    f"t={walk[1]}) != level scan ({sorted(scan[0])[:6]}, "
                    f"t={scan[1]})"
                )

    if graph.vertex_count <= ISOLATION_SWEEP_MAX_USERS:
        checked: set = set()
        for host in run.built.hosts:
            node = tree.smallest_valid_node(host, k)
            while node is not None:
                if node not in checked:
                    checked.add(node)
                    leaves = set(tree.leaves(node))
                    bit = tree.is_isolated(node, k)
                    violators = oracle_isolation_violations(graph, leaves, k)
                    if bit != (not violators):
                        details.append(
                            f"node {sorted(leaves)[:6]}: isolation bit "
                            f"{bit} but oracle violators {violators[:4]}"
                        )
                node = tree.parent(node)

    if run.tree is not None:
        details.extend(
            _tree_record_diffs(
                run.tree.records, run.tree.reference_records, "pass 1"
            )
        )
        if run.tree.post_records is not None:
            details.extend(
                _tree_record_diffs(
                    run.tree.post_records,
                    run.tree.reference_post_records or [],
                    "post-churn",
                )
            )
            live = run.tree.engine.clustering.tree  # type: ignore[attr-defined]
            fresh = ClusterTree(run.tree.engine.graph)
            if sorted(live.node_signatures()) != sorted(
                fresh.node_signatures()
            ):
                details.append(
                    "incrementally-patched cluster tree differs from a "
                    "fresh build over the churned graph"
                )
    return details


# -- flight-recorder reconciliation -------------------------------------------------


def _message_event_tally(events) -> tuple[int, int, int, int, Dict[tuple, int]]:
    """Fold message events into (sent, dropped, crashed, deduped, delivered).

    ``delivered`` maps ``(kind, recipient)`` to the number of request
    legs that reached the recipient's handler — the quantity each
    device's disclosure ledger counts.
    """
    sent = dropped = crashed = deduped = 0
    delivered: Dict[tuple, int] = {}
    for event in events:
        if event.kind != trace_mod.EVT_MESSAGE:
            continue
        sent += 1
        fields = event.fields
        if fields.get("dropped"):
            dropped += 1
            if fields.get("crashed"):
                crashed += 1
        elif fields.get("deduped"):
            deduped += 1
        elif fields.get("leg") == "request":
            key = (fields.get("kind"), fields.get("recipient"))
            delivered[key] = delivered.get(key, 0) + 1
    return sent, dropped, crashed, deduped, delivered


def _reconcile_traffic(
    events,
    network: PeerNetwork,
    label: str,
) -> List[str]:
    """Flight-recorder message events == the network's own counters."""
    details: List[str] = []
    stats = network.stats
    sent, dropped, crashed, deduped, _ = _message_event_tally(events)
    for name, from_events, from_stats in (
        ("sent", sent, stats.sent),
        ("dropped", dropped, stats.dropped),
        ("crash_dropped", crashed, stats.crash_dropped),
        ("deduped", deduped, stats.deduped),
    ):
        if from_events != from_stats:
            details.append(
                f"{label}: flight recorder saw {from_events} {name} "
                f"message(s), network counted {from_stats}"
            )
    if stats.unattributed:
        details.append(
            f"{label}: {stats.unattributed} message(s) crossed the wire "
            "without a trace id"
        )
    return details


def _request_event_details(events, expected: int, label: str) -> List[str]:
    """Start/end pairing and per-request trace-id uniqueness."""
    details: List[str] = []
    starts = [e for e in events if e.kind == trace_mod.EVT_REQUEST_START]
    ends = [e for e in events if e.kind == trace_mod.EVT_REQUEST_END]
    if len(starts) != expected:
        details.append(
            f"{label}: {len(starts)} request_start event(s) for "
            f"{expected} request(s) served"
        )
    if len(ends) != len(starts):
        details.append(
            f"{label}: {len(starts)} request_start vs {len(ends)} "
            "request_end event(s)"
        )
    distinct = {e.trace_id for e in starts}
    if len(distinct) != len(starts):
        details.append(
            f"{label}: {len(starts)} request_start event(s) share only "
            f"{len(distinct)} trace id(s)"
        )
    return details


@invariant("trace-ledger-agree")
def _trace_ledger_agree(run: WorldRun) -> List[str]:
    """The flight-recorder stream reconciles with ledgers and counters.

    Phantom events and unattributed traffic are both findings: (a) no
    event may overflow the ring or miss a trace id; (b) request start/end
    events pair up, one distinct trace per request; (c) message events
    equal the network's sent/dropped/crash/dedup counters exactly, and no
    message crosses the wire without a trace id; (d) each device's
    disclosure ledger (handler invocations) equals the delivered
    non-deduped request legs the flight recorder attributes to it;
    (e) aborts, clustering evictions, retries and churn patches in the
    stream match what the runtime actually did.
    """
    details: List[str] = []

    flight = run.flight
    if flight is not None:
        events = list(flight.events())
        if flight.dropped:
            details.append(
                f"first pass: flight recorder overflowed, {flight.dropped} "
                "event(s) lost"
            )
        orphans = sum(1 for e in events if e.trace_id is None)
        if orphans:
            details.append(
                f"first pass: {orphans} event(s) recorded without a trace id"
            )
        expected = len(run.records)
        if run.churn is not None:
            expected += len(run.churn.post_records)
        details.extend(_request_event_details(events, expected, "first pass"))
        aborts = sum(1 for e in events if e.kind == trace_mod.EVT_ABORT)
        abort_records = sum(
            1
            for record in run.records
            + (run.churn.post_records if run.churn is not None else [])
            if record.error_kind == "abort"
        )
        if aborts != abort_records:
            details.append(
                f"first pass: {aborts} abort event(s) vs "
                f"{abort_records} aborted request(s)"
            )
        if run.built.world.churn_moves:
            from repro.verify.worlds import churn_schedule

            batches = len(list(churn_schedule(run.built.world)))
            patches = sum(
                1 for e in events if e.kind == trace_mod.EVT_CHURN_PATCH
            )
            if patches != batches:
                details.append(
                    f"first pass: {patches} churn_patch event(s) for "
                    f"{batches} applied batch(es)"
                )
        session = run.session
        if session is not None:
            details.extend(
                _reconcile_traffic(events, session.network, "first pass")
            )
            transport = session.transport
            if transport is not None:
                retries = sum(
                    1 for e in events if e.kind == trace_mod.EVT_RETRY
                )
                if retries != transport.retries:
                    details.append(
                        f"first pass: {retries} retry event(s) vs "
                        f"{transport.retries} transport retransmissions"
                    )
            evictions = sum(
                1
                for e in events
                if e.kind == trace_mod.EVT_EVICTION
                and e.fields.get("phase") == "clustering"
            )
            if evictions != len(session.evicted):
                details.append(
                    f"first pass: {evictions} clustering eviction event(s) "
                    f"vs {len(session.evicted)} evicted peer(s)"
                )

    p2p = run.p2p
    if p2p is not None and p2p.flight is not None:
        events = list(p2p.flight.events())
        if p2p.flight.dropped:
            details.append(
                f"p2p pass: flight recorder overflowed, "
                f"{p2p.flight.dropped} event(s) lost"
            )
        orphans = sum(1 for e in events if e.trace_id is None)
        if orphans:
            details.append(
                f"p2p pass: {orphans} event(s) recorded without a trace id"
            )
        # Each host is attempted twice: once over the wire, once by the
        # analytic comparison engine — two traces per host.
        details.extend(
            _request_event_details(
                events, 2 * len(run.built.hosts), "p2p pass"
            )
        )
        if p2p.network is not None:
            details.extend(
                _reconcile_traffic(events, p2p.network, "p2p pass")
            )
        _, _, _, _, delivered = _message_event_tally(events)
        for user, device in p2p.devices.items():
            for kind, ledger in (
                ("verify_bound", device.verify_invocations),
                ("adjacency", device.adjacency_invocations),
            ):
                attributed = delivered.get((kind, user), 0)
                if attributed != ledger:
                    details.append(
                        f"p2p pass: user {user} ledger counts {ledger} "
                        f"{kind} invocation(s), flight recorder attributes "
                        f"{attributed}"
                    )
    return details


# -- durable state (repro.persist) --------------------------------------------------


def _serve_outcomes(engine: CloakingEngine, hosts) -> list:
    """Canonical per-host outcomes, via the batch fast path when clean.

    ``request_many`` is attempted first (it is the production batch
    surface and exercises the registry/region fast path a restored
    engine must reproduce); worlds containing unservable hosts fall back
    to per-host requests so typed clean failures become comparable
    outcomes instead of aborting the whole batch.
    """
    try:
        results = engine.request_many(list(hosts))
    except Exception:
        outcomes = []
        for host in hosts:
            try:
                r = engine.request(host)
                outcomes.append(
                    (
                        "ok",
                        tuple(sorted(r.cluster.members)),
                        r.region.rect,
                        r.region.anonymity,
                        r.region_from_cache,
                    )
                )
            except Exception as exc:
                outcomes.append(("err", type(exc).__name__, str(exc)))
        return outcomes
    return [
        (
            "ok",
            tuple(sorted(r.cluster.members)),
            r.region.rect,
            r.region.anonymity,
            r.region_from_cache,
        )
        for r in results
    ]


def _engine_state_diffs(
    restored: CloakingEngine, reference: CloakingEngine, label: str
) -> List[str]:
    """Bit-level state comparison: graph, regions, registry, tree."""
    details = graph_equality_details(
        restored.graph, reference.graph, f"{label} restored", "reference"
    )
    if restored.cached_regions() != reference.cached_regions():
        details.append(f"{label}: cached region maps differ")
    reg_a = restored.clustering.registry
    reg_b = reference.clustering.registry
    clusters_a = [sorted(reg_a.cluster_by_id(c)) for c in range(len(reg_a))]
    clusters_b = [sorted(reg_b.cluster_by_id(c)) for c in range(len(reg_b))]
    if clusters_a != clusters_b:
        details.append(
            f"{label}: registries differ ({len(clusters_a)} vs "
            f"{len(clusters_b)} clusters)"
        )
    tree_a = getattr(restored.clustering, "tree", None)
    tree_b = getattr(reference.clustering, "tree", None)
    if tree_a is not None and tree_b is not None:
        if sorted(tree_a.node_signatures()) != sorted(tree_b.node_signatures()):
            details.append(f"{label}: cluster-tree node signatures differ")
    if restored.dataset.points != reference.dataset.points:
        details.append(f"{label}: dataset positions differ")
    return details


@invariant("snapshot-replay-equal")
def _snapshot_replay_equal(run: WorldRun) -> List[str]:
    """Crash anywhere, restore, and the engine is bit-identical.

    A self-contained differential replay per world: a persisted engine
    and an uninterrupted reference serve the same requests and consume
    the same churn schedule.  The persisted engine checkpoints at
    seeded-random batch indices and "crashes" at a seeded-random point
    (sometimes with garbage bytes torn onto the journal tail); the
    engine restored from its store must match the reference bit for bit
    — graph, cached regions, registry, tree signatures, request_many
    answers — both at the crash point and after the two engines consume
    the remainder of the schedule side by side.
    """
    world = run.built.world
    if world.faulty or world.p2p:
        return []  # reliability sessions are not replayable by design
    import random as _random
    import tempfile

    from repro.datasets.base import MutablePointDataset
    from repro.persist import PersistentStore
    from repro.verify.worlds import churn_schedule

    built = run.built
    rng = _random.Random(world.seed + 50423)
    use_tree = world.radio == "ideal" and rng.random() < 0.4

    def make() -> CloakingEngine:
        dataset = MutablePointDataset.from_dataset(built.dataset)
        graph = built.graph.copy()
        if use_tree:
            return CloakingEngine(
                dataset, graph, built.config,
                clustering="tree", policy=world.policy,
            )
        return CloakingEngine(
            dataset, graph, built.config,
            mode=world.mode, policy=world.policy,
        )

    details: List[str] = []
    with tempfile.TemporaryDirectory(prefix="persist-fuzz-") as tmp:
        store = PersistentStore(tmp)
        live = make()
        reference = make()
        live.enable_persistence(store)

        first_live = _serve_outcomes(live, built.hosts)
        first_ref = _serve_outcomes(reference, built.hosts)
        if first_live != first_ref:
            # Not a persistence property; bail out with the real finding.
            return ["twin engines diverged before any crash was simulated"]

        batches = list(churn_schedule(world)) if world.churn_moves else []
        crash_idx = rng.randint(0, len(batches))
        checkpoints: set = set()
        if crash_idx:
            checkpoints = {rng.randrange(crash_idx)}
            if rng.random() < 0.5:
                checkpoints.add(rng.randrange(crash_idx))
        elif rng.random() < 0.5:
            live.checkpoint()  # static world: checkpoint right after serving
        else:
            live.checkpoint()
            live.checkpoint()  # rotation: restore must pick the newest

        for index in range(crash_idx):
            live.apply_moves(batches[index])
            reference.apply_moves(batches[index])
            if index in checkpoints:
                live.checkpoint()

        # Crash: abandon the live engine; sometimes tear garbage onto the
        # journal tail (a record cut mid-write must be discarded cleanly).
        live.disable_persistence()
        if rng.random() < 0.3:
            with open(store.journal.path, "ab") as handle:
                handle.write(b"\x99\x00\x00\x00torn")

        restored = CloakingEngine.restore(PersistentStore(tmp))
        details.extend(_engine_state_diffs(restored, reference, "at crash"))
        after_live = _serve_outcomes(restored, built.hosts)
        after_ref = _serve_outcomes(reference, built.hosts)
        if after_live != after_ref:
            details.append(
                "restored engine answers request_many differently at the "
                "crash point"
            )

        for index in range(crash_idx, len(batches)):
            restored.apply_moves(batches[index])
            reference.apply_moves(batches[index])
        if crash_idx < len(batches):
            details.extend(
                _engine_state_diffs(restored, reference, "post-crash churn")
            )
            final_live = _serve_outcomes(restored, built.hosts)
            final_ref = _serve_outcomes(reference, built.hosts)
            if final_live != final_ref:
                details.append(
                    "restored engine diverged from the reference after "
                    "consuming the post-crash churn schedule"
                )
        restored.disable_persistence()
    return details


# -- the sharded service runtime ----------------------------------------------------


@invariant("service-shard-equal")
def _service_shard_equal(run: WorldRun) -> List[str]:
    """The shard count is unobservable: service == single engine.

    A self-contained differential run per world: a multi-process
    :class:`~repro.service.CloakingService` at a seeded shard count and
    a single in-process engine built from the same spec serve the same
    hosts, consume the same churn schedule, and serve again.  Every
    outcome dict must match bit for bit, the merged registry must equal
    the reference's as a SET of clusters (registration order is the one
    thing that legitimately differs between replicas), the merged region
    cache must match rect for rect, and the per-shard geometric graph
    views must stitch back into the reference graph exactly.

    Faulty/p2p worlds are skipped: reliability sessions hold per-device
    protocol state that is not part of the serving surface the service
    shards (the same exclusion ``snapshot-replay-equal`` makes).
    """
    world = run.built.world
    if world.faulty or world.p2p:
        return []
    import random as _random

    from repro.service import CloakingService, build_engine, spec_from_world
    from repro.service.worker import outcomes_of
    from repro.verify.worlds import churn_schedule

    built = run.built
    rng = _random.Random(world.seed + 77003)
    shards = rng.randint(2, 3)
    spec = spec_from_world(world, shards=shards)
    reference = build_engine(spec)
    hosts = list(built.hosts)
    details: List[str] = []
    service = CloakingService(spec)
    try:
        if [service.request(h) for h in hosts] != outcomes_of(reference, hosts):
            details.append(
                f"{shards}-shard service diverged from the single engine "
                "on the first serving pass"
            )
        batches = list(churn_schedule(world)) if world.churn_moves else []
        for index, batch in enumerate(batches):
            service.apply_moves(batch)
            reference.apply_moves(batch)
            if service.request_many(hosts) != outcomes_of(reference, hosts):
                details.append(
                    f"{shards}-shard service diverged after churn batch "
                    f"{index + 1}/{len(batches)}"
                )
                break
        if not details:
            if service.registry_clusters() != set(
                reference.clustering.registry.clusters()
            ):
                details.append(
                    f"{shards}-shard merged registry differs from the "
                    "reference as a set of clusters"
                )
            if service.cached_regions() != {
                members: (region.rect, region.anonymity)
                for members, region in reference.cached_regions().items()
            }:
                details.append(
                    f"{shards}-shard merged region cache differs from the "
                    "reference"
                )
            views = service.shard_graph_views()
            for view in views:
                if not view["halo_ok"]:
                    details.append(
                        f"delta-halo invariant violated: {view['violations'][:3]}"
                    )
            stitched = WeightedProximityGraph.from_edges(
                (
                    (u, v, w)
                    for view in views
                    for u, v, w in view["edges"]
                ),
                vertices=range(world.n),
            )
            details.extend(
                graph_equality_details(
                    stitched, reference.graph, "stitched-shards", "reference"
                )
            )
    finally:
        service.close()
    return details
