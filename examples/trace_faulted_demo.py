"""End-to-end request tracing under injected faults.

Serves a batch of cloaking requests over a lossy network with one
crashed peer, with the flight recorder installed: every message, retry,
crash eviction and protocol abort is stamped with the trace id of the
request that caused it.  The script asserts complete attribution (no
unattributed wire traffic, no orphan events), exports the ``trace/v1``
JSONL file, and prints the trace ids so the CLI can render them::

    python examples/trace_faulted_demo.py trace.jsonl
    python -m repro.obs.trace trace.jsonl
    python -m repro.obs.trace trace.jsonl --slowest

Run:  python examples/trace_faulted_demo.py [out.jsonl]
"""

import sys

from repro import obs
from repro.cloaking.p2p_engine import P2PCloakingSession
from repro.config import SimulationConfig
from repro.datasets import uniform_points
from repro.graph.build import build_wpg_fast
from repro.network.failures import FailurePlan
from repro.network.reliability import ProtocolAbort, ReliabilityPolicy
from repro.network.simulator import PeerNetwork
from repro.obs import trace

CRASHED_PEER = 7


def main(out_path: str = "trace.jsonl") -> None:
    obs.enable()
    recorder = trace.install_recorder()

    config = SimulationConfig(
        user_count=80, delta=0.12, max_peers=8, k=4, request_count=12
    )
    dataset = uniform_points(config.user_count, seed=3)
    graph = build_wpg_fast(dataset, config.delta, config.max_peers)
    network = PeerNetwork(
        failure_plan=FailurePlan(
            drop_probability=0.08, crashed=frozenset({CRASHED_PEER}), seed=11
        )
    )
    session = P2PCloakingSession.bootstrapped(
        dataset,
        graph,
        config,
        network=network,
        reliability=ReliabilityPolicy(
            max_attempts=4, crash_after=2, max_reforms=3
        ),
    )

    served: list[int] = []
    aborted: list[tuple[int, str]] = []
    for host in range(config.request_count):
        if host == CRASHED_PEER:
            continue
        try:
            session.request(host)
            served.append(host)
        except ProtocolAbort as exc:
            aborted.append((host, exc.reason))

    stats = session.network.stats
    events = recorder.events()
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1

    # Complete attribution, or the demo (and the CI step running it) fails.
    assert stats.unattributed == 0, "a message crossed the wire untraced"
    assert all(e.trace_id is not None for e in events), "orphan event"
    assert kinds["message"] == stats.sent
    assert kinds.get("retry", 0) == session.transport.retries
    assert session.transport.retries > 0, "fault plan injected no retries"
    assert aborted, "fault plan caused no abort; demo expects one"
    assert kinds.get("abort", 0) == len(aborted)

    path = trace.export_jsonl(out_path)
    trace.uninstall_recorder()
    obs.disable()

    print(f"served {len(served)} request(s), {len(aborted)} abort(s)")
    print(
        f"{stats.sent} messages ({stats.dropped} dropped, "
        f"{session.transport.retries} retries), all attributed"
    )
    for host, reason in aborted:
        abort_event = next(
            e for e in events if e.kind == "abort" and e.fields.get("host") == host
        )
        print(f"aborted request: host {host} -> {reason} (trace #{abort_event.trace_id})")
    print(f"trace file: {path}")
    print(f"inspect with: python -m repro.obs.trace {path} --slowest")


if __name__ == "__main__":
    main(*sys.argv[1:2])
