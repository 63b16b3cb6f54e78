"""Message-level peer-to-peer cloaking, with and without packet loss.

The quickstart drives the *analytic* pipeline; this example runs the same
algorithms as actual network protocols: every adjacency list crosses the
simulated radio network as a message, every bound verification is a
round trip, and the network can drop packets or lose peers entirely.

Demonstrates:
* that the wire protocol computes exactly the analytic cluster,
* message accounting per protocol step,
* robustness under 20% packet loss (with retries), and
* clean failure when a needed peer has crashed.

Run:  python examples/p2p_cloaking.py
"""

from repro import SimulationConfig, build_wpg_fast, california_like_poi
from repro.bounding.p2p import p2p_upper_bound
from repro.bounding.presets import paper_policy
from repro.clustering.distributed import DistributedClustering
from repro.clustering.protocol import P2PClusteringProtocol
from repro.errors import ProtocolError
from repro.experiments.workloads import sample_hosts
from repro.network import FailurePlan, PeerNetwork, populate_network


def main() -> None:
    config = SimulationConfig(
        user_count=2_000,
        delta=2e-3 * (104_770 / 2_000) ** 0.5,
        max_peers=10,
        k=8,
    )
    users = california_like_poi(config.user_count, seed=7)
    graph = build_wpg_fast(users, config.delta, config.max_peers)
    # Pick a host whose WPG component can support k-anonymity at all.
    host = sample_hosts(graph, config.k, 1, seed=1)[0]

    # --- a clean network -------------------------------------------------
    net = PeerNetwork()
    populate_network(net, graph, list(users.points))
    protocol = P2PClusteringProtocol(net, graph, config.k)
    report = protocol.request(host)
    analytic = DistributedClustering(graph, config.k).request(host)
    assert report.result.members == analytic.members
    print("phase 1 over the wire")
    print(f"  cluster: {sorted(report.result.members)}")
    print(f"  adjacency fetches: {report.adjacency_fetches} "
          f"(= analytic involved users: {analytic.involved})")
    print(f"  messages on the wire: {report.messages_sent}")

    # Phase 2: bound the x-axis maximum among the cluster over the wire.
    members = sorted(report.result.members)
    policy = paper_policy("secure", len(members), config)
    bound = p2p_upper_bound(
        net, host, members, axis=0, sign=1.0,
        start=users[host].x, policy=policy,
    )
    true_max = max(users[m].x for m in members)
    print("\nphase 2 over the wire (x-axis upper bound)")
    print(f"  bound {bound.outcome.bound:.5f} covers true max {true_max:.5f}")
    print(f"  iterations: {bound.outcome.iterations}, "
          f"verification messages: {bound.outcome.messages}")
    print("  nobody transmitted a coordinate — only yes/no answers")

    # --- 20% packet loss --------------------------------------------------
    lossy = PeerNetwork(FailurePlan(drop_probability=0.2, seed=99))
    populate_network(lossy, graph, list(users.points))
    lossy_protocol = P2PClusteringProtocol(lossy, graph, config.k, retries=20)
    lossy_report = lossy_protocol.request(host)
    assert lossy_report.result.members == analytic.members
    print("\nwith 20% packet loss (retries enabled)")
    print(f"  same cluster recovered; {lossy_report.messages_dropped} "
          f"messages were lost and retransmitted")

    # --- a crashed peer ---------------------------------------------------
    victim = next(iter(analytic.members - {host}))
    dead = PeerNetwork(FailurePlan(crashed=[victim]))
    populate_network(dead, graph, list(users.points))
    dead_protocol = P2PClusteringProtocol(dead, graph, config.k)
    try:
        dead_protocol.request(host)
    except ProtocolError as exc:
        print(f"\nwith peer {victim} crashed: request aborts cleanly")
        print(f"  ProtocolError: {exc}")
        print(f"  registry untouched: "
              f"{dead_protocol.registry.assigned_count} users assigned")


if __name__ == "__main__":
    main()
