"""Concurrent cloaking requests without deadlock (paper Section VII).

"A single user can only join one cluster but can participate [in] the
clustering process of multiple host users; our protocols must prevent
deadlocks while making the best clustering decision."

This example fires a batch of simultaneous host requests at one shared
registry.  Each host proposes a cluster against the same snapshot, then
races to lock its members (ordered acquisition — provably deadlock-free);
losers recompute against the winner's commit and retry.  At the end,
nobody is in two clusters and every host either has a cluster or a clean
error.

Run:  python examples/concurrent_requests.py
"""

from repro import SimulationConfig, build_wpg_fast, california_like_poi
from repro.clustering.distributed import DistributedClustering
from repro.experiments.workloads import sample_hosts
from repro.network.concurrency import run_concurrent_requests


def main() -> None:
    config = SimulationConfig(
        user_count=3_000,
        delta=2e-3 * (104_770 / 3_000) ** 0.5,
        max_peers=10,
        k=8,
    )
    users = california_like_poi(config.user_count, seed=3)
    graph = build_wpg_fast(users, config.delta, config.max_peers)
    clustering = DistributedClustering(graph, config.k)

    # Deliberately include *neighbouring* hosts so proposals collide:
    # take a base host's whole would-be cluster as simultaneous hosts.
    probe = DistributedClustering(graph, config.k)
    base = probe.request(sample_hosts(graph, config.k, 1, seed=2)[0])
    colliders = sorted(base.members)[: config.k]
    spread = sample_hosts(graph, config.k, 12, seed=8)
    batch = colliders + [h for h in spread if h not in colliders]
    print(f"{len(batch)} hosts request cloaking simultaneously "
          f"({len(colliders)} of them are mutual neighbours)\n")

    outcomes = run_concurrent_requests(clustering, batch)

    served = restarted = failed = cached = 0
    for outcome in outcomes:
        if outcome.result is None:
            failed += 1
            print(f"  host {outcome.host:>5}: FAILED ({outcome.error})")
            continue
        served += 1
        if outcome.result.from_cache:
            cached += 1
        if outcome.restarts:
            restarted += 1
        tag = "cache" if outcome.result.from_cache else "fresh"
        waits = f", waited on {outcome.waited_on}" if outcome.waited_on else ""
        print(
            f"  host {outcome.host:>5}: cluster of "
            f"{outcome.result.size:>2} [{tag}]"
            f"{', restarted ' + str(outcome.restarts) + 'x' if outcome.restarts else ''}"
            f"{waits}"
        )

    print(f"\nserved {served}/{len(batch)} "
          f"({cached} from a neighbour's cluster, {restarted} after restart, "
          f"{failed} failed)")

    # The global invariant survived the race:
    clustering.registry.check_reciprocity()
    print("reciprocity check passed: no user belongs to two clusters")


if __name__ == "__main__":
    main()
