"""Quickstart: cloak one user's location without exposing anyone's.

Builds a small synthetic population, constructs the weighted proximity
graph from (simulated) radio signal strengths, and serves a cloaking
request through the full two-phase pipeline of the paper:

1. proximity minimum k-clustering (distributed t-connectivity), then
2. secure progressive bounding (nobody reveals a coordinate; everyone
   only answers yes/no to hypothesised bounds).

Run:  python examples/quickstart.py
"""

from repro import (
    CloakingEngine,
    POIDatabase,
    SimulationConfig,
    california_like_poi,
    build_wpg_fast,
)
from repro.server.costs import total_request_cost


def main() -> None:
    # A 5,000-user town; delta is scaled so densities match Table I.
    config = SimulationConfig(
        user_count=5_000,
        delta=2e-3 * (104_770 / 5_000) ** 0.5,
        max_peers=10,
        k=10,
    )
    users = california_like_poi(config.user_count, seed=42)
    print(f"population: {len(users)} users")

    graph = build_wpg_fast(users, config.delta, config.max_peers)
    print(
        f"proximity graph: {graph.edge_count} edges, "
        f"avg degree {2 * graph.edge_count / graph.vertex_count:.1f}"
    )

    engine = CloakingEngine(users, graph, config, mode="distributed",
                            policy="secure")
    host = 42
    result = engine.request(host)

    region = result.region
    print(f"\nhost user {host} at {users[host].as_tuple()}")
    print(f"cloaked region: [{region.rect.x_min:.4f}, {region.rect.x_max:.4f}]"
          f" x [{region.rect.y_min:.4f}, {region.rect.y_max:.4f}]")
    print(f"anonymity: {region.anonymity} users share this region "
          f"(k = {config.k})")
    print(f"area: {region.area:.2e} (unit square)")
    print(f"phase-1 messages (clustering): {result.clustering_messages}")
    print(f"phase-2 messages (bounding):   {result.bounding_messages}")

    # Sanity: the region really covers every member, and every member
    # reuses the identical region (reciprocity).
    assert all(region.rect.contains(users[m]) for m in result.cluster.members)
    member = next(iter(result.cluster.members - {host}))
    assert engine.request(member).region.rect == region.rect
    print(f"\nmember {member} reuses the same region at zero cost — "
          "an eavesdropper cannot tell who asked")

    # What the service request would cost the host.
    db = POIDatabase(users)
    cost = total_request_cost(
        db, region.rect, result.clustering_messages,
        result.bounding_messages, config,
    )
    print(f"end-to-end request cost: {cost:.0f} message units "
          f"({db.count_in_region(region.rect)} POIs shipped)")


if __name__ == "__main__":
    main()
