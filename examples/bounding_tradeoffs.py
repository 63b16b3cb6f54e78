"""The bounding-policy trade-off and the privacy-loss extension.

Progressive bounding trades verification traffic against bound tightness
(Section V): fine steps cost many round trips but ship few extra POIs;
coarse steps converge fast but over-fetch.  The paper's secure policy
picks the increment minimising the expected total (Equation 5).

This example also demonstrates the paper's *future work* item: every
agreement pins a user's coordinate into the (last disagreed, first
agreed] interval, and a privacy floor keeps that interval from getting
too narrow.

Run:  python examples/bounding_tradeoffs.py
"""

import statistics

from repro import SimulationConfig, build_wpg_fast, california_like_poi
from repro.bounding.boxing import optimal_bounding_box, secure_bounding_box
from repro.bounding.presets import paper_policy
from repro.bounding.privacy import PrivacyFloorPolicy, privacy_loss_metric
from repro.clustering.distributed import DistributedClustering
from repro.experiments.workloads import sample_hosts
from repro.server.poidb import POIDatabase


def main() -> None:
    config = SimulationConfig(
        user_count=8_000,
        delta=2e-3 * (104_770 / 8_000) ** 0.5,
        max_peers=10,
        k=10,
    )
    users = california_like_poi(config.user_count, seed=12)
    graph = build_wpg_fast(users, config.delta, config.max_peers)
    db = POIDatabase(users)

    # Form 40 clusters with the paper's phase 1.
    clustering = DistributedClustering(graph, config.k)
    clusters = []
    for host in sample_hosts(graph, config.k, 80, seed=4):
        result = clustering.request(host)
        if not result.from_cache:
            clusters.append(sorted(result.members))
    print(f"{len(clusters)} clusters formed; comparing bounding policies\n")

    header = f"{'policy':<14} {'msgs':>6} {'POIs':>6} {'POIs/OPT':>9}"
    print(header)
    print("-" * len(header))
    opt_pois = []
    for members in clusters:
        points = [users[i] for i in members]
        opt_pois.append(db.count_in_region(optimal_bounding_box(points)))
    for name in ("linear", "exponential", "secure"):
        messages, pois, ratios = [], [], []
        for members, opt in zip(clusters, opt_pois):
            points = [users[i] for i in members]
            size = len(points)
            outcome = secure_bounding_box(
                points, 0, lambda: paper_policy(name, size, config)
            )
            messages.append(outcome.messages)
            count = db.count_in_region(outcome.region)
            pois.append(count)
            ratios.append(count / opt)
        print(
            f"{name:<14} {statistics.mean(messages):>6.1f} "
            f"{statistics.mean(pois):>6.1f} {statistics.mean(ratios):>9.2f}"
        )
    print(
        f"{'optimal (OPT)':<14} {statistics.mean(len(c) for c in clusters):>6.1f} "
        f"{statistics.mean(opt_pois):>6.1f} {1.0:>9.2f}"
    )

    # --- privacy loss ------------------------------------------------------
    members = clusters[0]
    points = [users[i] for i in members]
    size = len(points)

    plain = secure_bounding_box(
        points, 0, lambda: paper_policy("secure", size, config)
    )
    floored = secure_bounding_box(
        points,
        0,
        lambda: PrivacyFloorPolicy(
            paper_policy("secure", size, config), floor=2e-3
        ),
    )
    plain_loss = privacy_loss_metric(list(plain.directions.values()))
    floored_loss = privacy_loss_metric(list(floored.directions.values()))
    print("\nprivacy loss (per-user agreement-interval widths)")
    print(f"  secure:        min width {plain_loss.min_width:.2e} "
          f"-> worst leak {plain_loss.worst_bits:.1f} bits")
    print(f"  secure+floor:  min width {floored_loss.min_width:.2e} "
          f"-> worst leak {floored_loss.worst_bits:.1f} bits")
    print(f"  price paid: region grows "
          f"{plain.region.area:.2e} -> {floored.region.area:.2e}")


if __name__ == "__main__":
    main()
