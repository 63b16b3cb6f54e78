"""Figure 12: clustering performance under various request counts S."""

from conftest import record

from repro.experiments.fig12_requests import run_fig12


def test_fig12_requests(benchmark, setup, results_dir):
    result = benchmark.pedantic(
        run_fig12,
        kwargs={"setup": setup},
        rounds=1,
        iterations=1,
    )
    record(results_dir, "fig12_requests", result.format())

    costs = result.comm_cost_series()
    sizes = result.cloaked_size_series()
    # Centralized cost is exactly (|D|-1)/S: halves as S doubles.
    central = costs["centralized t-conn"]
    assert abs(central[0] / central[-1] - 8.0) < 0.01
    # Distributed t-conn amortises: cost strictly drops with S.
    assert costs["t-conn"][-1] < costs["t-conn"][0]
    # kNN cannot amortise: flat-ish cost (no systematic drop of > 40%).
    assert costs["knn"][-1] > 0.6 * costs["knn"][0]
    # kNN's region size deteriorates with S; t-conn's stays flat
    # (cluster-isolation at work, paper Fig. 12b).
    assert sizes["knn"][-1] > 1.3 * sizes["knn"][0]
    tconn = sizes["t-conn"]
    assert max(tconn) < 1.3 * min(tconn)
