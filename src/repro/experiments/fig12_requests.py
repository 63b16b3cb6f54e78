"""Figure 12: performance under various numbers of requesting users S.

Sweep S over {1000, 2000, 4000, 8000} at defaults; workloads nest (the
S = 1000 hosts are a prefix of the S = 8000 hosts) so the sweep isolates
the effect of *more* requests rather than *different* requests.

Expected shapes (paper Figs. 12a/12b): both t-Conn costs drop with S
(cluster reuse amortises the work; centralized drops fastest, they meet
by S ~ 4000) while kNN's stays flat; kNN's cloaked size grows roughly
linearly with S (depletion pushes its clusters far away) while t-Conn's
is flat (cluster-isolation at work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.reporting import format_series
from repro.experiments.harness import (
    ALGORITHMS,
    ClusteringWorkloadResult,
    ExperimentSetup,
    run_clustering_workload,
)
from repro.experiments.workloads import sample_hosts


@dataclass(frozen=True, slots=True)
class Fig12Result:
    """Series for both panels of Figure 12."""

    s_values: tuple[int, ...]
    workloads: dict[str, tuple[ClusteringWorkloadResult, ...]]

    def comm_cost_series(self) -> dict[str, list[float]]:
        """Per-algorithm average communication costs."""
        return {
            algorithm: [w.avg_comm_cost for w in runs]
            for algorithm, runs in self.workloads.items()
        }

    def cloaked_size_series(self) -> dict[str, list[float]]:
        """Per-algorithm average cloaked-region areas."""
        return {
            algorithm: [w.avg_cloaked_area for w in runs]
            for algorithm, runs in self.workloads.items()
        }

    def format(self) -> str:
        """Render the result as the benchmark-report text."""
        panel_a = format_series(
            "S",
            list(self.s_values),
            self.comm_cost_series(),
            title="Fig 12(a): avg communication cost vs # requesting users",
        )
        panel_b = format_series(
            "S",
            list(self.s_values),
            self.cloaked_size_series(),
            title="Fig 12(b): avg cloaked region size vs # requesting users",
        )
        return f"{panel_a}\n\n{panel_b}"


def run_fig12(
    setup: Optional[ExperimentSetup] = None,
    s_values: Optional[Sequence[int]] = None,
    seed: int = 17,
) -> Fig12Result:
    """Regenerate Figure 12's series (default M and k).

    ``s_values`` defaults to a sweep scaled to the setup's workload size
    S: ``max(S // 2, 10)`` doubled three times, which is the paper's
    {1000, 2000, 4000, 8000} at S = 2000 and keeps the largest workload
    within a scaled-down population's clusterable hosts.
    """
    setup = setup if setup is not None else ExperimentSetup.paper_default()
    config = setup.base_config
    if s_values is None:
        base = max(config.request_count // 2, 10)
        s_values = tuple(base * factor for factor in (1, 2, 4, 8))
    graph = setup.graph(config)
    all_hosts = sample_hosts(graph, config.k, max(s_values), seed=seed)
    workloads: dict[str, list[ClusteringWorkloadResult]] = {
        algorithm: [] for algorithm in ALGORITHMS
    }
    for s in s_values:
        hosts = all_hosts[:s]
        for algorithm in ALGORITHMS:
            workloads[algorithm].append(
                run_clustering_workload(
                    setup,
                    algorithm,
                    config.with_overrides(request_count=s),
                    hosts,
                    graph=graph,
                )
            )
    return Fig12Result(
        s_values=tuple(s_values),
        workloads={alg: tuple(runs) for alg, runs in workloads.items()},
    )


if __name__ == "__main__":
    print(run_fig12().format())
