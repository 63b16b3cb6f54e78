"""Tests for the extension experiments and the CLI entry point."""

import pytest

from repro.experiments.harness import ExperimentSetup
from repro.experiments.privacy_tradeoff import run_privacy_tradeoff
from repro.experiments.robustness import run_robustness


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup.paper_default(users=3000, requests=40)


class TestRobustness:
    def test_noise_free_baseline_first(self, setup):
        result = run_robustness(setup, sigmas=(0.0, 6.0), requests=40)
        assert result.sigmas == (0.0, 6.0)
        assert len(result.workloads) == 2
        series = result.series()
        assert all(len(v) == 2 for v in series.values())

    def test_graceful_degradation(self, setup):
        result = run_robustness(setup, sigmas=(0.0, 4.0), requests=40)
        areas = result.series()["avg cloaked size"]
        # Noisy rankings should stay within a small factor of noise-free.
        assert areas[1] < 3 * areas[0]

    def test_format(self, setup):
        text = run_robustness(setup, sigmas=(0.0,), requests=20).format()
        assert "shadowing" in text.lower()


class TestPrivacyTradeoff:
    def test_monotone_tradeoff(self, setup):
        result = run_privacy_tradeoff(
            setup, floors=(0.0, 1e-3, 4e-3), requests=30
        )
        leaks = [row.worst_leak_bits for row in result.rows]
        ratios = [row.avg_request_ratio for row in result.rows]
        assert leaks == sorted(leaks, reverse=True)
        assert ratios[-1] >= ratios[0] - 1e-9

    def test_floor_guarantee(self, setup):
        result = run_privacy_tradeoff(setup, floors=(2e-3,), requests=30)
        (row,) = result.rows
        assert row.mean_interval >= 2e-3 - 1e-12

    def test_format(self, setup):
        text = run_privacy_tradeoff(setup, floors=(0.0,), requests=20).format()
        assert "Privacy floor" in text


class TestCLI:
    def test_single_experiment(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["--users", "2500", "--requests", "25", "--only", "table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "2500" in out

    def test_fig_runner_through_cli(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["--users", "2500", "--requests", "25", "--only", "fig10"])
        assert code == 0
        assert "Fig 10" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_fig12_sweep_scales_with_requests(self, source, capsys, monkeypatch):
        """The paper's S sweep needs 8,000 clusterable hosts; a small
        population runs the sweep scaled from its workload size, whether
        that comes from --requests or from REPRO_REQUESTS."""
        from repro.experiments.__main__ import main

        argv = ["--users", "2500", "--only", "fig12"]
        if source == "flag":
            argv += ["--requests", "25"]
        else:
            monkeypatch.setenv("REPRO_REQUESTS", "25")
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 12" in out
        # S = max(25 // 2, 10) x (1, 2, 4, 8).
        rows = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert {"12", "24", "48", "96"} <= rows

    def test_rejects_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])
