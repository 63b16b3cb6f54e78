"""The perf-regression sentinel: history, tolerance bands, the gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.sentinel import (
    DEFAULT_TOLERANCE,
    TRACKED,
    baseline_of,
    check,
    extract_metrics,
    history_path,
    load_history,
    main as sentinel_main,
)


def _wpg_doc(rps: float = 200.0, fast_seconds: float = 0.2) -> dict:
    return {
        "schema": "bench_wpg/v3",
        "sizes": [
            {
                "users": 1000,
                "build": {
                    "scalar_seconds": 1.0,
                    "fast_seconds": fast_seconds,
                    "speedup": 1.0 / fast_seconds,
                    "graphs_equal": True,
                },
                "requests": {
                    "count": 100,
                    "seconds": 0.5,
                    "requests_per_second": rps,
                    "cache_hit_rate": 0.4,
                },
                "clustering": {
                    "speedup": 3.0,
                    "tree": {"requests_per_second": 900.0},
                },
            }
        ],
    }


def _churn_doc(p95: float = 4.0) -> dict:
    return {
        "schema": "bench_churn/v2",
        "maintenance_speedup": 12.0,
        "incremental": {
            "moves_per_second": 5000.0,
            "request_latency_ms": {"p50": 1.0, "p95": p95, "p99": 9.0},
        },
        "tree": {"request_speedup": 2.5},
    }


def _write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestExtraction:
    def test_wpg_reads_largest_size(self, tmp_path):
        doc = _wpg_doc()
        doc["sizes"].insert(
            0, {**doc["sizes"][0], "users": 10}
        )  # a smaller leading entry must be ignored
        schema, metrics = extract_metrics(doc)
        assert schema == "bench_wpg/v3"
        assert metrics["requests.requests_per_second"] == 200.0
        assert metrics["build.fast_seconds"] == 0.2

    def test_churn_reads_document_root(self):
        schema, metrics = extract_metrics(_churn_doc())
        assert schema == "bench_churn/v2"
        assert metrics["incremental.request_latency_ms.p95"] == 4.0
        assert metrics["maintenance_speedup"] == 12.0

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            extract_metrics({"schema": "bench_nope/v1"})

    def test_missing_metric_is_skipped_not_fatal(self):
        doc = _churn_doc()
        del doc["tree"]
        _schema, metrics = extract_metrics(doc)
        assert "tree.request_speedup" not in metrics
        assert "maintenance_speedup" in metrics

    def test_committed_results_carry_tracked_schemas(self):
        # The repository-root BENCH_*.json files are what the sentinel
        # gates; each must parse under a tracked schema, every metric set.
        root = Path(__file__).resolve().parents[1]
        paths = sorted(root.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            schema, metrics = extract_metrics(json.loads(path.read_text()))
            assert set(metrics) == {t.name for t in TRACKED[schema]}, path.name


class TestGate:
    def test_first_run_seeds_and_passes(self, tmp_path, capsys):
        bench = _write(tmp_path, "w.json", _wpg_doc())
        hist = tmp_path / "hist"
        assert sentinel_main([bench, "--history", str(hist)]) == 0
        assert "seeded history" in capsys.readouterr().out
        store = history_path(hist, "bench_wpg/v3")
        assert len(load_history(store, 10)) == 1

    def test_unchanged_second_run_passes_and_records(self, tmp_path, capsys):
        bench = _write(tmp_path, "w.json", _wpg_doc())
        hist = tmp_path / "hist"
        assert sentinel_main([bench, "--history", str(hist)]) == 0
        assert sentinel_main([bench, "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "PASS (run recorded)" in out
        store = history_path(hist, "bench_wpg/v3")
        assert len(load_history(store, 10)) == 2

    def test_throughput_regression_trips_the_gate(self, tmp_path, capsys):
        good = _write(tmp_path, "w.json", _wpg_doc(rps=200.0))
        bad = _write(tmp_path, "w_bad.json", _wpg_doc(rps=90.0))
        hist = tmp_path / "hist"
        sentinel_main([good, "--history", str(hist)])
        assert sentinel_main([bad, "--history", str(hist)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "requests.requests_per_second" in out
        assert "run NOT recorded" in out
        # The regressed run must not poison the baseline.
        store = history_path(hist, "bench_wpg/v3")
        assert len(load_history(store, 10)) == 1

    def test_latency_regression_trips_the_gate(self, tmp_path, capsys):
        good = _write(tmp_path, "c.json", _churn_doc(p95=4.0))
        bad = _write(tmp_path, "c_bad.json", _churn_doc(p95=8.0))
        hist = tmp_path / "hist"
        sentinel_main([good, "--history", str(hist)])
        assert sentinel_main([bad, "--history", str(hist)]) == 1
        assert "incremental.request_latency_ms.p95" in capsys.readouterr().out

    def test_improvement_within_semantics_passes(self, tmp_path, capsys):
        good = _write(tmp_path, "c.json", _churn_doc(p95=4.0))
        better = _write(tmp_path, "c2.json", _churn_doc(p95=1.0))
        hist = tmp_path / "hist"
        sentinel_main([good, "--history", str(hist)])
        assert sentinel_main([better, "--history", str(hist)]) == 0
        assert "improved" in capsys.readouterr().out

    def test_tolerance_flag_widens_the_band(self, tmp_path):
        good = _write(tmp_path, "w.json", _wpg_doc(rps=200.0))
        slower = _write(tmp_path, "w2.json", _wpg_doc(rps=120.0))
        hist = tmp_path / "hist"
        sentinel_main([good, "--history", str(hist)])
        # -40% trips the default ±30% band but not a ±50% one.
        assert sentinel_main([slower, "--history", str(hist), "--check-only"]) == 1
        assert (
            sentinel_main(
                [slower, "--history", str(hist), "--tolerance", "0.5"]
            )
            == 0
        )

    def test_check_only_never_writes(self, tmp_path):
        bench = _write(tmp_path, "w.json", _wpg_doc())
        hist = tmp_path / "hist"
        sentinel_main([bench, "--history", str(hist)])
        sentinel_main([bench, "--history", str(hist), "--check-only"])
        store = history_path(hist, "bench_wpg/v3")
        assert len(load_history(store, 10)) == 1

    def test_record_only_skips_the_gate(self, tmp_path):
        good = _write(tmp_path, "w.json", _wpg_doc(rps=200.0))
        bad = _write(tmp_path, "w_bad.json", _wpg_doc(rps=1.0))
        hist = tmp_path / "hist"
        sentinel_main([good, "--history", str(hist)])
        assert (
            sentinel_main([bad, "--history", str(hist), "--record-only"]) == 0
        )
        store = history_path(hist, "bench_wpg/v3")
        assert len(load_history(store, 10)) == 2

    def test_bad_file_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert sentinel_main([missing, "--history", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBaseline:
    def test_median_window_resists_one_anomaly(self, tmp_path):
        bench = _write(tmp_path, "w.json", _wpg_doc(rps=200.0))
        spike = _write(tmp_path, "w_spike.json", _wpg_doc(rps=1000.0))
        hist = tmp_path / "hist"
        for source in (bench, bench, spike):
            sentinel_main([source, "--history", str(hist), "--record-only"])
        store = history_path(hist, "bench_wpg/v3")
        history = load_history(store, 5)
        assert (
            baseline_of(history, "requests.requests_per_second") == 200.0
        )
        # 200 rps is well within tolerance of the median-200 baseline even
        # though the mean was dragged to 466 by the spike.
        verdicts = check(
            "bench_wpg/v3",
            {"requests.requests_per_second": 200.0},
            history,
            DEFAULT_TOLERANCE,
        )
        by_name = {v.name: v for v in verdicts}
        assert not by_name["requests.requests_per_second"].regressed

    def test_window_limits_the_lookback(self, tmp_path):
        hist = tmp_path / "hist"
        old = _write(tmp_path, "w_old.json", _wpg_doc(rps=1000.0))
        sentinel_main([old, "--history", str(hist), "--record-only"])
        recent = _write(tmp_path, "w.json", _wpg_doc(rps=100.0))
        for _ in range(3):
            sentinel_main([recent, "--history", str(hist), "--record-only"])
        store = history_path(hist, "bench_wpg/v3")
        windowed = load_history(store, 3)
        assert baseline_of(windowed, "requests.requests_per_second") == 100.0
