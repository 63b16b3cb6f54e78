"""Perf-regression sentinel over the benchmark result files.

Usage::

    python -m repro.obs.sentinel BENCH_wpg.json BENCH_churn.json
    python -m repro.obs.sentinel BENCH_wpg.json --tolerance 0.2
    python -m repro.obs.sentinel BENCH_churn.json --record-only

Each run extracts the tracked metrics from every bench file, compares
them against a baseline derived from that schema's recorded history, and
appends the run to the history when it passes.  The gate trips — exit
status 1, regressed run NOT recorded — when any tracked metric moves in
its *worse* direction by more than the tolerance band.

Tolerance-band semantics
------------------------
The baseline for a metric is the **median** of its value over the last
``--window`` history entries (median, so one anomalous run cannot drag
the baseline).  A higher-is-better metric (throughput, speedup)
regresses when ``current < baseline * (1 - tolerance)``; a
lower-is-better metric (latency, build seconds) regresses when
``current > baseline * (1 + tolerance)``.  Movement *within* the band —
including improvements — passes and is recorded, so the baseline tracks
genuine drift instead of pinning the first run forever.

History lives in ``benchmarks/results/history/<schema>.jsonl`` (one
JSON object per line: the tracked metrics plus provenance).  The first
run against an empty history seeds it and passes — the sentinel needs
one recorded run before it can gate.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Default half-width of the tolerance band (relative).  Generous by
#: design: CI machines are noisy, and a false gate is worse than a
#: slightly sluggish one.
DEFAULT_TOLERANCE = 0.30

#: History entries the baseline median is computed over.
DEFAULT_WINDOW = 5

#: Default history directory, relative to the repository root.
DEFAULT_HISTORY = Path("benchmarks/results/history")


@dataclass(frozen=True, slots=True)
class TrackedMetric:
    """One gated metric: where it lives and which way is worse."""

    name: str
    path: tuple[str, ...]
    higher_is_better: bool


#: Gated metrics per bench schema.  ``bench_wpg/v3`` and
#: ``bench_persist/v1`` metrics read from the largest population entry
#: (``sizes[-1]``); ``bench_churn/v2`` and ``bench_service/v1`` metrics
#: read from the document root.
TRACKED: dict[str, tuple[TrackedMetric, ...]] = {
    "bench_wpg/v3": (
        TrackedMetric("build.fast_seconds", ("build", "fast_seconds"), False),
        TrackedMetric("build.speedup", ("build", "speedup"), True),
        TrackedMetric(
            "requests.requests_per_second",
            ("requests", "requests_per_second"),
            True,
        ),
        TrackedMetric("clustering.speedup", ("clustering", "speedup"), True),
        TrackedMetric(
            "clustering.tree.requests_per_second",
            ("clustering", "tree", "requests_per_second"),
            True,
        ),
    ),
    "bench_churn/v2": (
        TrackedMetric("maintenance_speedup", ("maintenance_speedup",), True),
        TrackedMetric(
            "incremental.moves_per_second",
            ("incremental", "moves_per_second"),
            True,
        ),
        TrackedMetric(
            "incremental.request_latency_ms.p95",
            ("incremental", "request_latency_ms", "p95"),
            False,
        ),
        TrackedMetric("tree.request_speedup", ("tree", "request_speedup"), True),
        TrackedMetric(
            "tree.moves_per_second", ("tree", "moves_per_second"), True
        ),
    ),
    "bench_persist/v1": (
        TrackedMetric("snapshot.seconds", ("snapshot", "seconds"), False),
        TrackedMetric("restore.seconds", ("restore", "seconds"), False),
        TrackedMetric("restore_speedup", ("restore_speedup",), True),
        TrackedMetric(
            "journal.moves_per_second",
            ("journal", "moves_per_second"),
            True,
        ),
    ),
    "bench_service/v1": (
        TrackedMetric(
            "scaling.capacity_speedup_2",
            ("scaling", "capacity_speedup_2"),
            True,
        ),
        TrackedMetric(
            "scaling.capacity_speedup_4",
            ("scaling", "capacity_speedup_4"),
            True,
        ),
        TrackedMetric(
            "single.capacity_rps", ("single", "capacity_rps"), True
        ),
        TrackedMetric(
            "single.latency_p95_ms", ("single", "latency_p95_ms"), False
        ),
    ),
}


def history_path(history_dir: Path, schema: str) -> Path:
    """The JSONL history file for ``schema`` under ``history_dir``."""
    return history_dir / (schema.replace("/", "_") + ".jsonl")


def extract_metrics(data: dict) -> tuple[str, dict[str, float]]:
    """Pull the tracked metrics out of one loaded bench document."""
    schema = data.get("schema")
    if schema not in TRACKED:
        known = ", ".join(sorted(TRACKED))
        raise ValueError(
            f"unsupported bench schema {schema!r} (sentinel tracks: {known})"
        )
    root = data
    if schema in ("bench_wpg/v3", "bench_persist/v1"):
        sizes = data.get("sizes") or []
        if not sizes:
            raise ValueError(f"{schema} document has no sizes[] entries")
        root = sizes[-1]
    metrics: dict[str, float] = {}
    for tracked in TRACKED[schema]:
        node = root
        for key in tracked.path:
            if not isinstance(node, dict) or key not in node:
                node = None
                break
            node = node[key]
        if isinstance(node, (int, float)) and math.isfinite(node):
            metrics[tracked.name] = float(node)
    return schema, metrics


def load_history(path: Path, window: int) -> list[dict]:
    """The last ``window`` recorded runs (empty when no history yet)."""
    if not path.exists():
        return []
    entries: list[dict] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries[-window:]


def append_history(path: Path, schema: str, source: str, metrics: dict) -> None:
    """Record one passing run at the end of the history file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema": schema,
        "source": source,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": metrics,
    }
    with path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def baseline_of(history: list[dict], name: str) -> Optional[float]:
    """Median of ``name`` over the history window, None if never seen."""
    values = [
        entry["metrics"][name]
        for entry in history
        if isinstance(entry.get("metrics"), dict) and name in entry["metrics"]
    ]
    if not values:
        return None
    return float(statistics.median(values))


@dataclass(frozen=True, slots=True)
class Verdict:
    """One metric's comparison against its baseline."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    delta: Optional[float]  # relative change, sign follows raw value
    regressed: bool
    note: str


def check(
    schema: str,
    metrics: dict[str, float],
    history: list[dict],
    tolerance: float,
) -> list[Verdict]:
    """Compare one run's metrics against the history baseline."""
    verdicts: list[Verdict] = []
    for tracked in TRACKED[schema]:
        current = metrics.get(tracked.name)
        baseline = baseline_of(history, tracked.name)
        if current is None:
            verdicts.append(
                Verdict(tracked.name, baseline, None, None, False, "missing")
            )
            continue
        if baseline is None:
            verdicts.append(
                Verdict(tracked.name, None, current, None, False, "no baseline")
            )
            continue
        if baseline <= 0.0:
            verdicts.append(
                Verdict(
                    tracked.name, baseline, current, None, False,
                    "degenerate baseline",
                )
            )
            continue
        delta = (current - baseline) / baseline
        if tracked.higher_is_better:
            regressed = current < baseline * (1.0 - tolerance)
            improved = delta > 0
        else:
            regressed = current > baseline * (1.0 + tolerance)
            improved = delta < 0
        note = (
            "REGRESSED" if regressed
            else "improved" if improved and abs(delta) > 1e-9
            else "ok"
        )
        verdicts.append(
            Verdict(tracked.name, baseline, current, delta, regressed, note)
        )
    return verdicts


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def render_report(
    source: str,
    schema: str,
    verdicts: list[Verdict],
    tolerance: float,
    window_used: int,
) -> str:
    """The human-readable delta table for one bench file."""
    lines = [
        f"{source} ({schema}) — baseline: median of last {window_used} "
        f"run(s), tolerance ±{tolerance:.0%}"
    ]
    lines.append(
        f"  {'metric':<38} {'baseline':>12} {'current':>12} {'delta':>8}  status"
    )
    for verdict in verdicts:
        delta = (
            f"{verdict.delta:+.1%}" if verdict.delta is not None else "-"
        )
        lines.append(
            f"  {verdict.name:<38} {_fmt(verdict.baseline):>12} "
            f"{_fmt(verdict.current):>12} {delta:>8}  {verdict.note}"
        )
    return "\n".join(lines)


def run_sentinel(
    paths: list[str],
    history_dir: Path,
    tolerance: float,
    window: int,
    check_only: bool = False,
    record_only: bool = False,
) -> int:
    """Gate every bench file; 0 = all pass, 1 = regression, 2 = bad input."""
    exit_code = 0
    for source in paths:
        try:
            data = json.loads(Path(source).read_text())
            schema, metrics = extract_metrics(data)
        except (OSError, ValueError) as exc:
            print(f"error: {source}: {exc}", file=sys.stderr)
            return 2
        store = history_path(history_dir, schema)
        history = load_history(store, window)
        if record_only:
            append_history(store, schema, source, metrics)
            print(f"{source} ({schema}): recorded (no gate).")
            continue
        if not history:
            if check_only:
                print(
                    f"{source} ({schema}): no history at {store} — "
                    "nothing to gate against."
                )
                continue
            append_history(store, schema, source, metrics)
            print(
                f"{source} ({schema}): seeded history at {store} "
                f"({len(metrics)} metric(s)); gate active from the next run."
            )
            continue
        verdicts = check(schema, metrics, history, tolerance)
        print(render_report(source, schema, verdicts, tolerance, len(history)))
        regressions = [v for v in verdicts if v.regressed]
        if regressions:
            names = ", ".join(v.name for v in regressions)
            print(
                f"  => FAIL: {len(regressions)} metric(s) beyond the "
                f"tolerance band ({names}); run NOT recorded."
            )
            exit_code = 1
        else:
            if not check_only:
                append_history(store, schema, source, metrics)
            print("  => PASS" + ("" if check_only else " (run recorded)"))
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "benches",
        nargs="+",
        metavar="BENCH",
        help="bench result JSON file(s): BENCH_wpg.json / BENCH_churn.json",
    )
    parser.add_argument(
        "--history",
        default=str(DEFAULT_HISTORY),
        help=f"history directory (default: {DEFAULT_HISTORY})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative tolerance band (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help=f"history entries the baseline median uses (default: {DEFAULT_WINDOW})",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="gate without recording the run (repeatable dry run)",
    )
    parser.add_argument(
        "--record-only",
        action="store_true",
        help="record the run without gating (seed or backfill history)",
    )
    args = parser.parse_args(argv)
    if args.check_only and args.record_only:
        parser.error("--check-only and --record-only are mutually exclusive")
    if not 0.0 < args.tolerance < 1.0:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")
    return run_sentinel(
        args.benches,
        Path(args.history),
        args.tolerance,
        args.window,
        check_only=args.check_only,
        record_only=args.record_only,
    )


if __name__ == "__main__":
    sys.exit(main())
