"""Segment timing, speed scaling and the end-to-end metrics of one run.

Each kind of segment is scaled by the reference slice that resembles its
work (see speed.py): request segments -- clustering and bounding, dict
and set heavy -- by ``dictset``; move segments -- grid sweeps, the
re-rank's lexsort, the cluster tree's graph walks -- by ``bfs``; the
mixed set-up by their sum.
"""

from __future__ import annotations

import contextlib
import os
import resource
import time

import numpy as np

from speed import SpeedMeter

REQUEST_SLICE = "dictset"
MOVE_SLICE = "bfs"
SETUP_SLICE = "sum"


def process_age() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupClock:
    """The program's set-up, as speed-scaled segments.

    The first segment runs from the process's start to this object's
    first reference sample (interpreter start and imports); each later
    ``with clock.segment():`` block is program set-up, bracketed by
    reference samples.  Benchmark work between blocks is not counted.
    """

    def __init__(self) -> None:
        age = process_age()
        self.meter = SpeedMeter()
        self.meter.sample()
        self.parts = [(age, self.meter.run_factor(SETUP_SLICE))]

    @contextlib.contextmanager
    def segment(self):
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        before = len(self.meter.samples) - 1
        self.meter.sample()
        self.parts.append((elapsed, self.meter.factor(before, SETUP_SLICE)))

    @property
    def raw(self) -> float:
        return sum(raw for raw, _ in self.parts)

    @property
    def scaled(self) -> float:
        return sum(raw * factor for raw, factor in self.parts)


class Timed:
    """The timed phase of one run: segments bracketed by reference samples.

    Call :meth:`close` right after each segment of measured work; it takes
    the next reference sample and returns the segment's scale factor.
    """

    def __init__(self, seconds: float) -> None:
        self.meter = SpeedMeter()
        self.meter.sample()
        self.deadline = time.perf_counter() + seconds
        self.started = time.perf_counter()
        self.latencies: list[float] = []  # scaled seconds, one per cloak
        self.request_raw = 0.0
        self.request_scaled = 0.0
        self.cloaks = 0
        self.messages = 0
        self.hits = 0
        self.moves = 0
        self.move_raw = 0.0
        self.move_scaled = 0.0
        # [kind, raw seconds, count, index of the sample before]
        self.log: list[list] = []

    def more(self) -> bool:
        return time.perf_counter() < self.deadline

    def close(self) -> int:
        """Sample the reference after a segment; returns the index of the
        sample before it, which :meth:`add_requests` and
        :meth:`add_moves` take."""
        before = len(self.meter.samples) - 1
        self.meter.sample()
        return before

    def add_requests(
        self, latencies, before: int, messages: int, hits: int,
        seconds: float | None = None,
    ) -> None:
        """One request segment: per-cloak raw latencies, the sample before
        it, and the segment's request time when cloaks overlap (batch
        frames)."""
        factor = self.meter.factor(before, REQUEST_SLICE)
        raw = float(np.sum(latencies)) if seconds is None else seconds
        self.request_raw += raw
        self.request_scaled += raw * factor
        self.latencies.extend(lat * factor for lat in latencies)
        self.log.append(["r", raw, len(latencies), before])
        self.cloaks += len(latencies)
        self.messages += messages
        self.hits += hits

    def add_moves(self, seconds: float, before: int, moves: int) -> None:
        factor = self.meter.factor(before, MOVE_SLICE)
        self.move_raw += seconds
        self.move_scaled += seconds * factor
        self.log.append(["m", seconds, moves, before])
        self.moves += moves

    def metrics(self, setup: SetupClock, rss_mb: float) -> tuple[dict, dict]:
        """The end-to-end metrics, and the raw figures printed beside them."""
        run_factor = self.meter.run_factor(SETUP_SLICE)
        lat_ms = np.asarray(self.latencies) * 1e3
        values = {
            "setup_s": (setup.scaled, "s"),
            "cloaks_per_s": (self.cloaks / self.request_scaled, "cloaks/s"),
            "cloak_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "cloak_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
            "moves_per_s": (self.moves / self.move_scaled, "moves/s"),
            "messages_per_cloak": (self.messages / self.cloaks, "messages"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        }
        samples = self.meter.samples
        raw = {
            "setup_s": setup.raw,
            "setup_factor": setup.scaled / setup.raw,
            "request_s": self.request_raw,
            "move_s": self.move_raw,
            "segments": len(self.log),
            "segment_log": [
                [kind, round(raw, 6), count, before]
                for kind, raw, count, before in self.log
            ],
            "cloaks": self.cloaks,
            "cloak_samples": len(self.latencies),
            "moves": self.moves,
            "hit_share": self.hits / self.cloaks,
            "timed_phase_s": time.perf_counter() - self.started,
            "run_factor": run_factor,
            "reference_samples": len(samples),
            "reference_series_ms": [
                [round(s["dictset"] * 1e3, 3), round(s["bfs"] * 1e3, 3)]
                for s in samples
            ],
            "reference_median_s": {
                name: float(np.median([s[name] for s in samples]))
                for name in samples[0]
            },
        }
        return metrics, raw
