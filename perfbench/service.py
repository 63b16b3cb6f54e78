"""``service-tcp``: the sharded daemon behind its TCP front door.

``python -m repro.service`` (through :mod:`launcher`) builds the 50k
world with two shard workers, one per CPU.  One TCP connection first
cloaks every subscriber once in ``request_many`` frames (set-up), then
runs cycles until the run's time is up: one ``churn`` frame in which last
cycle's movers return home and ``MOVING_SUBSCRIBERS`` subscribers and
``MOVING_OTHERS`` other users step one waypoint step away (see
``common.Commuters``), then ``REQUEST_FRAMES`` ``request_many`` frames of
``FRAME_HOSTS`` hosts -- every subscriber that moved in the frame, away
or home, plus random subscribers, shuffled so every frame mixes hits and misses alike.  Each
request's latency is its frame's client-observed time: the caller waits
for the whole frame.

Single-host ``request`` frames are left out: their time is dominated by
thread wake-ups in the front door and dispatcher, not by the program.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import DELTA, K, MAX_PEERS, POPULATION_SEED, USERS, Commuters
from measure import SetupClock, Timed
from oracle import CheckFailed, OracleWPG, OutcomeChecker
from repro.datasets.california import california_like_poi

SUBSCRIBERS = 2000
SHARDS = 2
FRAME_HOSTS = 50
REQUEST_FRAMES = 100
MOVING_SUBSCRIBERS = 50
MOVING_OTHERS = 50
HERE = Path(__file__).resolve().parent
_LENGTH = struct.Struct(">I")


class Client:
    """One TCP connection speaking the length-prefixed JSON frames."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=120)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._ids = 0

    def call(self, op: str, **fields) -> dict:
        self._ids += 1
        body = json.dumps({"op": op, "id": self._ids, **fields}).encode()
        self._sock.sendall(_LENGTH.pack(len(body)) + body)
        (length,) = _LENGTH.unpack(self._recv(_LENGTH.size))
        reply = json.loads(self._recv(length))
        if reply.get("status") != "ok" or reply.get("id") != self._ids:
            raise CheckFailed(f"op {op} answered {str(reply)[:200]}")
        return reply

    def _recv(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = self._sock.recv(size)
            if not chunk:
                raise CheckFailed("the daemon closed the connection")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._sock.close()


def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        found.extend(int(child) for child in text)
    return found


def _hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _start_daemon(trace_dir: Path | None) -> tuple[subprocess.Popen, str, int]:
    command = [
        sys.executable, str(HERE / "launcher.py"),
        "--trace-dir", str(trace_dir or ""), "--",
        "--users", str(USERS), "--seed", str(POPULATION_SEED),
        "--kind", "california", "--delta", repr(DELTA),
        "--max-peers", str(MAX_PEERS), "--k", str(K),
        "--shards", str(SHARDS), "--host", "127.0.0.1", "--port", "0",
    ]
    daemon = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=HERE.parent,
    )
    for line in daemon.stdout:
        if "serving on" in line:
            host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
            return daemon, host, int(port)
    daemon.wait(timeout=30)
    raise CheckFailed(f"the daemon exited with code {daemon.returncode} before serving")


def _stop_daemon(daemon: subprocess.Popen, workers: list[int]) -> None:
    """SIGINT (the graceful path), wait, and confirm the workers are gone."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGINT)
    try:
        daemon.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()
        raise CheckFailed("the daemon ignored SIGINT for 60 s")
    deadline = time.monotonic() + 30
    while any(_alive(pid) for pid in workers):
        if time.monotonic() > deadline:
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            raise CheckFailed("shard workers outlived the daemon")
        time.sleep(0.05)
    if daemon.returncode != 0:
        raise CheckFailed(f"the daemon exited with code {daemon.returncode}")


def _check(checker, outcomes) -> tuple[int, int, int]:
    """Checks (b) and (c) on one frame's outcomes; returns (answered,
    messages, hits) and raises on a refused request."""
    messages = hits = 0
    for outcome in outcomes:
        if not outcome["ok"]:
            raise CheckFailed(f"request refused: {outcome}")
        checker.check(
            outcome["host"], outcome["members"], outcome["rect"],
            outcome["region_from_cache"],
        )
        messages += outcome["clustering_messages"] + outcome["bounding_messages"]
        hits += outcome["region_from_cache"]
    return len(outcomes), messages, hits


def _busiest(before: list[dict], after: list[dict]) -> float:
    return max(b["busy_wall"] - a["busy_wall"] for a, b in zip(before, after))


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup = SetupClock()
    positions = california_like_poi(USERS, seed=POPULATION_SEED).as_array().copy()
    pool = OracleWPG(positions, DELTA, MAX_PEERS).clusterable(K)
    rng = np.random.default_rng(seed)
    subscribers = np.sort(rng.choice(pool, size=SUBSCRIBERS, replace=False))
    checker = OutcomeChecker(positions, K)
    trace_dir = None
    if trace:
        trace_dir = HERE / "_scratch" / f"service-trace-{os.getpid()}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    daemon = None
    workers: list[int] = []
    layers: dict[str, list[float]] = {
        "request_frame": [], "request_busy": [], "churn_frame": [],
        "worker_churn": [], "halo": [], "rerouted": [], "synced": [],
    }
    try:
        with setup.segment():
            daemon, host, port = _start_daemon(trace_dir)
            workers = _children(daemon.pid)
            client = Client(host, port)
            warm = [
                client.call("request_many", hosts=chunk.tolist())["outcomes"]
                for chunk in np.array_split(
                    rng.permutation(subscribers), SUBSCRIBERS // FRAME_HOSTS
                )
            ]
            # Builds every replica's churn runtime (grid + maintainer).
            client.call("churn", moves=[])
        attempted = SUBSCRIBERS
        for outcomes in warm:
            _check(checker, outcomes)
        commuters = Commuters(positions, seed + 1)
        others = np.setdiff1d(np.arange(USERS), subscribers)
        timed = Timed(seconds)
        stats = client.call("stats")["stats"] if trace else None
        while True:
            at_home_subscribers = np.setdiff1d(subscribers, commuters.away)
            at_home_others = np.setdiff1d(others, commuters.away)
            moving = rng.choice(at_home_subscribers, MOVING_SUBSCRIBERS, replace=False)
            leaving = np.concatenate(
                (moving, rng.choice(at_home_others, MOVING_OTHERS, replace=False))
            )
            returning = commuters.away
            checker.note_moves(np.concatenate((leaving, returning)))
            batch = commuters.tick(leaving)
            moved = np.concatenate(
                (moving, np.intersect1d(returning, subscribers))
            )
            wire = [[user, point.x, point.y] for user, point in batch]
            t0 = time.perf_counter()
            summary = client.call("churn", moves=wire)["summary"]
            elapsed = time.perf_counter() - t0
            timed.add_moves(elapsed, timed.close(), len(batch))
            attempted += 1
            layers["churn_frame"].append(elapsed)
            layers["halo"].append(sum(summary["halo_refreshes"]))
            layers["rerouted"].append(summary["rerouted_users"])
            layers["synced"].append(summary["synced_regions"])
            if trace:
                after = client.call("stats")["stats"]
                layers["worker_churn"].append(_busiest(stats, after))
                stats = after
            # The moved subscribers (mostly misses) are dealt round-robin
            # over the frames, so every frame carries the same share.
            fill = rng.choice(
                subscribers, REQUEST_FRAMES * FRAME_HOSTS - len(moved)
            )
            hosts = np.concatenate((rng.permutation(moved), fill))
            chunks = [
                rng.permutation(hosts[i::REQUEST_FRAMES])
                for i in range(REQUEST_FRAMES)
            ]
            frames = []
            latencies = []
            for chunk in chunks:
                t0 = time.perf_counter()
                outcomes = client.call("request_many", hosts=chunk.tolist())["outcomes"]
                elapsed = time.perf_counter() - t0
                frames.append(outcomes)
                latencies.extend([elapsed] * len(outcomes))
                layers["request_frame"].append(elapsed)
            before = timed.close()
            attempted += len(hosts)
            if trace:
                after = client.call("stats")["stats"]
                layers["request_busy"].append(_busiest(stats, after))
                stats = after
            answered = messages = hits = 0
            for outcomes in frames:
                a, m, h = _check(checker, outcomes)
                answered, messages, hits = answered + a, messages + m, hits + h
            timed.add_requests(
                latencies, before, messages, hits,
                seconds=float(np.sum(layers["request_frame"][-REQUEST_FRAMES:])),
            )
            if not timed.more():
                break
        rss = max(_hwm_mb(pid) for pid in [daemon.pid, *workers])
        client.close()
    finally:
        if daemon is not None:
            _stop_daemon(daemon, workers)
    metrics, raw = timed.metrics(setup, rss)
    raw["checked_cloaks"] = checker.checked
    raw["cycles"] = len(layers["churn_frame"])
    frames_ms = np.asarray(layers["request_frame"]) * 1e3
    raw["frames"] = len(frames_ms)
    raw["frame_ms_quantiles"] = np.percentile(frames_ms, [50, 90, 99, 100]).tolist()
    spans = []
    if trace_dir is not None:
        from tracing import load

        spans = [load(path) for path in sorted(trace_dir.glob("*.json"))]
        names = [path.name for path in sorted(trace_dir.glob("*.json"))]
        shutil.rmtree(trace_dir, ignore_errors=True)
        raw["trace_files"] = names
    return {
        "attempted": attempted, "failed": 0,
        "metrics": metrics, "raw": raw, "timed": timed,
        "spans": spans, "service": layers,
    }
