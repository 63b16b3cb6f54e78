"""Inputs shared by every workload, made by the benchmark's own code.

The population is the repo's stand-in for the paper's 104,770-POI set
(``california_like_poi``) at 50,000 users, with δ scaled to keep the
paper's WPG density.  It is built from a fixed seed so every run pays
the same set-up; ``--seed`` drives everything the workloads choose:
subscribers, movers, waypoints and request order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import SimulationConfig
from repro.datasets.california import california_like_poi
from repro.errors import ReproError
from repro.geometry.point import Point
from repro.graph.build import build_wpg_fast

USERS = 50_000
POPULATION_SEED = 3
PAPER_USERS = 104_770
PAPER_DELTA = 2e-3
DELTA = PAPER_DELTA * (PAPER_USERS / USERS) ** 0.5
MAX_PEERS = 10
K = 10


def build_world():
    """The population, its WPG and the Table I config (program calls)."""
    dataset = california_like_poi(USERS, seed=POPULATION_SEED)
    graph = build_wpg_fast(dataset, DELTA, MAX_PEERS)
    config = SimulationConfig(
        user_count=USERS, delta=DELTA, max_peers=MAX_PEERS, k=K
    )
    return dataset, graph, config


def serve(engine, hosts) -> tuple[list[float], list, int]:
    """Cloak ``hosts`` one at a time; returns the answered requests'
    latencies and results, and the number refused."""
    latencies = []
    results = []
    refused = 0
    for host in hosts:
        t0 = time.perf_counter()
        try:
            result = engine.request(host)
        except ReproError:
            refused += 1
            continue
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return latencies, results, refused


class Commuters:
    """Stationary churn: users step away from home and come back.

    Each :meth:`tick` sends last tick's movers home and moves the given
    users one random-waypoint step away from home, in one batch.  At any
    time only one tick's movers are away, so the world -- and with it the
    work per move and per request -- is the same at every tick, however
    many ticks a run gets through.  ``positions`` is updated in place.
    """

    def __init__(self, positions: np.ndarray, seed: int) -> None:
        self.positions = positions
        self.home = positions.copy()
        self.away = np.zeros(0, dtype=np.int64)
        self._walkers = Walkers(positions.copy(), seed)

    def tick(self, leaving: np.ndarray) -> list[tuple[int, Point]]:
        leaving = np.asarray(leaving, dtype=np.int64)
        returning = self.away
        self._walkers.positions[leaving] = self.home[leaving]
        moves = self._walkers.step(leaving)
        self.positions[returning] = self.home[returning]
        self.positions[leaving] = self._walkers.positions[leaving]
        moves += [
            (int(user), Point(float(x), float(y)))
            for user, (x, y) in zip(
                returning.tolist(), self.home[returning].tolist()
            )
        ]
        moves.sort(key=lambda move: move[0])
        self.away = leaving
        return moves


class Walkers:
    """Random-waypoint walkers over the benchmark's copy of the positions.

    Each user walks in a straight line towards a uniform waypoint at a
    speed in [δ, 10δ] per step, and draws a new waypoint and speed on
    arrival.  ``positions`` is updated in place: it is the copy every
    output check reads.
    """

    def __init__(self, positions: np.ndarray, seed: int) -> None:
        self.positions = positions
        self._rng = np.random.default_rng(seed)
        count = len(positions)
        self._targets = self._rng.random((count, 2))
        self._speeds = self._rng.uniform(DELTA, 10 * DELTA, count)

    def step(self, ids: np.ndarray) -> list[tuple[int, Point]]:
        """Advance the distinct users ``ids`` one step; returns the moves."""
        ids = np.asarray(ids, dtype=np.int64)
        here = self.positions[ids]
        offset = self._targets[ids] - here
        distance = np.sqrt((offset**2).sum(axis=1))
        travel = self._speeds[ids]
        arriving = travel >= distance
        safe = np.where(arriving, 1.0, distance)
        there = np.where(
            arriving[:, None],
            self._targets[ids],
            here + offset / safe[:, None] * travel[:, None],
        )
        self.positions[ids] = there
        landed = ids[arriving]
        if len(landed):
            self._targets[landed] = self._rng.random((len(landed), 2))
            self._speeds[landed] = self._rng.uniform(
                DELTA, 10 * DELTA, len(landed)
            )
        return [
            (int(user), Point(float(x), float(y)))
            for user, (x, y) in zip(ids.tolist(), there.tolist())
        ]
