"""Output checks, computed apart from the program.

Every check reads the benchmark's own copy of the positions and its own
WPG build (``scipy.spatial.cKDTree``), never the program's structures,
and raises :class:`CheckFailed` on the first disagreement.  They run
outside the timed segments.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import deque
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree


class CheckFailed(AssertionError):
    """A program output disagreed with the independent computation."""


class OracleWPG:
    """The WPG built from positions alone.

    Every pair within δ (squared distance ``<= δ²``, as the grid filters)
    is a candidate; each user ranks its candidates closest first, ties
    broken by id, and keeps at most M; an edge exists when either end
    picked the other, weighted by the smaller of the two ranks.
    """

    def __init__(self, positions: np.ndarray, delta: float, max_peers: int):
        n = len(positions)
        self.n = n
        pairs = cKDTree(positions).query_pairs(
            r=delta * (1.0 + 1e-9), output_type="ndarray"
        )
        a, b = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
        dx = positions[a, 0] - positions[b, 0]
        dy = positions[a, 1] - positions[b, 1]
        sq = dx * dx + dy * dy
        keep = sq <= delta * delta
        a, b, dist = a[keep], b[keep], np.sqrt(sq[keep])
        owners = np.concatenate((a, b))
        peers = np.concatenate((b, a))
        dist = np.concatenate((dist, dist))
        order = np.lexsort((peers, dist, owners))
        owners, peers = owners[order], peers[order]
        starts = np.searchsorted(owners, owners, side="left")
        ranks = np.arange(len(owners)) - starts + 1
        picked = ranks <= max_peers
        owners, peers, ranks = owners[picked], peers[picked], ranks[picked]
        lo = np.minimum(owners, peers)
        hi = np.maximum(owners, peers)
        keys = lo * n + hi
        order = np.lexsort((ranks, keys))
        keys, ranks = keys[order], ranks[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self.keys = keys[first]
        self.weights = ranks[first].astype(float)
        us, vs = self.keys // n, self.keys % n
        both = np.concatenate((us, vs))
        other = np.concatenate((vs, us))
        order = np.argsort(both, kind="stable")
        self._indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(both, minlength=n)))
        )
        self._nbrs = other[order]

    def neighbors(self, user: int) -> np.ndarray:
        return self._nbrs[self._indptr[user] : self._indptr[user + 1]]

    def clusterable(self, k: int) -> np.ndarray:
        """Users whose connected component has at least k members."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        matrix = csr_matrix(
            (np.ones(len(self._nbrs)), self._nbrs, self._indptr),
            shape=(self.n, self.n),
        )
        _, labels = connected_components(matrix, directed=False)
        sizes = np.bincount(labels)
        return np.flatnonzero(sizes[labels] >= k)

    def connected(self, members: frozenset[int]) -> bool:
        start = next(iter(members))
        seen = {start}
        queue = deque([start])
        while queue:
            for other in self.neighbors(queue.popleft()).tolist():
                if other in members and other not in seen:
                    seen.add(other)
                    queue.append(other)
        return len(seen) == len(members)


def check_graph(graph, oracle: OracleWPG, when: str) -> None:
    """(a) The program's WPG equals the oracle, edge for edge and weight
    for weight."""
    n = oracle.n
    if graph.vertex_count != n:
        raise CheckFailed(f"{when}: WPG has {graph.vertex_count} vertices, expected {n}")
    keys = []
    weights = []
    for edge in graph.edges():
        u, v = edge.key()
        keys.append(u * n + v)
        weights.append(edge.weight)
    keys = np.asarray(keys, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    if len(keys) != len(oracle.keys) or not np.array_equal(keys, oracle.keys):
        missing = np.setdiff1d(oracle.keys, keys)
        extra = np.setdiff1d(keys, oracle.keys)
        raise CheckFailed(
            f"{when}: WPG edge sets differ ({len(missing)} missing, "
            f"{len(extra)} extra; first missing "
            f"{[divmod(int(x), n) for x in missing[:3]]})"
        )
    if not np.array_equal(weights, oracle.weights):
        bad = np.flatnonzero(weights != oracle.weights)
        raise CheckFailed(
            f"{when}: {len(bad)} WPG edge weights differ, first "
            f"{divmod(int(keys[bad[0]]), n)}: {weights[bad[0]]} vs "
            f"{oracle.weights[bad[0]]}"
        )


class OutcomeChecker:
    """(b) and (c): every answered request against the benchmark's state.

    ``positions`` is the benchmark's copy; ``moved_at[user]`` is the
    event number of the user's last move, kept by :meth:`note_moves`.
    """

    def __init__(self, positions: np.ndarray, k: int, oracle=None):
        self.positions = positions
        self.k = k
        self.oracle = oracle
        self.owner: dict[int, frozenset[int]] = {}
        self.last_miss: dict[frozenset[int], tuple[tuple, int]] = {}
        self.moved_at = np.full(len(positions), -1, dtype=np.int64)
        self.event = 0
        self.checked = 0

    def reset(self) -> None:
        """A fresh engine: no clusters, no cached regions."""
        self.owner.clear()
        self.last_miss.clear()

    def note_moves(self, users) -> None:
        self.event += 1
        self.moved_at[np.asarray(list(users), dtype=np.int64)] = self.event

    def check(self, host: int, members, rect, from_cache: bool) -> None:
        members = frozenset(members)
        if host not in members:
            raise CheckFailed(f"host {host} is not in its cluster")
        if len(members) < self.k:
            raise CheckFailed(
                f"host {host}: cluster of {len(members)} < k={self.k}"
            )
        x_min, x_max, y_min, y_max = rect
        ids = np.fromiter(members, dtype=np.int64, count=len(members))
        xy = self.positions[ids]
        inside = (
            (xy[:, 0] >= x_min) & (xy[:, 0] <= x_max)
            & (xy[:, 1] >= y_min) & (xy[:, 1] <= y_max)
        )
        if not inside.all():
            outside = ids[~inside].tolist()
            raise CheckFailed(
                f"host {host}: members {outside[:3]} lie outside the region"
            )
        for member in ids.tolist():
            known = self.owner.get(member)
            if known is None:
                self.owner[member] = members
            elif known != members:
                raise CheckFailed(
                    f"user {member} is in two clusters "
                    f"({sorted(known)[:3]}... and {sorted(members)[:3]}...)"
                )
        if from_cache:
            recorded = self.last_miss.get(members)
            if recorded is None:
                raise CheckFailed(f"host {host}: cache hit before any miss")
            region, at = recorded
            if tuple(rect) != region:
                raise CheckFailed(
                    f"host {host}: cached region {tuple(rect)} differs from "
                    f"the region of its last miss {region}"
                )
            if int(self.moved_at[ids].max()) > at:
                raise CheckFailed(
                    f"host {host}: served a cached region although a member "
                    "moved after it was bounded"
                )
        else:
            self.last_miss[members] = (tuple(rect), self.event)
            if self.oracle is not None and not self.oracle.connected(members):
                raise CheckFailed(
                    f"host {host}: cluster is not connected in the WPG"
                )
        self.checked += 1

    def check_results(self, results) -> None:
        """:meth:`check` every engine ``CloakingResult`` in ``results``."""
        for r in results:
            rect = r.region.rect
            self.check(
                r.host, r.cluster.members,
                (rect.x_min, rect.x_max, rect.y_min, rect.y_max),
                r.region_from_cache,
            )


JOURNAL_HEADER = b"repro churn journal v1\n"
_FRAME = struct.Struct("<II")


def read_journal(path: Path) -> list[tuple[int, list[tuple[int, float, float]]]]:
    """The journal's records: ``u32 length | u32 crc32 | JSON payload``
    frames after a one-line header, coordinates as ``float.hex``."""
    data = Path(path).read_bytes()
    if not data.startswith(JOURNAL_HEADER):
        raise CheckFailed(f"{path}: missing journal header")
    records = []
    offset = len(JOURNAL_HEADER)
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise CheckFailed(f"{path}: torn frame header at byte {offset}")
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        payload = data[start : start + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise CheckFailed(f"{path}: bad frame at byte {offset}")
        record = json.loads(payload)
        moves = [
            (int(user), float.fromhex(x), float.fromhex(y))
            for user, x, y in record["moves"]
        ]
        records.append((int(record["seq"]), moves))
        offset = start + length
    return records


def check_journal(path: Path, batches: list) -> None:
    """(d) The journal holds exactly the schedule's moves, in order."""
    records = read_journal(path)
    if len(records) != len(batches):
        raise CheckFailed(
            f"journal holds {len(records)} batches, schedule applied {len(batches)}"
        )
    previous = 0
    for (seq, moves), batch in zip(records, batches):
        if seq <= previous:
            raise CheckFailed(f"journal seq {seq} after {previous}")
        previous = seq
        expected = [(user, point.x, point.y) for user, point in batch]
        if moves != expected:
            raise CheckFailed(f"journal record {seq} differs from the schedule")
