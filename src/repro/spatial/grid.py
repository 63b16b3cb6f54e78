"""Uniform grid index over the unit square.

The grid is the workhorse index of this library: proximity-graph
construction needs "all users within distance delta" for every user, and
the LBS server needs "all POIs inside a rectangle".  A uniform grid with
cell size close to delta answers both in expected O(result size).
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class GridIndex:
    """A uniform grid over ``bounds`` bucketing point ids by cell.

    Parameters
    ----------
    points:
        The indexed points; their position in this sequence is their id.
    cell_size:
        Edge length of a grid cell.  For radius queries of radius ``r``,
        ``cell_size`` around ``r`` gives the best constant factors.
    bounds:
        The indexed area; defaults to the unit square.  Points outside the
        bounds are clamped into the boundary cells, so indexing never fails.

    The index is mutable: :meth:`insert`, :meth:`remove` and :meth:`move`
    update a live population in place, patching the cell buckets and the
    cached batch arrays incrementally instead of rebuilding — the churn
    runtime's foundation.  Ids are stable: a removed id leaves a *hole*
    (never reused, never returned by queries) so every other user keeps
    its id.
    """

    def __init__(
        self,
        points: Sequence[Point],
        cell_size: float,
        bounds: Rect | None = None,
    ) -> None:
        if cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        self._points: list[Point | None] = list(points)
        self._live = len(self._points)
        self._bounds = bounds if bounds is not None else Rect.unit_square()
        self._cell_size = cell_size
        self._nx = max(1, math.ceil(self._bounds.width / cell_size))
        self._ny = max(1, math.ceil(self._bounds.height / cell_size))
        # Both representations are built lazily on first use: the scalar
        # queries walk a dict of cell -> point ids, the batch queries flat
        # CSR arrays.  Either workload pays only for what it touches.
        self._cells_dict: dict[tuple[int, int], list[int]] | None = None
        # Batch-query state: per-slot coordinates and row-major cell ids
        # (capacity-doubled on insert, -1 marks a hole), plus the grouped
        # bucket arrays.  Mutations patch the buffers in O(1) and only
        # drop ``_buckets`` (regrouped lazily, pure numpy) when a point
        # actually changes cell.
        self._coords_buf: np.ndarray | None = None
        self._cell_ids_buf: np.ndarray | None = None
        self._buckets: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None

    def __len__(self) -> int:
        """Number of id slots (holes included); see :attr:`live_count`."""
        return len(self._points)

    @property
    def live_count(self) -> int:
        """Number of live (non-removed) points."""
        return self._live

    @property
    def cell_size(self) -> float:
        """Edge length of one grid cell."""
        return self._cell_size

    @property
    def shape(self) -> tuple[int, int]:
        """Number of cells along x and y."""
        return (self._nx, self._ny)

    def point(self, idx: int) -> Point:
        """The point stored under id ``idx``; removed ids raise."""
        point = self._points[idx]
        if point is None:
            raise ConfigurationError(f"point {idx} was removed from the index")
        return point

    def live_ids(self) -> list[int]:
        """All live point ids, ascending."""
        return [i for i, p in enumerate(self._points) if p is not None]

    def _cell_of(self, point: Point) -> tuple[int, int]:
        cx = int((point.x - self._bounds.x_min) / self._cell_size)
        cy = int((point.y - self._bounds.y_min) / self._cell_size)
        return (min(max(cx, 0), self._nx - 1), min(max(cy, 0), self._ny - 1))

    @property
    def _cells(self) -> dict[tuple[int, int], list[int]]:
        if self._cells_dict is None:
            cells: dict[tuple[int, int], list[int]] = {}
            for idx, point in enumerate(self._points):
                if point is not None:
                    cells.setdefault(self._cell_of(point), []).append(idx)
            self._cells_dict = cells
        return self._cells_dict

    # -- mutation -------------------------------------------------------------

    def insert(self, point: Point) -> int:
        """Index a new point; returns its freshly assigned id."""
        idx = len(self._points)
        self._points.append(point)
        self._live += 1
        cell = self._cell_of(point)
        if self._cells_dict is not None:
            self._cells_dict.setdefault(cell, []).append(idx)
        if self._coords_buf is not None:
            self._ensure_capacity(idx + 1)
            self._coords_buf[idx, 0] = point.x
            self._coords_buf[idx, 1] = point.y
            self._cell_ids_buf[idx] = cell[0] * self._ny + cell[1]
            self._buckets = None
        return idx

    def remove(self, idx: int) -> None:
        """Remove point ``idx``; its id becomes a hole and is never reused."""
        point = self._points[idx]
        if point is None:
            raise ConfigurationError(f"point {idx} was already removed")
        self._points[idx] = None
        self._live -= 1
        if self._cells_dict is not None:
            cell = self._cell_of(point)
            bucket = self._cells_dict[cell]
            bucket.remove(idx)
            if not bucket:
                del self._cells_dict[cell]
        if self._coords_buf is not None:
            self._coords_buf[idx] = np.nan
            self._cell_ids_buf[idx] = -1
            self._buckets = None

    def move(self, idx: int, point: Point) -> None:
        """Update point ``idx`` to a new position, keeping its id.

        Moves within the same grid cell patch the cached batch arrays in
        place; only a cell change schedules a (lazy, vectorized) bucket
        regroup.
        """
        old = self._points[idx]
        if old is None:
            raise ConfigurationError(f"cannot move removed point {idx}")
        self._points[idx] = point
        old_cell = self._cell_of(old)
        new_cell = self._cell_of(point)
        if self._cells_dict is not None and new_cell != old_cell:
            bucket = self._cells_dict[old_cell]
            bucket.remove(idx)
            if not bucket:
                del self._cells_dict[old_cell]
            insort(self._cells_dict.setdefault(new_cell, []), idx)
        if self._coords_buf is None:
            return
        self._coords_buf[idx, 0] = point.x
        self._coords_buf[idx, 1] = point.y
        new_cell_id = new_cell[0] * self._ny + new_cell[1]
        if int(self._cell_ids_buf[idx]) != new_cell_id:
            self._cell_ids_buf[idx] = new_cell_id
            self._buckets = None
        elif self._buckets is not None:
            # Same cell: the bucket layout is untouched, only the point's
            # gathered coordinates move.  Its position inside the (id-
            # ascending) bucket segment is found by bisection.
            _counts, indptr, bucket_points, bucket_coords = self._buckets
            lo, hi = int(indptr[new_cell_id]), int(indptr[new_cell_id + 1])
            pos = lo + int(np.searchsorted(bucket_points[lo:hi], idx))
            bucket_coords[0, pos] = point.x
            bucket_coords[1, pos] = point.y

    def move_many(
        self, ids: Sequence[int], points: Sequence[Point]
    ) -> None:
        """Apply a batch of :meth:`move` updates (same order, same effect)."""
        if len(ids) != len(points):
            raise ConfigurationError(
                f"move_many got {len(ids)} ids but {len(points)} points"
            )
        for idx, point in zip(ids, points):
            self.move(idx, point)

    def _ensure_capacity(self, slots: int) -> None:
        """Grow the coordinate/cell-id buffers to hold ``slots`` slots."""
        capacity = len(self._cell_ids_buf)
        if capacity >= slots:
            return
        new_capacity = max(slots, 2 * capacity)
        coords = np.full((new_capacity, 2), np.nan, dtype=float)
        coords[:capacity] = self._coords_buf
        cell_ids = np.full(new_capacity, -1, dtype=np.int64)
        cell_ids[:capacity] = self._cell_ids_buf
        self._coords_buf = coords
        self._cell_ids_buf = cell_ids

    # -- persistence ----------------------------------------------------------

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The index as plain numpy arrays (snapshot form).

        Returns ``coords`` (``(n, 2)`` float, NaN at hole slots),
        ``live`` (``(n,)`` bool mask — the authoritative hole marker),
        and the CSR cell buckets ``bucket_indptr``/``bucket_points``
        exactly as :meth:`cell_bucket_arrays` reports them, so a restore
        can skip the regroup.  Everything is copied: mutating the live
        index never corrupts a snapshot already taken.
        """
        n = len(self._points)
        coords = np.full((n, 2), np.nan, dtype=float)
        live = np.zeros(n, dtype=bool)
        for idx, point in enumerate(self._points):
            if point is not None:
                coords[idx, 0] = point.x
                coords[idx, 1] = point.y
                live[idx] = True
        bucket_indptr, bucket_points = self.cell_bucket_arrays()
        return {
            "coords": coords,
            "live": live,
            "bucket_indptr": bucket_indptr.copy(),
            "bucket_points": bucket_points.copy(),
        }

    @classmethod
    def from_export(
        cls,
        arrays: dict[str, np.ndarray],
        cell_size: float,
        bounds: Rect | None = None,
    ) -> "GridIndex":
        """Rebuild an index from :meth:`export_arrays` output.

        The restored index answers every query identically to the
        exported one — id holes included — and adopts the exported cell
        buckets directly, so no regroup runs on first batch query.
        ``cell_size``/``bounds`` must match the exported index's (they
        are not part of the array payload; callers persist them in their
        own metadata).
        """
        coords = np.asarray(arrays["coords"], dtype=float)
        live = np.asarray(arrays["live"], dtype=bool)
        n = len(coords)
        if coords.ndim != 2 or coords.shape[1] != 2 or live.shape != (n,):
            raise ConfigurationError(
                f"malformed grid export: coords {coords.shape}, "
                f"live {live.shape}"
            )
        index = cls([], cell_size, bounds=bounds)
        index._points = [
            Point(float(coords[i, 0]), float(coords[i, 1])) if live[i] else None
            for i in range(n)
        ]
        index._live = int(live.sum())
        bucket_indptr = np.asarray(arrays["bucket_indptr"], dtype=np.int64)
        bucket_points = np.asarray(arrays["bucket_points"], dtype=np.int64)
        if (
            len(bucket_indptr) != index._nx * index._ny + 1
            or len(bucket_points) != index._live
        ):
            raise ConfigurationError(
                "grid export disagrees with cell_size/bounds: "
                f"{len(bucket_indptr) - 1} buckets for a "
                f"{index._nx}x{index._ny} grid, {len(bucket_points)} "
                f"bucketed points for {index._live} live"
            )
        buf = coords.copy()
        cell_ids = np.full(n, -1, dtype=np.int64)
        if index._live:
            live_ids = np.flatnonzero(live)
            cx, cy = index._cell_coords(buf[live_ids, 0], buf[live_ids, 1])
            cell_ids[live_ids] = cx * index._ny + cy
        index._coords_buf = buf
        index._cell_ids_buf = cell_ids
        bucket_counts = np.diff(bucket_indptr)
        bucket_coords = np.ascontiguousarray(buf[bucket_points].T)
        index._buckets = (
            bucket_counts,
            bucket_indptr,
            bucket_points,
            bucket_coords,
        )
        return index

    def _cells_overlapping(self, rect: Rect) -> Iterable[tuple[int, int]]:
        lo_x, lo_y = self._cell_of(Point(rect.x_min, rect.y_min))
        hi_x, hi_y = self._cell_of(Point(rect.x_max, rect.y_max))
        for cx in range(lo_x, hi_x + 1):
            for cy in range(lo_y, hi_y + 1):
                yield (cx, cy)

    # -- queries -------------------------------------------------------------

    def query_rect(self, rect: Rect) -> list[int]:
        """Ids of all points inside the closed rectangle ``rect``."""
        result: list[int] = []
        for cell in self._cells_overlapping(rect):
            for idx in self._cells.get(cell, ()):
                if rect.contains(self._points[idx]):
                    result.append(idx)
        return result

    def count_rect(self, rect: Rect) -> int:
        """Number of points inside ``rect`` (no id materialisation)."""
        count = 0
        for cell in self._cells_overlapping(rect):
            for idx in self._cells.get(cell, ()):
                if rect.contains(self._points[idx]):
                    count += 1
        return count

    def query_radius(self, center: Point, radius: float) -> list[int]:
        """Ids of all points within ``radius`` of ``center`` (inclusive).

        The center point itself is included when it is indexed.
        """
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        box = Rect(
            center.x - radius, center.x + radius, center.y - radius, center.y + radius
        )
        r2 = radius * radius
        result: list[int] = []
        for cell in self._cells_overlapping(box):
            for idx in self._cells.get(cell, ()):
                if center.squared_distance_to(self._points[idx]) <= r2:
                    result.append(idx)
        return result

    def nearest_neighbors(
        self, center: Point, count: int, max_radius: float | None = None
    ) -> list[int]:
        """Ids of the ``count`` nearest points to ``center``, nearest first.

        Points at distance greater than ``max_radius`` are never returned.
        If the index holds fewer eligible points than ``count``, all of them
        are returned.  Expanding ring search: candidates are gathered from
        cells in growing square rings until the answer is provably complete.
        """
        if count <= 0:
            return []
        limit = max_radius if max_radius is not None else math.inf
        ccx, ccy = self._cell_of(center)
        best: list[tuple[float, int]] = []
        max_ring = max(self._nx, self._ny)
        for ring in range(0, max_ring + 1):
            # Points in ring `ring` are at least (ring - 1) * cell_size away
            # from the center; once that lower bound exceeds the radius
            # limit, no further ring can contribute, regardless of whether
            # outer rings still hold (out-of-range) points.
            if (ring - 1) * self._cell_size > limit:
                break
            # Everything indexed is already gathered: the remaining rings
            # are provably empty (sparse populations would otherwise force
            # a full-grid walk when `count` exceeds the population).
            if len(best) == self._live:
                break
            # Gather the cells forming this ring around the center cell.
            for cx, cy in self._ring_cells(ccx, ccy, ring):
                for idx in self._cells.get((cx, cy), ()):
                    d2 = center.squared_distance_to(self._points[idx])
                    if d2 <= limit * limit:
                        best.append((d2, idx))
            # Points in rings > `ring` are at least (ring) * cell_size away
            # from the center, so once we hold `count` answers closer than
            # that lower bound, the result is complete.
            if len(best) >= count:
                best.sort()
                kth_dist = math.sqrt(best[count - 1][0])
                if kth_dist <= ring * self._cell_size:
                    return [idx for _, idx in best[:count]]
        best.sort()
        return [idx for _, idx in best[:count]]

    # -- batch queries --------------------------------------------------------

    def _bulk_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat array views of the index, built once on first batch query.

        Returns ``(coords, bucket_counts, bucket_indptr, bucket_points,
        bucket_coords)``: point coordinates as an ``(n, 2)`` array (hole
        slots hold NaN), the per-cell point count and CSR layout over
        row-major cell ids ``cx * ny + cy`` with each cell's points in
        ascending id order — the same order the scalar queries scan them
        in — and the coordinates permuted into that bucket order
        (``(2, live)``, per-axis contiguous) so candidate gathers stream
        sequentially instead of hopping the heap.

        Mutations keep the coordinate/cell-id buffers patched in place;
        only a cell-membership change forces the (pure numpy) regroup
        below, so sustained same-cell movement never regroups at all.
        """
        n = len(self._points)
        if self._coords_buf is None:
            if self._live == n:
                coords = np.array(
                    [(p.x, p.y) for p in self._points], dtype=float
                ).reshape(n, 2)
                cx, cy = self._cell_coords(coords[:, 0], coords[:, 1])
                cell_ids = cx * self._ny + cy
            else:
                coords = np.full((n, 2), np.nan, dtype=float)
                cell_ids = np.full(n, -1, dtype=np.int64)
                live = self.live_ids()
                coords[live] = [
                    (self._points[i].x, self._points[i].y) for i in live
                ]
                cx, cy = self._cell_coords(coords[live, 0], coords[live, 1])
                cell_ids[live] = cx * self._ny + cy
            self._coords_buf = coords
            self._cell_ids_buf = cell_ids
            self._buckets = None
        coords = self._coords_buf[:n]
        if self._buckets is None:
            cell_ids = self._cell_ids_buf[:n]
            if self._live == n:
                order = np.argsort(cell_ids, kind="stable").astype(np.int64)
                counted = cell_ids
            else:
                live = np.flatnonzero(cell_ids >= 0)
                counted = cell_ids[live]
                order = live[np.argsort(counted, kind="stable")].astype(
                    np.int64
                )
            bucket_counts = np.bincount(counted, minlength=self._nx * self._ny)
            bucket_indptr = np.concatenate(
                ([0], np.cumsum(bucket_counts))
            ).astype(np.int64)
            bucket_coords = np.ascontiguousarray(coords[order].T)
            self._buckets = (bucket_counts, bucket_indptr, order, bucket_coords)
        bucket_counts, bucket_indptr, bucket_points, bucket_coords = self._buckets
        return (coords, bucket_counts, bucket_indptr, bucket_points, bucket_coords)

    def _cell_coords(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_cell_of`: clamped cell coordinates per point."""
        cx = ((xs - self._bounds.x_min) / self._cell_size).astype(np.int64)
        cy = ((ys - self._bounds.y_min) / self._cell_size).astype(np.int64)
        np.clip(cx, 0, self._nx - 1, out=cx)
        np.clip(cy, 0, self._ny - 1, out=cy)
        return cx, cy

    def points_array(self) -> np.ndarray:
        """The indexed coordinates as an ``(n, 2)`` float array (shared).

        Row ``i`` tracks point ``i`` across :meth:`move` updates (in
        place); removed slots hold NaN.  :meth:`insert` may reallocate
        the buffer, so re-fetch after inserting.
        """
        return self._bulk_arrays()[0]

    def cell_bucket_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR bucket layout ``(indptr, point_ids)`` over row-major cell ids.

        ``point_ids[indptr[c]:indptr[c + 1]]`` are the points of cell
        ``c = cx * ny + cy`` in ascending id order.
        """
        _, _, bucket_indptr, bucket_points, _ = self._bulk_arrays()
        return bucket_indptr, bucket_points

    def batch_query_radius(
        self, radius: float, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """All radius queries at once: CSR ``(indptr, neighbor_ids)``.

        ``neighbor_ids[indptr[i]:indptr[i + 1]]`` are the indexed points
        within ``radius`` of ``centers[i]`` (an ``(m, 2)`` coordinate
        array).  The per-center result equals :meth:`query_radius` for the
        same center, in the same order (cells row-major, points by id), so
        scalar and batch callers can be cross-validated element-wise.

        The sweep enumerates cell offsets, so it is efficient when
        ``radius`` is within a small multiple of ``cell_size`` (the WPG
        regime ``cell_size == delta``).
        """
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        (
            _,
            bucket_counts,
            bucket_indptr,
            bucket_points,
            bucket_coords,
        ) = self._bulk_arrays()
        centers_xy = np.asarray(centers, dtype=float)
        m = len(centers_xy)
        xs = np.ascontiguousarray(centers_xy[:, 0])
        ys = np.ascontiguousarray(centers_xy[:, 1])
        bucket_xs, bucket_ys = bucket_coords
        r2 = radius * radius
        # The cells overlapping each center's bounding box, computed exactly
        # like the scalar path (box corners through the clamped cell map).
        lo_x, lo_y = self._cell_coords(xs - radius, ys - radius)
        hi_x, hi_y = self._cell_coords(xs + radius, ys + radius)
        span_x = hi_x - lo_x
        span_y = hi_y - lo_y
        center_chunks: list[np.ndarray] = []
        cand_chunks: list[np.ndarray] = []
        # Offsets enumerated x-major to mirror _cells_overlapping's order;
        # the stable sort below then restores per-center cell order.
        for i in range(int(span_x.max()) + 1 if m else 0):
            for j in range(int(span_y.max()) + 1 if m else 0):
                valid = np.flatnonzero((i <= span_x) & (j <= span_y))
                if len(valid) == 0:
                    continue
                cell_ids = (lo_x[valid] + i) * self._ny + (lo_y[valid] + j)
                counts = bucket_counts[cell_ids]
                occupied = counts > 0
                valid, cell_ids, counts = (
                    valid[occupied],
                    cell_ids[occupied],
                    counts[occupied],
                )
                if len(valid) == 0:
                    continue
                total = int(counts.sum())
                # Ragged gather: positions within each bucket segment.
                # Candidate reads are near-sequential in bucket order, so
                # the distance filter streams instead of random-gathering.
                ends = np.cumsum(counts)
                cand_pos = np.repeat(bucket_indptr[cell_ids], counts) + (
                    np.arange(total) - np.repeat(ends - counts, counts)
                )
                dx = np.repeat(xs[valid], counts) - bucket_xs[cand_pos]
                dy = np.repeat(ys[valid], counts) - bucket_ys[cand_pos]
                keep = dx * dx + dy * dy <= r2
                cand_chunks.append(bucket_points[cand_pos[keep]])
                center_chunks.append(np.repeat(valid, counts)[keep])
        if not cand_chunks:
            return np.zeros(m + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        cen = np.concatenate(center_chunks)
        cand = np.concatenate(cand_chunks)
        order = np.argsort(cen, kind="stable")
        cen, cand = cen[order], cand[order]
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cen, minlength=m)))
        ).astype(np.int64)
        return indptr, cand

    def _ring_cells(
        self, ccx: int, ccy: int, ring: int
    ) -> Iterable[tuple[int, int]]:
        if ring == 0:
            if 0 <= ccx < self._nx and 0 <= ccy < self._ny:
                yield (ccx, ccy)
            return
        lo_x, hi_x = ccx - ring, ccx + ring
        lo_y, hi_y = ccy - ring, ccy + ring
        for cx in range(lo_x, hi_x + 1):
            for cy in (lo_y, hi_y):
                if 0 <= cx < self._nx and 0 <= cy < self._ny:
                    yield (cx, cy)
        for cy in range(lo_y + 1, hi_y):
            for cx in (lo_x, hi_x):
                if 0 <= cx < self._nx and 0 <= cy < self._ny:
                    yield (cx, cy)
