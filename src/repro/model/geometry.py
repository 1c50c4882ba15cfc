"""Planar geometry primitives used by the network model.

The paper places base stations and user equipments on a flat 2-D region
(regular grid or a 1200 m x 1200 m rectangle).  Everything here works in
**meters**; radio-level code converts to kilometers where the path-loss
formula requires it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Point",
    "Rectangle",
    "SpatialGrid",
    "distance_m",
    "pairwise_distances_m",
]


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane, coordinates in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by ``(dx, dy)`` meters."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Rectangle:
    """An axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ConfigurationError(
                f"degenerate rectangle: ({self.x_min}, {self.y_min}) .. "
                f"({self.x_max}, {self.y_max})"
            )

    @classmethod
    def square(cls, side_m: float) -> "Rectangle":
        """A ``side_m x side_m`` square anchored at the origin."""
        if side_m <= 0:
            raise ConfigurationError(f"square side must be positive, got {side_m}")
        return cls(0.0, 0.0, side_m, side_m)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the rectangle (borders included)."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def sample_uniform(self, rng: np.random.Generator, count: int) -> list[Point]:
        """Draw ``count`` points uniformly at random inside the rectangle."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        xs = rng.uniform(self.x_min, self.x_max, size=count)
        ys = rng.uniform(self.y_min, self.y_max, size=count)
        return list(map(Point, xs.tolist(), ys.tolist()))


class SpatialGrid:
    """Uniform-cell spatial index over a fixed point set for radius queries.

    Buckets the indexed points (typically BS positions) into square cells
    of ``cell_size_m``; a radius query then only examines the buckets a
    disc of that radius can touch, so batch-querying ``m`` points against
    ``n`` indexed points costs O(m + n + pairs) instead of the dense
    O(m * n) of :func:`pairwise_distances_m`.

    Distances are computed with the same float64 ``np.hypot`` applied to
    the same coordinate differences as the dense path, so query results
    are bit-identical to filtering a dense distance matrix — the grid and
    dense geometry modes of ``MECNetwork`` rely on that.
    """

    __slots__ = ("_xy", "_cell_size", "_buckets")

    def __init__(
        self, points: Sequence[Point] | np.ndarray, cell_size_m: float
    ) -> None:
        if cell_size_m <= 0:
            raise ConfigurationError(
                f"cell_size_m must be > 0, got {cell_size_m}"
            )
        xy = _as_xy(points)
        self._xy = xy
        self._cell_size = float(cell_size_m)
        buckets: dict[tuple[int, int], np.ndarray] = {}
        if len(xy):
            cells = np.floor(xy / self._cell_size).astype(np.int64)
            # Group point indices by cell via one lexsort; each bucket
            # keeps its indices ascending so query output column order
            # matches the dense row-major nonzero() order after sorting.
            order = np.lexsort((cells[:, 1], cells[:, 0]))
            sorted_cells = cells[order]
            boundaries = np.nonzero(
                np.any(np.diff(sorted_cells, axis=0) != 0, axis=1)
            )[0] + 1
            starts = np.concatenate(([0], boundaries, [len(order)]))
            for i in range(len(starts) - 1):
                lo, hi = starts[i], starts[i + 1]
                key = (int(sorted_cells[lo, 0]), int(sorted_cells[lo, 1]))
                buckets[key] = np.sort(order[lo:hi])
        self._buckets = buckets

    def __len__(self) -> int:
        return len(self._xy)

    def query_radius(
        self,
        queries: Sequence[Point] | np.ndarray,
        radius_m: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (query, point) pairs within ``radius_m`` of each other.

        Returns ``(rows, cols, dists)`` — parallel arrays with ``rows``
        indexing into ``queries`` and ``cols`` into the indexed points —
        sorted lexicographically by ``(row, col)``, i.e. exactly the
        order ``np.nonzero(dense_distances <= radius)`` would produce.
        """
        if radius_m <= 0:
            raise ConfigurationError(
                f"radius_m must be > 0, got {radius_m}"
            )
        q_xy = _as_xy(queries)
        if len(q_xy) == 0 or len(self._xy) == 0:
            empty_i = np.empty(0, dtype=np.intp)
            return empty_i, empty_i.copy(), np.empty(0, dtype=float)
        reach = int(math.ceil(radius_m / self._cell_size))
        q_cells = np.floor(q_xy / self._cell_size).astype(np.int64)
        # Process queries grouped by their cell: one candidate gather and
        # one small dense distance block per occupied query cell.
        order = np.lexsort((q_cells[:, 1], q_cells[:, 0]))
        sorted_cells = q_cells[order]
        boundaries = np.nonzero(
            np.any(np.diff(sorted_cells, axis=0) != 0, axis=1)
        )[0] + 1
        starts = np.concatenate(([0], boundaries, [len(order)]))
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        buckets = self._buckets
        for i in range(len(starts) - 1):
            lo, hi = starts[i], starts[i + 1]
            cx, cy = int(sorted_cells[lo, 0]), int(sorted_cells[lo, 1])
            neighbor_parts = [
                bucket
                for dx in range(-reach, reach + 1)
                for dy in range(-reach, reach + 1)
                if (bucket := buckets.get((cx + dx, cy + dy))) is not None
            ]
            if not neighbor_parts:
                continue
            cand = np.sort(np.concatenate(neighbor_parts))
            group_rows = order[lo:hi]
            q_block = q_xy[group_rows]
            t_block = self._xy[cand]
            dists = np.hypot(
                q_block[:, 0][:, None] - t_block[:, 0][None, :],
                q_block[:, 1][:, None] - t_block[:, 1][None, :],
            )
            keep = dists <= radius_m
            block_rows, block_cols = np.nonzero(keep)
            if len(block_rows):
                rows_parts.append(group_rows[block_rows])
                cols_parts.append(cand[block_cols])
                dist_parts.append(dists[block_rows, block_cols])
        if not rows_parts:
            empty_i = np.empty(0, dtype=np.intp)
            return empty_i, empty_i.copy(), np.empty(0, dtype=float)
        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        dists = np.concatenate(dist_parts)
        final = np.lexsort((cols, rows))
        return rows[final], cols[final], dists[final]


def _as_xy(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Coerce a point collection to a float64 ``(n, 2)`` array."""
    if isinstance(points, np.ndarray):
        xy = np.asarray(points, dtype=float)
        if xy.ndim != 2 or (len(xy) and xy.shape[1] != 2):
            raise ConfigurationError(
                f"expected an (n, 2) coordinate array, got shape {xy.shape}"
            )
        return xy.reshape(-1, 2)
    return np.asarray(
        [p.as_tuple() for p in points], dtype=float
    ).reshape(-1, 2)


def distance_m(a: Point, b: Point) -> float:
    """Euclidean distance between two points, in meters."""
    return a.distance_to(b)


def pairwise_distances_m(
    sources: Sequence[Point] | Iterable[Point],
    targets: Sequence[Point] | Iterable[Point],
) -> np.ndarray:
    """Distance matrix (meters) between two point collections.

    Returns an array of shape ``(len(sources), len(targets))``.  This is the
    vectorized building block used when precomputing UE--BS link metrics for
    a whole scenario at once.
    """
    src = np.asarray([p.as_tuple() for p in sources], dtype=float)
    tgt = np.asarray([p.as_tuple() for p in targets], dtype=float)
    if src.size == 0 or tgt.size == 0:
        return np.zeros((len(src), len(tgt)))
    diff = src[:, None, :] - tgt[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])
