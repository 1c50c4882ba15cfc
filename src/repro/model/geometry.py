"""Planar geometry primitives used by the network model.

The paper places base stations and user equipments on a flat 2-D region
(regular grid or a 1200 m x 1200 m rectangle).  Everything here works in
**meters**; radio-level code converts to kilometers where the path-loss
formula requires it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
        xy = self.sample_uniform_xy(rng, count)
        return list(map(Point, xy[:, 0].tolist(), xy[:, 1].tolist()))

    def sample_uniform_xy(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """:meth:`sample_uniform` as a float ``(count, 2)`` array: the
        same draws (all x, then all y), no :class:`Point` objects."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        xs = rng.uniform(self.x_min, self.x_max, size=count)
        ys = rng.uniform(self.y_min, self.y_max, size=count)
        return np.column_stack((xs, ys))


#: Queries :meth:`SpatialGrid.query_radius` expands per step: its
#: temporaries are O(this x candidates per cell).
_QUERY_CHUNK = 16_384


class _CellTable(NamedTuple):
    """The points a query in each non-empty cell could reach (see
    :class:`SpatialGrid`), keyed by packed cell index."""

    #: The smallest cell index of the table on each axis.
    x0: int
    y0: int
    #: Cells are keyed in blocks of ``2**shift`` per axis: 0 unless the
    #: table spans ``2**63`` cells or more (see :func:`_cell_table`).
    shift: int
    #: Blocks along ``y``: the key of block ``(bx, by)`` is ``bx * ny + by``.
    ny: int
    #: The key of each listed block, ascending.
    keys: np.ndarray
    #: Block ``k`` lists ``counts[k]`` points from ``points[starts[k]]``,
    #: ascending.
    starts: np.ndarray
    counts: np.ndarray
    points: np.ndarray

    def key(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """The packed key of each cell ``(cx, cy)``."""
        return ((cx - self.x0) >> self.shift) * self.ny + (
            (cy - self.y0) >> self.shift
        )

    def slices(
        self, cx: np.ndarray, cy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Start and length in ``points`` of the list of each query cell
        ``(cx, cy)``, with one binary search over the keys; length 0 for
        a key the table lacks.  A cell outside the table's extent may
        share a listed block's key: it gathers points the distance test
        then rejects, because no point is filed in it."""
        key = self.key(cx, cy)
        block = np.searchsorted(self.keys, key)
        np.minimum(block, len(self.keys) - 1, out=block)
        counts = np.where(self.keys[block] == key, self.counts[block], 0)
        return self.starts[block], counts


def _cell_table(
    x: np.ndarray, y: np.ndarray, cell: float, radius: float
) -> _CellTable | None:
    """File each point ``(x[i], y[i])`` in every cell whose rectangle
    lies within ``radius`` plus a rounding margin of it; ``None`` when
    no point has finite coordinates."""
    # A point at a non-finite position is within the radius of no
    # query (as in the dense filter), so it is filed nowhere.
    index = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
    if not len(index):
        return None
    x, y = x[index], y[index]
    reach = radius + 1e-9 * (radius + cell + np.abs(x) + np.abs(y))
    # The cells within ``reach`` of a point are among the ``width``
    # cells per axis from the one ``reach`` to its left (below), and
    # ``width`` is at most ``2 * ceil(radius / cell) + 3``.
    width = math.ceil(2.0 * float(reach.max()) / cell) + 2
    span = np.arange(width)
    x_cells = np.floor((x - reach) / cell).astype(np.int64)[:, None] + span
    y_cells = np.floor((y - reach) / cell).astype(np.int64)[:, None] + span
    gap_x = np.maximum(x_cells * cell - x[:, None], x[:, None] - (x_cells + 1) * cell)
    gap_y = np.maximum(y_cells * cell - y[:, None], y[:, None] - (y_cells + 1) * cell)
    np.maximum(gap_x, 0.0, out=gap_x)
    np.maximum(gap_y, 0.0, out=gap_y)
    near = gap_x[:, :, None] ** 2 + gap_y[:, None, :] ** 2 <= (
        reach**2
    )[:, None, None]
    point, i, j = np.nonzero(near)  # points ascending
    cx, cy = x_cells[point, i], y_cells[point, j]
    x0, y0 = int(cx.min()), int(cy.min())
    nx, ny = int(cx.max()) - x0 + 1, int(cy.max()) - y0 + 1
    # The key range in Python ints, so it cannot wrap: past 2**63 cells,
    # blocks of 2**shift x 2**shift cells share a key and list the union
    # of their cells' points, still a superset for each cell.
    shift = 0
    while ((nx - 1 >> shift) + 1) * ((ny - 1 >> shift) + 1) >= 2**63:
        shift += 1
    table = _CellTable(
        x0, y0, shift, (ny - 1 >> shift) + 1, None, None, None, None
    )
    key = table.key(cx, cy)
    order = np.argsort(key, kind="stable")  # each block's points ascending
    key, point = key[order], point[order]
    # A point filed in two cells of one block is listed once.
    first = np.r_[True, (key[1:] != key[:-1]) | (point[1:] != point[:-1])]
    key, point = key[first], point[first]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return table._replace(
        keys=key[starts],
        starts=starts,
        counts=np.diff(starts, append=len(key)),
        points=index[point],
    )


class SpatialGrid:
    """Uniform-cell spatial index over a fixed point set for radius queries.

    A radius query reads a **candidate table**: for each non-empty
    square cell of ``cell_size_m``, the ascending indices of the indexed
    points (typically BS positions) a query in that cell could reach.

    *Superset, never subset.*  A point is filed in every cell whose
    rectangle lies within ``radius + margin`` of it, the margin being
    ``1e-9`` of the radius, the cell and the point's coordinates.  The
    rounding errors it absorbs are some ``1e-16`` of the same: a query
    whose floored cell is off by one at a cell edge, and a pair whose
    computed distance rounds down to exactly the radius, still find the
    point in their cell's list.  The exact ``distance <= radius`` test
    on the expanded candidates then decides, so an extra entry costs
    time, never an answer.

    *Cost.*  The table is built on the first query with a given radius
    and kept (the last radius's only), so networks that share a grid
    share it; it is never changed once built.  It stores only non-empty
    cells, and at most ``(2 * ceil(radius / cell_size_m) + 3)**2``
    entries per point however far apart the points lie: O(points x
    cells per disc), never O(bounding-box area).  A query of ``m``
    points then costs O(table + m + candidates): per chunk of
    ``_QUERY_CHUNK`` queries, one binary search over the packed cell
    keys finds each query's list and one CSR expansion gathers the
    candidates, in a fixed number of array passes with no per-cell
    loop.  Temporaries are O(chunk x candidates per cell).

    Distances are computed with the same float64 ``np.hypot`` applied to
    the same coordinate differences as the dense path, so query results
    are bit-identical to filtering a dense distance matrix —
    ``MECNetwork``'s coverage and candidate pairs rely on that.
    """

    __slots__ = ("_x", "_y", "_cell_size", "_table")

    def __init__(
        self, points: Sequence[Point] | np.ndarray, cell_size_m: float
    ) -> None:
        if cell_size_m <= 0:
            raise ConfigurationError(
                f"cell_size_m must be > 0, got {cell_size_m}"
            )
        self._x, self._y = np.ascontiguousarray(_as_xy(points).T)
        self._cell_size = float(cell_size_m)
        # ``(radius, table)`` of the last radius queried.
        self._table: tuple[float, _CellTable] | None = None

    def __len__(self) -> int:
        return len(self._x)

    def query_radius(
        self,
        queries: Sequence[Point] | np.ndarray,
        radius_m: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (query, point) pairs within ``radius_m`` of each other.

        Returns ``(rows, cols, dists)`` — parallel arrays with ``rows``
        indexing into ``queries`` and ``cols`` into the indexed points —
        sorted lexicographically by ``(row, col)``, i.e. exactly the
        order ``np.nonzero(dense_distances <= radius)`` would produce:
        queries are expanded in input order, each against its cell's
        ascending point list, so no sort is needed.
        """
        if radius_m <= 0:
            raise ConfigurationError(
                f"radius_m must be > 0, got {radius_m}"
            )
        q_xy = _as_xy(queries)
        if len(q_xy) == 0:
            return _no_pairs()
        radius_m = float(radius_m)
        cached = self._table
        if cached is None or cached[0] != radius_m:
            cached = (
                radius_m,
                _cell_table(self._x, self._y, self._cell_size, radius_m),
            )
            self._table = cached
        table = cached[1]
        if table is None:
            return _no_pairs()
        x, y = self._x, self._y
        q_x, q_y = np.ascontiguousarray(q_xy.T)
        parts = []
        for lo in range(0, len(q_x), _QUERY_CHUNK):
            c_x, c_y = q_x[lo:lo + _QUERY_CHUNK], q_y[lo:lo + _QUERY_CHUNK]
            cells = np.floor(
                q_xy[lo:lo + _QUERY_CHUNK] / self._cell_size
            ).astype(np.int64)
            starts, counts = table.slices(cells[:, 0], cells[:, 1])
            # One CSR expansion: each query against its cell's list.
            ends = np.cumsum(counts)
            rows = np.repeat(np.arange(len(counts)), counts)
            cols = table.points.take(
                np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
            )
            dists = np.hypot(
                c_x.take(rows) - x.take(cols), c_y.take(rows) - y.take(cols)
            )
            keep = np.flatnonzero(dists <= radius_m)
            parts.append((rows.take(keep) + lo, cols.take(keep), dists.take(keep)))
        if len(parts) == 1:
            return parts[0]
        rows, cols, dists = zip(*parts)
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)


def _no_pairs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The empty ``(rows, cols, dists)`` of :meth:`SpatialGrid.query_radius`."""
    empty_i = np.empty(0, dtype=np.intp)
    return empty_i, empty_i.copy(), np.empty(0, dtype=float)


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
    sources: Sequence[Point] | Iterable[Point] | np.ndarray,
    targets: Sequence[Point] | Iterable[Point] | np.ndarray,
) -> np.ndarray:
    """Distance matrix (meters) between two point collections.

    Either side may be points or a float ``(n, 2)`` coordinate array.
    Returns an array of shape ``(len(sources), len(targets))``.  This is the
    vectorized building block used when precomputing UE--BS link metrics for
    a whole scenario at once.
    """
    src = _as_xy(sources)
    tgt = _as_xy(targets)
    if src.size == 0 or tgt.size == 0:
        return np.zeros((len(src), len(tgt)))
    diff = src[:, None, :] - tgt[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])
