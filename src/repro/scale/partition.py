"""Spatial partitioning: tile the deployment area into UE shards.

Tiles form an ``nx x ny`` grid with ``nx * ny == shard_count``; the
factor pair is chosen closest to square, with the larger factor along
the longer region side (prime shard counts degenerate to strips).
Every UE maps to exactly one tile: positions are binned by
``floor((x - x_min) / tile_w)`` clipped into range, so points on the
region's far edge (or outside it) land in the last tile instead of
falling through.  The stream (:mod:`repro.stream.runner`) routes each
arrival to the shard that owns its tile.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.model.geometry import Rectangle

__all__ = ["plan_tiles", "assign_shards"]


def plan_tiles(region: Rectangle, shard_count: int) -> tuple[int, int, tuple[Rectangle, ...]]:
    """Tile ``region`` into ``shard_count`` rectangles.

    Returns ``(nx, ny, bounds)`` with ``bounds`` in row-major order
    (x fastest).  The factor pair ``nx * ny == shard_count`` closest to
    square is used, oriented so the larger factor splits the longer
    side — strips for prime counts, near-squares otherwise.
    """
    if shard_count <= 0:
        raise ConfigurationError(
            f"shard_count must be > 0, got {shard_count}"
        )
    small = 1
    for d in range(1, int(math.isqrt(shard_count)) + 1):
        if shard_count % d == 0:
            small = d
    large = shard_count // small
    if region.width >= region.height:
        nx, ny = large, small
    else:
        nx, ny = small, large
    tile_w = region.width / nx
    tile_h = region.height / ny
    bounds = tuple(
        Rectangle(
            region.x_min + ix * tile_w,
            region.y_min + iy * tile_h,
            region.x_min + (ix + 1) * tile_w,
            region.y_min + (iy + 1) * tile_h,
        )
        for iy in range(ny)
        for ix in range(nx)
    )
    return nx, ny, bounds


def assign_shards(
    xy: np.ndarray, region: Rectangle, nx: int, ny: int
) -> np.ndarray:
    """Shard index for each ``(x, y)`` row of ``xy`` (exactly one each).

    Binning is closed on the far edges: indices are clipped into
    ``[0, nx-1] x [0, ny-1]``, so every point — including ones exactly
    on ``x_max``/``y_max`` or nominally outside the region — is owned
    by exactly one shard (the nearest tile).
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    tile_w = region.width / nx
    tile_h = region.height / ny
    ix = np.clip(
        np.floor((xy[:, 0] - region.x_min) / tile_w).astype(np.int64), 0, nx - 1
    )
    iy = np.clip(
        np.floor((xy[:, 1] - region.y_min) / tile_h).astype(np.int64), 0, ny - 1
    )
    return iy * nx + ix
