"""Base-station and UE placement strategies.

The paper evaluates two BS layouts (§VI.A):

* **regular** — BSs on a square grid with 300 m inter-site distance;
* **random**  — BSs uniform at random in a 1200 m x 1200 m rectangle.

Both are provided, plus a clustered (hot-spot) placement useful for
stress-testing allocators beyond the paper's scenarios.  All placements
are driven by a :class:`numpy.random.Generator` so scenarios are exactly
reproducible from a seed.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.model.geometry import Point, Rectangle

__all__ = [
    "PlacementStrategy",
    "RegularGridPlacement",
    "UniformRandomPlacement",
    "ClusteredPlacement",
    "scatter_ues",
]


class PlacementStrategy(Protocol):
    """Anything that can produce ``count`` BS positions inside ``region``."""

    def place(
        self, region: Rectangle, count: int, rng: np.random.Generator
    ) -> list[Point]:
        """Return ``count`` positions inside ``region``."""
        ...


class RegularGridPlacement:
    """BSs on a square grid with a fixed inter-site distance.

    The grid is centered in the region.  If ``count`` does not fill the
    last grid row, positions are assigned row-major, so the layout stays
    deterministic regardless of the RNG (which is accepted but unused).
    """

    def __init__(self, inter_site_distance_m: float = 300.0) -> None:
        if inter_site_distance_m <= 0:
            raise ConfigurationError(
                f"inter-site distance must be > 0, got {inter_site_distance_m}"
            )
        self.inter_site_distance_m = inter_site_distance_m

    def place(
        self, region: Rectangle, count: int, rng: np.random.Generator
    ) -> list[Point]:
        """Grid positions, row-major, centered in the region."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if count == 0:
            return []
        cols = max(1, math.ceil(math.sqrt(count)))
        rows = math.ceil(count / cols)
        d = self.inter_site_distance_m
        grid_width = (cols - 1) * d
        grid_height = (rows - 1) * d
        if grid_width > region.width or grid_height > region.height:
            raise ConfigurationError(
                f"a {rows}x{cols} grid at {d} m spacing does not fit in a "
                f"{region.width:.0f} m x {region.height:.0f} m region"
            )
        # The region's center, without making a Point for it.
        origin_x = (region.x_min + region.x_max) / 2 - grid_width / 2
        origin_y = (region.y_min + region.y_max) / 2 - grid_height / 2
        points: list[Point] = []
        for index in range(count):
            row, col = divmod(index, cols)
            points.append(Point(origin_x + col * d, origin_y + row * d))
        return points


class UniformRandomPlacement:
    """BSs uniform at random in the region (the paper's second layout)."""

    def __init__(self, min_separation_m: float = 0.0) -> None:
        if min_separation_m < 0:
            raise ConfigurationError(
                f"min_separation_m must be >= 0, got {min_separation_m}"
            )
        self.min_separation_m = min_separation_m

    def place(
        self, region: Rectangle, count: int, rng: np.random.Generator
    ) -> list[Point]:
        """Uniform draws, rejection-sampled when a separation is set."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if self.min_separation_m == 0.0:
            return region.sample_uniform(rng, count)
        # Rejection-sample to keep BSs apart; bail out rather than loop
        # forever if the separation is infeasible for the region size.
        points: list[Point] = []
        attempts = 0
        max_attempts = 1000 * max(count, 1)
        while len(points) < count:
            attempts += 1
            if attempts > max_attempts:
                raise ConfigurationError(
                    f"could not place {count} BSs with "
                    f"{self.min_separation_m} m separation in region"
                )
            (candidate,) = region.sample_uniform(rng, 1)
            if all(
                candidate.distance_to(p) >= self.min_separation_m for p in points
            ):
                points.append(candidate)
        return points


class ClusteredPlacement:
    """BSs drawn around Gaussian hot-spots (not in the paper; for ablations).

    ``cluster_count`` centers are placed uniformly, then each BS is attached
    to a uniformly chosen center with a Gaussian offset of standard deviation
    ``spread_m``, clipped to the region.
    """

    def __init__(self, cluster_count: int = 3, spread_m: float = 150.0) -> None:
        if cluster_count <= 0:
            raise ConfigurationError(
                f"cluster_count must be > 0, got {cluster_count}"
            )
        if spread_m <= 0:
            raise ConfigurationError(f"spread_m must be > 0, got {spread_m}")
        self.cluster_count = cluster_count
        self.spread_m = spread_m

    def place(
        self, region: Rectangle, count: int, rng: np.random.Generator
    ) -> list[Point]:
        """Gaussian draws around uniformly placed hot-spot centers."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        centers = region.sample_uniform(rng, self.cluster_count)
        points: list[Point] = []
        for _ in range(count):
            center = centers[int(rng.integers(self.cluster_count))]
            x = float(np.clip(
                rng.normal(center.x, self.spread_m), region.x_min, region.x_max
            ))
            y = float(np.clip(
                rng.normal(center.y, self.spread_m), region.y_min, region.y_max
            ))
            points.append(Point(x, y))
        return points


def scatter_ues(
    region: Rectangle, count: int, rng: np.random.Generator
) -> list[Point]:
    """UE positions: uniform at random in the region (paper §VI.A)."""
    return region.sample_uniform(rng, count)


def make_placement(name: str, **kwargs: float) -> PlacementStrategy:
    """Factory mapping config strings to placement strategies.

    ``name`` is one of ``"regular"``, ``"random"``, ``"clustered"``.
    """
    factories: dict[str, type] = {
        "regular": RegularGridPlacement,
        "random": UniformRandomPlacement,
        "clustered": ClusteredPlacement,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown placement {name!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(**kwargs)


__all__.append("make_placement")


def coverage_overlap_count(
    bs_positions: Sequence[Point], ue_position: Point, radius_m: float
) -> int:
    """How many BSs cover ``ue_position`` at coverage radius ``radius_m``.

    Handy for validating that a placement produces the dense multi-coverage
    regime the paper assumes.
    """
    return sum(1 for p in bs_positions if p.distance_to(ue_position) <= radius_m)


__all__.append("coverage_overlap_count")
