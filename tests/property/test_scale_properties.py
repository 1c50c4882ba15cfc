"""Property-based tests for the region tiling.

The invariant: every UE position, on or past the region's far edges
included, is owned by exactly one tile.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.geometry import Rectangle
from repro.scale.partition import assign_shards, plan_tiles

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    count=st.integers(min_value=0, max_value=300),
    shards=st.integers(min_value=1, max_value=12),
    side=st.sampled_from([400.0, 1200.0, 2700.0]),
)
def test_assign_shards_covers_every_point_exactly_once(
    seed, count, shards, side
):
    region = Rectangle.square(side)
    rng = np.random.default_rng(seed)
    # Include points on and slightly past the far edges on purpose.
    xy = rng.uniform(-10.0, side + 10.0, size=(count, 2))
    nx, ny, _ = plan_tiles(region, shards)
    owners = assign_shards(xy, region, nx, ny)
    assert owners.shape == (count,)
    assert np.all((owners >= 0) & (owners < shards))
