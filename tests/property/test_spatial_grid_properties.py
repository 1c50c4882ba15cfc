"""Property test: ``SpatialGrid.query_radius`` is the dense filter.

The grid geometry mode of ``MECNetwork`` stores exactly the pairs of
``np.nonzero(pairwise_distances_m(queries, points) <= radius)``, in that
row-major order and with bit-identical distances; the radio map, the
SoA kernel and the sharded runner all rely on it.  Hypothesis draws
the inputs where a spatial index goes wrong: duplicate points, negative
coordinates, points exactly on cell edges and at the radius, cells
smaller and larger than the radius, and empty sides.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.geometry import Point, SpatialGrid, pairwise_distances_m

QUERIES = settings(max_examples=150, deadline=None)


def _coordinate(data, cell, radius):
    return data.draw(st.one_of(
        st.integers(-6, 6).map(lambda k: k * cell),  # on a cell edge
        st.integers(-6, 6).map(lambda k: k * radius),
        st.floats(
            -1500.0, 1500.0, allow_nan=False, allow_infinity=False,
            allow_subnormal=False,
        ),
    ))


def _points(data, count, cell, radius, near=()):
    """``count`` points; some repeat earlier ones or sit at exactly
    ``radius`` (axis-aligned or on a 3-4-5 diagonal) from ``near``."""
    points: list[tuple[float, float]] = []
    for _ in range(count):
        kind = data.draw(st.sampled_from(["free", "repeat", "at_radius"]))
        if kind == "repeat" and points:
            points.append(data.draw(st.sampled_from(points)))
        elif kind == "at_radius" and near:
            x, y = data.draw(st.sampled_from(list(near)))
            dx, dy = data.draw(st.sampled_from([
                (radius, 0.0), (0.0, -radius), (-radius, 0.0),
                (0.6 * radius, 0.8 * radius), (-0.8 * radius, 0.6 * radius),
            ]))
            points.append((x + dx, y + dy))
        else:
            points.append(
                (_coordinate(data, cell, radius), _coordinate(data, cell, radius))
            )
    return points


@QUERIES
@given(
    radius=st.sampled_from([100.0, 250.0, 300.0, 737.5]),
    cell_ratio=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 4.0]),
    n_points=st.integers(min_value=0, max_value=40),
    n_queries=st.integers(min_value=0, max_value=40),
    as_points=st.booleans(),
    data=st.data(),
)
def test_query_radius_is_the_dense_filter(
    radius, cell_ratio, n_points, n_queries, as_points, data
):
    cell = radius * cell_ratio
    indexed = _points(data, n_points, cell, radius)
    queries = _points(data, n_queries, cell, radius, near=indexed)
    grid_points = np.array(indexed, dtype=float).reshape(-1, 2)
    query_xy = np.array(queries, dtype=float).reshape(-1, 2)
    if as_points:
        grid_points = [Point(x, y) for x, y in indexed]
        queries = [Point(x, y) for x, y in queries]
    else:
        queries = query_xy

    rows, cols, dists = SpatialGrid(grid_points, cell_size_m=cell).query_radius(
        queries, radius
    )

    dense = pairwise_distances_m(query_xy, np.array(indexed).reshape(-1, 2))
    want_rows, want_cols = np.nonzero(dense <= radius)
    assert rows.tolist() == want_rows.tolist()
    assert cols.tolist() == want_cols.tolist()
    want = dense[want_rows, want_cols]
    assert dists.dtype == want.dtype
    assert np.array_equal(dists.view(np.uint64), want.view(np.uint64))
