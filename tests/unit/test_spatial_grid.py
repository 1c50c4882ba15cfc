"""Unit tests for the spatial index and the network's geometry.

The network's grid-found pairs must be *bit-identical* to the dense
brute-force filter — the radio map, the matching engine, and the
sharded scale runner all rely on that — so these tests compare exact
floats, not approximations.
"""

import numpy as np
import pytest
from oracles.coverage import dense_filter

from repro.errors import ConfigurationError
from repro.model import geometry
from repro.model.geometry import Point, SpatialGrid, pairwise_distances_m
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario


def _random_points(rng, count, side=1000.0):
    xy = rng.uniform(0.0, side, size=(count, 2))
    return [Point(float(x), float(y)) for x, y in xy]


class TestSpatialGrid:
    def test_query_matches_dense_nonzero_order_and_values(self):
        rng = np.random.default_rng(3)
        targets = _random_points(rng, 40)
        queries = _random_points(rng, 70)
        radius = 260.0
        grid = SpatialGrid(targets, cell_size_m=radius)
        rows, cols, dists = grid.query_radius(queries, radius)
        dense = pairwise_distances_m(queries, targets)
        want_rows, want_cols = np.nonzero(dense <= radius)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
        # Bit-identical distances, not approximate ones.
        assert dists.tolist() == dense[want_rows, want_cols].tolist()

    def test_cell_size_much_smaller_than_radius(self):
        rng = np.random.default_rng(4)
        targets = _random_points(rng, 30)
        queries = _random_points(rng, 30)
        fine = SpatialGrid(targets, cell_size_m=35.0)
        coarse = SpatialGrid(targets, cell_size_m=700.0)
        for radius in (90.0, 400.0):
            got = fine.query_radius(queries, radius)
            want = coarse.query_radius(queries, radius)
            for a, b in zip(got, want):
                assert a.tolist() == b.tolist()

    @pytest.mark.parametrize(
        "target, query",
        [
            (Point(-1.7e-130, 0.0), Point(100.0, 0.0)),
            (Point(0.0, -1.7e-130), Point(0.0, 100.0)),
        ],
    )
    def test_pair_at_radius_just_past_the_scanned_cells(self, target, query):
        # The computed distance rounds to exactly the radius although
        # the target lies beyond it, in cell -1, eleven cells from the
        # query's cell 10: the candidate table must still list it for
        # cell 10 (it files a point by its distance to each cell's
        # rectangle, plus a rounding margin).  Hypothesis found this
        # case.
        radius = 100.0
        grid = SpatialGrid([target], cell_size_m=10.0)
        rows, cols, dists = grid.query_radius([query], radius)
        dense = pairwise_distances_m([query], [target])
        assert dense[0, 0] == radius
        assert rows.tolist() == [0] and cols.tolist() == [0]
        assert dists.tolist() == [radius]

    def test_chunk_boundaries_split_a_cells_queries(self, monkeypatch):
        """More queries than one chunk, each cell's queries spread over
        several chunks (and interleaved with other cells'): the output
        is still the dense filter, bit for bit, for any chunk size."""
        rng = np.random.default_rng(8)
        points = rng.uniform(0.0, 300.0, size=(25, 2))
        cells = rng.integers(0, 3, size=(240, 2)) * 100.0
        queries = cells + rng.uniform(0.0, 100.0, size=(240, 2))
        radius = 120.0
        dense = pairwise_distances_m(queries, points)
        want_rows, want_cols = np.nonzero(dense <= radius)
        want = dense[want_rows, want_cols]
        for chunk in (1, 7, 64, 239, 240):
            monkeypatch.setattr(geometry, "_QUERY_CHUNK", chunk)
            rows, cols, dists = SpatialGrid(points, 100.0).query_radius(
                queries, radius
            )
            assert rows.tolist() == want_rows.tolist()
            assert cols.tolist() == want_cols.tolist()
            assert np.array_equal(dists.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "offset",
        [
            1e7,  # the table's key range fits an int64 as it is
            4e9,  # past 2**63 cells: keys name blocks of cells
        ],
    )
    def test_huge_extent_against_the_cell(self, offset):
        """Two clusters far apart next to a 1 m cell: the answer is the
        dense filter and the table stays O(points x cells per disc),
        however large the bounding box of the layout."""
        rng = np.random.default_rng(9)
        cluster = rng.uniform(0.0, 6.0, size=(30, 2))
        points = np.concatenate([cluster, cluster + offset])
        queries = np.concatenate([
            rng.uniform(-2.0, 8.0, size=(40, 2)),
            rng.uniform(-2.0, 8.0, size=(40, 2)) + offset,
            points[::7] + (2.5, 0.0),  # at exactly the radius, or close
        ])
        radius, cell = 2.5, 1.0
        grid = SpatialGrid(points, cell_size_m=cell)
        rows, cols, dists = grid.query_radius(queries, radius)
        dense = pairwise_distances_m(queries, points)
        want_rows, want_cols = np.nonzero(dense <= radius)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
        assert dists.tolist() == dense[want_rows, want_cols].tolist()
        table = grid._table[1]
        assert (table.shift > 0) == (offset > 1e8)
        per_point = (2 * int(np.ceil(radius / cell)) + 3) ** 2
        assert len(table.points) <= len(points) * per_point

    def test_non_finite_positions_pair_with_nothing(self):
        """A point or query at a NaN or infinite coordinate is within the
        radius of nothing, as in the dense filter."""
        points = np.array(
            [[0.0, 0.0], [np.nan, 5.0], [np.inf, 0.0], [3.0, -np.inf]]
        )
        queries = np.array([[1.0, 1.0], [np.nan, 0.0], [-np.inf, 2.0]])
        with np.errstate(invalid="ignore"):  # a NaN query's cell cast
            rows, cols, dists = SpatialGrid(points, 10.0).query_radius(
                queries, 20.0
            )
            nothing = SpatialGrid(points[1:], 10.0).query_radius(
                queries, 20.0
            )
        assert (rows.tolist(), cols.tolist()) == ([0], [0])
        assert dists.tolist() == [np.hypot(1.0, 1.0)]
        assert [len(a) for a in nothing] == [0, 0, 0]

    def test_empty_point_set_and_empty_queries(self):
        grid = SpatialGrid([], cell_size_m=100.0)
        rows, cols, dists = grid.query_radius([Point(0, 0)], 50.0)
        assert len(rows) == len(cols) == len(dists) == 0
        grid2 = SpatialGrid([Point(1, 2)], cell_size_m=100.0)
        rows, cols, dists = grid2.query_radius([], 50.0)
        assert len(rows) == len(cols) == len(dists) == 0
        assert len(grid2) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SpatialGrid([Point(0, 0)], cell_size_m=0.0)
        grid = SpatialGrid([Point(0, 0)], cell_size_m=10.0)
        with pytest.raises(ConfigurationError):
            grid.query_radius([Point(0, 0)], radius_m=-1.0)


class TestNetworkGeometryModes:
    """The network against the brute-force dense filter
    (``oracles.coverage``): ``pairwise_distances_m(ue_xy, bs_xy) <= r``
    and the hosting mask."""

    @pytest.fixture(scope="class")
    def networks(self):
        network = build_scenario(
            ScenarioConfig.paper(), ue_count=90, seed=11
        ).network
        return (network, *dense_filter(network))

    def test_coverage_and_candidates_identical(self, networks):
        network, _, covered, candidate = networks
        bs_ids = network.bs_columns().bs_ids
        for row, ue in enumerate(network.user_equipments):
            assert network.covering_base_stations(ue.ue_id) == tuple(
                bs_ids[covered[row]].tolist()
            )
            assert network.candidate_base_stations(ue.ue_id) == tuple(
                bs_ids[candidate[row]].tolist()
            )

    def test_distances_identical_in_and_out_of_coverage(self, networks):
        network, distances, covered, _ = networks
        assert covered.any() and not covered.all()
        for row, ue in enumerate(network.user_equipments):
            for col, bs in enumerate(network.base_stations):
                assert network.distance_m(ue.ue_id, bs.bs_id) == (
                    distances[row, col]
                )

    def test_pair_distances_equal_point_lookups(self, networks):
        """The batched lookup returns distance_m's float for every pair,
        in and out of coverage, in any probe order."""
        network, distances, _, _ = networks
        rng = np.random.default_rng(3)
        rows, cols = np.divmod(
            rng.permutation(network.ue_count * network.bs_count),
            network.bs_count,
        )
        expected = [
            network.distance_m(
                network.user_equipments[row].ue_id,
                network.base_stations[col].bs_id,
            )
            for row, col in zip(rows.tolist(), cols.tolist())
        ]
        got = network.pair_distances_m(rows, cols)
        assert got.tolist() == expected
        assert got.tolist() == distances[rows, cols].tolist()

    def test_candidate_pairs_identical(self, networks):
        network, distances, _, candidate = networks
        rows, cols, dists = network.candidate_pairs()
        want_rows, want_cols = np.nonzero(candidate)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
        assert dists.tolist() == distances[want_rows, want_cols].tolist()
        # A subset of rows reads just those rows' slices, in order.
        subset = np.array([0, 7, 8, 40, 89])
        sub_rows, sub_cols, sub_dists = network.candidate_pairs(subset)
        picked = np.isin(want_rows, subset)
        assert sub_rows.tolist() == want_rows[picked].tolist()
        assert sub_cols.tolist() == want_cols[picked].tolist()
        assert sub_dists.tolist() == dists[picked].tolist()

    def test_mean_coverage_degree_identical(self, networks):
        network, _, _, candidate = networks
        assert network.mean_coverage_degree() == pytest.approx(
            candidate.sum(axis=1).mean()
        )

    def test_estimated_geometry_bytes_positive_and_mode_dependent(
        self, networks
    ):
        """The estimate counts the stored pairs, not UE x BS cells; under
        the paper's full hosting the candidate arrays are the coverage
        arrays, counted once."""
        network, _, covered, candidate = networks
        assert (covered == candidate).all()
        assert network._cand_cols is network._cov_cols
        pairs = int(covered.sum())
        rows = network.ue_count + 1
        assert network.estimated_geometry_bytes() == 16 * pairs + 8 * rows
