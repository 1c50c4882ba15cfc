"""Unit tests for the spatial index and the network's geometry modes.

The grid mode must be *bit-identical* to the dense path — the radio
map, the matching engine, and the sharded scale runner all rely on
that — so these tests compare exact floats, not approximations.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.model.geometry import Point, SpatialGrid, pairwise_distances_m
from repro.model.network import MECNetwork
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


def _grid_clone(network: MECNetwork) -> MECNetwork:
    return MECNetwork(
        providers=network.providers,
        base_stations=network.base_stations,
        user_equipments=network.user_equipments,
        services=network.services,
        region=network.region,
        coverage_radius_m=network.coverage_radius_m,
        geometry="grid",
    )


class TestNetworkGeometryModes:
    @pytest.fixture(scope="class")
    def networks(self):
        scenario = build_scenario(
            ScenarioConfig.paper(), ue_count=90, seed=11
        )
        return scenario.network, _grid_clone(scenario.network)

    def test_auto_stays_dense_below_cell_limit(self, networks):
        dense, grid = networks
        assert dense._geometry_mode == "dense"
        assert grid._geometry_mode == "grid"

    def test_coverage_and_candidates_identical(self, networks):
        dense, grid = networks
        for ue in dense.user_equipments:
            assert grid.covering_base_stations(
                ue.ue_id
            ) == dense.covering_base_stations(ue.ue_id)
            assert grid.candidate_base_stations(
                ue.ue_id
            ) == dense.candidate_base_stations(ue.ue_id)

    def test_distances_identical_in_and_out_of_coverage(self, networks):
        dense, grid = networks
        ue = dense.user_equipments[0]
        for bs in dense.base_stations:
            assert grid.distance_m(ue.ue_id, bs.bs_id) == dense.distance_m(
                ue.ue_id, bs.bs_id
            )

    def test_pair_distances_equal_point_lookups(self, networks):
        """The batched lookup returns distance_m's float for every pair,
        in and out of coverage, in both modes, in any probe order."""
        rng = np.random.default_rng(3)
        for network in networks:
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
            assert network.pair_distances_m(rows, cols).tolist() == expected

    def test_candidate_pairs_identical(self, networks):
        dense, grid = networks
        d_rows, d_cols, d_dists = dense.candidate_pairs()
        g_rows, g_cols, g_dists = grid.candidate_pairs()
        assert g_rows.tolist() == d_rows.tolist()
        assert g_cols.tolist() == d_cols.tolist()
        assert g_dists.tolist() == d_dists.tolist()

    def test_distance_matrix_and_mask_shims_identical(self, networks):
        dense, grid = networks
        assert np.array_equal(
            grid.distance_matrix_m(), dense.distance_matrix_m()
        )
        assert np.array_equal(grid.candidate_mask(), dense.candidate_mask())

    def test_mean_coverage_degree_identical(self, networks):
        dense, grid = networks
        assert grid.mean_coverage_degree() == pytest.approx(
            dense.mean_coverage_degree()
        )

    def test_estimated_geometry_bytes_positive_and_mode_dependent(
        self, networks
    ):
        dense, grid = networks
        assert dense.estimated_geometry_bytes() > 0
        assert grid.estimated_geometry_bytes() > 0
        # Dense estimate covers the full UE x BS matrix plus the mask.
        cells = dense.ue_count * dense.bs_count
        assert dense.estimated_geometry_bytes() >= cells * 9

    def test_invalid_geometry_rejected(self, networks):
        dense, _ = networks
        with pytest.raises(ConfigurationError):
            MECNetwork(
                providers=dense.providers,
                base_stations=dense.base_stations,
                user_equipments=dense.user_equipments,
                services=dense.services,
                region=dense.region,
                coverage_radius_m=dense.coverage_radius_m,
                geometry="sparse",
            )
