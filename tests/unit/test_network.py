"""Unit tests for the MECNetwork container."""

import numpy as np
import pytest

from conftest import make_tiny_network
from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UEColumns,
    UserEquipment,
)
from repro.model.batchnet import BatchNetworkBuilder
from repro.model.geometry import Point, Rectangle
from repro.model.network import MECNetwork
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario


class TestLookups:
    def test_entity_lookups(self, tiny_network):
        assert tiny_network.provider(0).name == "SP-0"
        assert tiny_network.base_station(1).sp_id == 1
        assert tiny_network.user_equipment(0).sp_id == 0
        assert tiny_network.service(1).name == "svc-1"

    def test_unknown_ids_raise(self, tiny_network):
        with pytest.raises(UnknownEntityError):
            tiny_network.provider(99)
        with pytest.raises(UnknownEntityError):
            tiny_network.base_station(99)
        with pytest.raises(UnknownEntityError):
            tiny_network.user_equipment(99)
        with pytest.raises(UnknownEntityError):
            tiny_network.service(99)

    def test_provider_of_ue(self, tiny_network):
        assert tiny_network.provider_of_ue(0).sp_id == 0

    def test_entities_of_sp(self, tiny_network):
        assert [bs.bs_id for bs in tiny_network.base_stations_of_sp(0)] == [0]
        assert [ue.ue_id for ue in tiny_network.user_equipments_of_sp(0)] == [0]
        assert tiny_network.user_equipments_of_sp(1) == ()

    def test_counts(self, tiny_network):
        assert tiny_network.sp_count == 2
        assert tiny_network.bs_count == 2
        assert tiny_network.ue_count == 1
        assert tiny_network.service_count == 2


class TestGeometryQueries:
    def test_distance_matches_positions(self, tiny_network):
        # UE 0 at (100, 0); BS 0 at (0, 0); BS 1 at (400, 0).
        assert tiny_network.distance_m(0, 0) == pytest.approx(100.0)
        assert tiny_network.distance_m(0, 1) == pytest.approx(300.0)

    def test_distance_unknown_entity(self, tiny_network):
        with pytest.raises(UnknownEntityError):
            tiny_network.distance_m(99, 0)
        with pytest.raises(UnknownEntityError):
            tiny_network.distance_m(0, 99)

    def test_covers_respects_radius(self):
        network = make_tiny_network(coverage_radius_m=150.0)
        assert network.covers(0, 0)  # 100 m <= 150 m
        assert not network.covers(1, 0)  # 300 m > 150 m

    def test_covering_base_stations(self, tiny_network):
        assert set(tiny_network.covering_base_stations(0)) == {0, 1}

    def test_same_sp(self, tiny_network):
        assert tiny_network.same_sp(0, 0)
        assert not tiny_network.same_sp(0, 1)


class TestCandidateSets:
    def test_candidates_require_coverage_and_service(self):
        # BS 1 does not host service 0 -> excluded despite coverage.
        network = make_tiny_network(
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0, 0)),
                dict(
                    bs_id=1,
                    sp_id=1,
                    position=Point(400, 0),
                    cru_capacity={1: 20},
                ),
            ]
        )
        assert network.candidate_base_stations(0) == (0,)

    def test_zero_cru_hosting_excluded(self):
        network = make_tiny_network(
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0, 0)),
                dict(
                    bs_id=1,
                    sp_id=1,
                    position=Point(400, 0),
                    cru_capacity={0: 0, 1: 20},
                ),
            ]
        )
        assert network.candidate_base_stations(0) == (0,)

    def test_out_of_coverage_ue_has_empty_candidates(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0, position=Point(1200.0, 1200.0))],
            coverage_radius_m=200.0,
        )
        assert network.candidate_base_stations(0) == ()

    def test_candidates_unknown_ue(self, tiny_network):
        with pytest.raises(UnknownEntityError):
            tiny_network.candidate_base_stations(42)

    def test_mean_coverage_degree(self, tiny_network):
        assert tiny_network.mean_coverage_degree() == pytest.approx(2.0)


class TestValidation:
    def base_args(self):
        return dict(
            providers=[ServiceProvider(sp_id=0)],
            services=[Service(0)],
            region=Rectangle.square(100.0),
        )

    def test_duplicate_ids_rejected(self):
        args = self.base_args()
        with pytest.raises(ConfigurationError, match="duplicate"):
            MECNetwork(
                base_stations=[
                    BaseStation(0, 0, Point(0, 0), {0: 10}),
                    BaseStation(0, 0, Point(1, 1), {0: 10}),
                ],
                user_equipments=[],
                **args,
            )

    def test_bs_with_unknown_sp_rejected(self):
        args = self.base_args()
        with pytest.raises(ConfigurationError, match="unknown SP"):
            MECNetwork(
                base_stations=[BaseStation(0, 7, Point(0, 0), {0: 10})],
                user_equipments=[],
                **args,
            )

    def test_bs_hosting_unknown_service_rejected(self):
        args = self.base_args()
        with pytest.raises(ConfigurationError, match="unknown service"):
            MECNetwork(
                base_stations=[BaseStation(0, 0, Point(0, 0), {5: 10})],
                user_equipments=[],
                **args,
            )

    def test_ue_with_unknown_sp_rejected(self):
        args = self.base_args()
        with pytest.raises(ConfigurationError, match="unknown SP"):
            MECNetwork(
                base_stations=[],
                user_equipments=[
                    UserEquipment(0, 7, Point(0, 0), 0, 3, 2e6)
                ],
                **args,
            )

    def test_ue_requesting_unknown_service_rejected(self):
        args = self.base_args()
        with pytest.raises(ConfigurationError, match="unknown service"):
            MECNetwork(
                base_stations=[],
                user_equipments=[
                    UserEquipment(0, 0, Point(0, 0), 9, 3, 2e6)
                ],
                **args,
            )

    @pytest.mark.parametrize("columns", [False, True], ids=["objects", "columns"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_ue_at_non_finite_position_rejected(self, bad, columns):
        ues = [
            UserEquipment(0, 0, Point(0, 0), 0, 3, 2e6),
            UserEquipment(1, 0, Point(5.0, bad), 0, 3, 2e6),
            UserEquipment(2, 0, Point(bad, 0), 0, 3, 2e6),
        ]
        with pytest.raises(ConfigurationError, match="UE 1 has a non-finite"):
            MECNetwork(
                base_stations=[BaseStation(0, 0, Point(0, 0), {0: 10})],
                user_equipments=UEColumns.of(ues) if columns else ues,
                **self.base_args(),
            )

    def test_bs_at_non_finite_position_rejected(self):
        with pytest.raises(ConfigurationError, match="BS 4 has a non-finite"):
            MECNetwork(
                base_stations=[
                    BaseStation(3, 0, Point(0, 0), {0: 10}),
                    BaseStation(4, 0, Point(np.nan, 0), {0: 10}),
                ],
                user_equipments=[UserEquipment(0, 0, Point(0, 0), 0, 3, 2e6)],
                **self.base_args(),
            )

    def test_non_positive_coverage_radius_rejected(self):
        args = self.base_args()
        with pytest.raises(ConfigurationError):
            MECNetwork(
                base_stations=[],
                user_equipments=[],
                coverage_radius_m=0.0,
                **args,
            )

    @pytest.mark.parametrize(
        "change",
        [
            dict(sp_id=7),  # unknown SP
            dict(service_id=99),  # unknown service
            dict(ue_id=0),  # the id of the batch's first UE
            dict(position=Point(np.nan, 0.0)),
            # Two faults: the constructor's order decides the message.
            dict(ue_id=0, sp_id=7),
            dict(service_id=99, position=Point(np.inf, 0.0)),
        ],
        ids=[
            "unknown_sp", "unknown_service", "duplicate_id", "nan_position",
            "duplicate_id_and_unknown_sp", "unknown_service_and_inf_position",
        ],
    )
    def test_batch_network_refuses_what_construction_refuses(self, change):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0), dict(ue_id=1, sp_id=1, service_id=1)]
        )
        builder = BatchNetworkBuilder(
            providers=network.providers,
            base_stations=network.base_stations,
            services=network.services,
            region=network.region,
            coverage_radius_m=network.coverage_radius_m,
        )
        first, second = network.user_equipments
        ues = [first, UserEquipment(**{
            "ue_id": 1, "sp_id": 1, "position": second.position,
            "service_id": 1, "cru_demand": 4, "rate_demand_bps": 2e6,
            **change,
        })]
        with pytest.raises(ConfigurationError) as constructed:
            MECNetwork(
                providers=network.providers,
                base_stations=network.base_stations,
                user_equipments=ues,
                services=network.services,
                region=network.region,
                coverage_radius_m=network.coverage_radius_m,
            )
        with pytest.raises(ConfigurationError) as batched:
            builder.network_for(ues)
        assert str(batched.value) == str(constructed.value)

    def test_describe_mentions_populations(self, tiny_network):
        text = tiny_network.describe()
        assert "2 SPs" in text
        assert "2 BSs" in text
        assert "1 UEs" in text


class TestCandidateMask:
    def test_mask_matches_candidate_sets(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0), dict(ue_id=1), dict(ue_id=2)]
        )
        mask = np.zeros((3, 2), dtype=bool)
        rows, cols, _ = network.candidate_pairs()
        mask[rows, cols] = True
        for ue in network.user_equipments:
            row = network.row_of_ue(ue.ue_id)
            from_mask = {
                bs.bs_id
                for bs in network.base_stations
                if mask[row, network.col_of_bs(bs.bs_id)]
            }
            assert from_mask == set(
                network.candidate_base_stations(ue.ue_id)
            )

    def test_candidate_pairs_are_read_only(self):
        network = make_tiny_network()
        _, cols, dists = network.candidate_pairs()
        with pytest.raises(ValueError):
            cols[0] = 1
        with pytest.raises(ValueError):
            dists[0] = 0.0

    def test_row_and_col_lookups_reject_unknown_ids(self):
        network = make_tiny_network()
        with pytest.raises(UnknownEntityError):
            network.row_of_ue(999)
        with pytest.raises(UnknownEntityError):
            network.col_of_bs(999)


class TestWithMovedUEs:
    def _fresh_equivalent(self, network):
        return MECNetwork(
            providers=network.providers,
            base_stations=network.base_stations,
            user_equipments=network.user_equipments,
            services=network.services,
            region=network.region,
            coverage_radius_m=network.coverage_radius_m,
        )

    def test_patched_network_matches_fresh_construction(self):
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=0, position=Point(100.0, 0.0)),
                dict(ue_id=1, position=Point(250.0, 0.0)),
                dict(ue_id=2, position=Point(380.0, 0.0)),
            ]
        )
        moved = network.with_moved_ues(
            {0: Point(390.0, 10.0), 2: Point(20.0, 5.0)}
        )
        fresh = self._fresh_equivalent(moved)
        for ue in fresh.user_equipments:
            assert moved.candidate_base_stations(
                ue.ue_id
            ) == fresh.candidate_base_stations(ue.ue_id)
            for bs in fresh.base_stations:
                assert moved.distance_m(ue.ue_id, bs.bs_id) == (
                    fresh.distance_m(ue.ue_id, bs.bs_id)
                )
        for got, want in zip(moved.candidate_pairs(), fresh.candidate_pairs()):
            assert got.tolist() == want.tolist()

    def test_positions_updated_only_for_moved(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0), dict(ue_id=1)]
        )
        target = Point(321.0, 12.0)
        moved = network.with_moved_ues({1: target})
        assert moved.user_equipment(1).position == target
        assert moved.user_equipment(0).position == (
            network.user_equipment(0).position
        )

    def test_shares_static_structure(self):
        network = make_tiny_network()
        moved = network.with_moved_ues({0: Point(10.0, 10.0)})
        assert moved.base_stations is network.base_stations
        assert moved.providers is network.providers
        assert moved.services is network.services

    def test_move_reuses_unmoved_objects(self):
        network = build_scenario(ScenarioConfig.paper(), 30, 2).network
        ues = network.user_equipments
        mover = ues[7]
        target = Point(mover.position.x + 40.0, mover.position.y)
        moved = network.with_moved_ues({mover.ue_id: target})
        for row, ue in enumerate(moved.user_equipments):
            if row == 7:
                assert ue.position == target and ue is not mover
            else:
                assert ue is ues[row]
            assert moved.user_equipment(ue.ue_id) is ue

    def test_move_of_a_column_built_network_builds_no_objects(self):
        network = build_scenario(ScenarioConfig.paper(), 30, 2).network
        assert "user_equipments" not in vars(network)  # built from columns
        ue_ids = network.ue_columns().ue_ids.tolist()
        looked_up = network.user_equipment(ue_ids[3])
        mover = network.user_equipment(ue_ids[7])
        target = Point(mover.position.x + 40.0, mover.position.y)
        moved = network.with_moved_ues({mover.ue_id: target})
        for net in (network, moved):
            assert "user_equipments" not in vars(net)
            assert set(net._ue_by_id) <= {ue_ids[3], ue_ids[7]}
        assert moved.user_equipment(ue_ids[3]) is looked_up
        assert moved.user_equipment(ue_ids[7]).position == target
        assert network.user_equipment(ue_ids[7]) is mover

    def test_empty_move_returns_self(self):
        network = make_tiny_network()
        assert network.with_moved_ues({}) is network

    def test_unknown_ue_rejected(self):
        network = make_tiny_network()
        with pytest.raises(UnknownEntityError):
            network.with_moved_ues({999: Point(0.0, 0.0)})

    def test_move_to_non_finite_position_rejected(self):
        network = make_tiny_network(ue_specs=[dict(ue_id=0), dict(ue_id=1)])
        with pytest.raises(ConfigurationError, match="UE 1 has a non-finite"):
            network.with_moved_ues(
                {0: Point(5.0, 5.0), 1: Point(np.nan, 5.0)}
            )

    def test_original_network_is_untouched(self):
        network = make_tiny_network()
        before = network.user_equipment(0).position
        pairs_before = [a.tolist() for a in network.candidate_pairs()]
        network.with_moved_ues({0: Point(599.0, 599.0)})
        assert network.user_equipment(0).position == before
        assert [a.tolist() for a in network.candidate_pairs()] == pairs_before
