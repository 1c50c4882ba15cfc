"""Unit tests for UE workload generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.model.geometry import Point
from repro.model.workload import WorkloadModel, generate_user_equipments


class TestWorkloadModel:
    def test_paper_defaults(self):
        model = WorkloadModel()
        assert model.cru_demand_min == 3
        assert model.cru_demand_max == 5
        assert model.rate_demand_min_bps == 2e6
        assert model.rate_demand_max_bps == 6e6
        assert model.tx_power_dbm == 10.0

    def test_cru_draws_within_inclusive_bounds(self, rng):
        model = WorkloadModel()
        draws = {model.draw_cru_demand(rng) for _ in range(500)}
        assert draws == {3, 4, 5}

    def test_rate_draws_within_bounds(self, rng):
        model = WorkloadModel()
        for _ in range(200):
            rate = model.draw_rate_demand_bps(rng)
            assert 2e6 <= rate <= 6e6

    def test_uniform_service_draws_cover_catalog(self, rng):
        model = WorkloadModel()
        draws = {model.draw_service(6, rng) for _ in range(500)}
        assert draws == set(range(6))

    def test_service_popularity_skews_draws(self, rng):
        model = WorkloadModel(service_popularity=(1.0, 0.0, 0.0))
        draws = {model.draw_service(3, rng) for _ in range(100)}
        assert draws == {0}

    def test_popularity_length_mismatch_rejected(self, rng):
        model = WorkloadModel(service_popularity=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            model.draw_service(6, rng)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadModel(cru_demand_min=0)
        with pytest.raises(ConfigurationError):
            WorkloadModel(cru_demand_min=5, cru_demand_max=3)
        with pytest.raises(ConfigurationError):
            WorkloadModel(rate_demand_min_bps=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadModel(rate_demand_min_bps=6e6, rate_demand_max_bps=2e6)
        with pytest.raises(ConfigurationError):
            WorkloadModel(service_popularity=(-1.0, 2.0))
        with pytest.raises(ConfigurationError):
            WorkloadModel(service_popularity=())

    def test_invalid_service_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            WorkloadModel().draw_service(0, rng)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bounds_rejected(self, bad):
        """NaN and infinite bounds fail at construction, not at the
        first draw (where NumPy raised its own ValueError or
        OverflowError, and a bulk decode would yield NaN demands)."""
        with pytest.raises(ConfigurationError, match="rate demand range"):
            WorkloadModel(rate_demand_max_bps=bad)
        with pytest.raises(ConfigurationError, match="rate demand range"):
            WorkloadModel(rate_demand_min_bps=bad)
        with pytest.raises(ConfigurationError, match="CRU demand range"):
            WorkloadModel(cru_demand_max=bad)
        with pytest.raises(ConfigurationError, match="service_popularity"):
            WorkloadModel(service_popularity=(bad, 1.0, 1.0))


class TestGenerateUserEquipments:
    def positions(self, count=10):
        return [Point(float(i), 0.0) for i in range(count)]

    def test_generates_one_ue_per_position(self, rng):
        ues = generate_user_equipments(
            self.positions(10), sp_count=5, service_count=6,
            workload=WorkloadModel(), rng=rng,
        )
        assert len(ues) == 10
        assert [ue.ue_id for ue in ues] == list(range(10))
        assert [ue.position for ue in ues] == self.positions(10)

    def test_start_id_offset(self, rng):
        ues = generate_user_equipments(
            self.positions(3), sp_count=2, service_count=2,
            workload=WorkloadModel(), rng=rng, start_ue_id=100,
        )
        assert [ue.ue_id for ue in ues] == [100, 101, 102]

    def test_fields_within_distributions(self, rng):
        ues = generate_user_equipments(
            self.positions(200), sp_count=5, service_count=6,
            workload=WorkloadModel(), rng=rng,
        )
        assert {ue.sp_id for ue in ues} == set(range(5))
        assert {ue.service_id for ue in ues} == set(range(6))
        assert all(3 <= ue.cru_demand <= 5 for ue in ues)
        assert all(2e6 <= ue.rate_demand_bps <= 6e6 for ue in ues)

    def test_seed_determinism(self):
        kwargs = dict(
            positions=self.positions(20), sp_count=5, service_count=6,
            workload=WorkloadModel(),
        )
        a = generate_user_equipments(rng=np.random.default_rng(1), **kwargs)
        b = generate_user_equipments(rng=np.random.default_rng(1), **kwargs)
        assert a == b

    def test_invalid_sp_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            generate_user_equipments(
                self.positions(1), sp_count=0, service_count=6,
                workload=WorkloadModel(), rng=rng,
            )
