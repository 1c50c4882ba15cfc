"""Unit tests for outcome metrics and the allocation runner."""

import dataclasses

import pytest

from repro.baselines.cloud_only import CloudOnlyAllocator
from repro.compute.cru import Grant, LedgerPool
from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.core.dmra import DMRAAllocator
from repro.econ.accounting import compute_profit
from repro.errors import AllocationError
from repro.model.network import MECNetwork
from repro.model.workload import WorkloadModel
from repro.radio.channel import RadioMap, build_radio_map
from repro.sim.metrics import compute_metrics
from repro.sim.runner import run_allocation
from repro.sim.scenario import Scenario, build_scenario


class TestComputeMetrics:
    def test_metrics_consistent_with_assignment(self, small_scenario):
        allocator = DMRAAllocator(pricing=small_scenario.pricing)
        assignment = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        metrics = compute_metrics(
            small_scenario.network, assignment, small_scenario.pricing
        )
        assert metrics.edge_served == assignment.edge_served_count
        assert metrics.cloud_forwarded == assignment.cloud_count
        assert metrics.ue_count == small_scenario.ue_count
        assert 0.0 <= metrics.same_sp_fraction <= 1.0
        assert 0.0 <= metrics.mean_cru_utilization <= 1.0
        assert 0.0 <= metrics.mean_rrb_utilization <= 1.0
        assert metrics.rounds == assignment.rounds

    def test_profit_matches_accounting(self, small_scenario):
        allocator = DMRAAllocator(pricing=small_scenario.pricing)
        assignment = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        metrics = compute_metrics(
            small_scenario.network, assignment, small_scenario.pricing
        )
        statement = compute_profit(
            small_scenario.network, assignment.grants, small_scenario.pricing
        )
        assert metrics.total_profit == pytest.approx(statement.total_profit)
        assert metrics.total_profit == pytest.approx(
            sum(metrics.profit_by_sp.values())
        )

    def test_forwarded_traffic_sums_cloud_demands(self, small_scenario):
        assignment = CloudOnlyAllocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        metrics = compute_metrics(
            small_scenario.network, assignment, small_scenario.pricing
        )
        expected = sum(
            ue.rate_demand_bps
            for ue in small_scenario.network.user_equipments
        )
        assert metrics.forwarded_traffic_bps == pytest.approx(expected)
        assert metrics.forwarded_crus == sum(
            ue.cru_demand for ue in small_scenario.network.user_equipments
        )
        assert metrics.edge_served_fraction == 0.0
        assert metrics.total_profit == 0.0

    def test_same_sp_fraction_counts_ownership(self, small_scenario):
        allocator = DMRAAllocator(pricing=small_scenario.pricing)
        assignment = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        metrics = compute_metrics(
            small_scenario.network, assignment, small_scenario.pricing
        )
        manual = sum(
            1
            for g in assignment.grants
            if small_scenario.network.same_sp(g.ue_id, g.bs_id)
        ) / len(assignment.grants)
        assert metrics.same_sp_fraction == pytest.approx(manual)


class TestRunAllocation:
    def test_outcome_fields(self, small_scenario):
        outcome = run_allocation(
            small_scenario, DMRAAllocator(pricing=small_scenario.pricing)
        )
        assert outcome.allocator_name == "dmra"
        assert outcome.scenario_seed == small_scenario.seed
        assert outcome.ue_count == small_scenario.ue_count
        assert outcome.wall_time_s >= 0.0

    def test_invalid_allocator_caught(self, small_scenario):
        class BrokenAllocator(Allocator):
            name = "broken"

            def allocate(self, network, radio_map):
                # Claims a grant that violates the CRU-amount rule.
                from repro.compute.cru import Grant

                ue = network.user_equipments[0]
                bad = Grant(
                    bs_id=network.candidate_base_stations(ue.ue_id)[0],
                    ue_id=ue.ue_id,
                    service_id=ue.service_id,
                    crus=ue.cru_demand + 1,
                    rrbs=1,
                )
                return Assignment.from_grants(
                    [bad], [u.ue_id for u in network.user_equipments]
                )

        with pytest.raises(AllocationError):
            run_allocation(small_scenario, BrokenAllocator())

    def test_static_path_builds_no_per_entity_objects(
        self, paper_config, monkeypatch
    ):
        """Scenario build, SoA match, validation and accounting stay
        columnar: no per-UE draw, no ``Grant``, no ``LedgerPool``."""
        expected = run_allocation(
            build_scenario(paper_config, 1100, 11),
            DMRAAllocator(rho=paper_config.rho, kernel="auto"),
        )

        def per_entity(*args, **kwargs):
            raise AssertionError("per-entity object on the static path")

        for name in ("draw_service", "draw_cru_demand", "draw_rate_demand_bps"):
            monkeypatch.setattr(WorkloadModel, name, per_entity)
        monkeypatch.setattr(Grant, "__init__", per_entity)
        monkeypatch.setattr(LedgerPool, "__init__", per_entity)
        scenario = build_scenario(paper_config, 1100, 11)
        outcome = run_allocation(
            scenario, DMRAAllocator(rho=paper_config.rho, kernel="auto")
        )
        assert outcome.assignment == expected.assignment
        assert outcome.metrics == expected.metrics
        assert 0 < outcome.metrics.edge_served < 1100

    def test_audit_makes_no_point_lookups(self, small_scenario, monkeypatch):
        """Validation and accounting read columns only: a per-grant
        ``RadioMap.link`` or ``MECNetwork.distance_m`` call would build the
        map's (ue, bs) hash index, which pins ~150 MB at 100k UEs."""
        config = small_scenario.config
        network = dataclasses.replace(small_scenario.network, geometry="grid")
        radio_map = build_radio_map(
            network, config.link_budget(), rate_model=config.rate_model_fn()
        )
        scenario = Scenario(
            config=config, network=network, radio_map=radio_map,
            seed=small_scenario.seed,
        )
        expected = run_allocation(
            small_scenario, DMRAAllocator(pricing=small_scenario.pricing)
        )

        class Replay(Allocator):
            """Hands back the assignment solved before the lookups broke."""

            name = "replay"

            def allocate(self, network, radio_map):
                return expected.assignment

        def point_lookup(*args, **kwargs):
            raise AssertionError("per-pair lookup on the audit path")

        monkeypatch.setattr(RadioMap, "link", point_lookup)
        monkeypatch.setattr(MECNetwork, "distance_m", point_lookup)
        outcome = run_allocation(scenario, Replay())
        assert network._geometry_mode == "grid"
        assert radio_map._pos is None
        assert outcome.metrics == expected.metrics
