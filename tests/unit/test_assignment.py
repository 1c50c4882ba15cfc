"""Unit tests for the Assignment result type and its TPM validation."""

import dataclasses

import pytest

from conftest import make_tiny_network
from repro.compute.cru import Grant
from repro.core.assignment import Assignment
from repro.errors import AllocationError
from repro.model.geometry import Point
from repro.radio.channel import RadioMap, build_radio_map
from repro.radio.sinr import LinkBudget


def grant_for(network, radio_map, ue_id, bs_id):
    ue = network.user_equipment(ue_id)
    return Grant(
        bs_id=bs_id,
        ue_id=ue_id,
        service_id=ue.service_id,
        crus=ue.cru_demand,
        rrbs=radio_map.link(ue_id, bs_id).rrbs_required,
    )


class TestConstruction:
    def test_duplicate_ue_grants_rejected(self):
        g = Grant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        h = Grant(bs_id=1, ue_id=0, service_id=0, crus=4, rrbs=1)
        with pytest.raises(AllocationError, match="Eq. 15"):
            Assignment(grants=(g, h), cloud_ue_ids=frozenset())

    def test_ue_cannot_be_both_served_and_forwarded(self):
        g = Grant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        with pytest.raises(AllocationError, match="both"):
            Assignment(grants=(g,), cloud_ue_ids=frozenset({0}))

    def test_queries(self, tiny_network, tiny_radio_map):
        g = grant_for(tiny_network, tiny_radio_map, 0, 0)
        assignment = Assignment(grants=(g,), cloud_ue_ids=frozenset(), rounds=3)
        assert assignment.serving_bs(0) == 0
        assert assignment.serving_bs(99) is None
        assert assignment.grant_of(0) == g
        assert assignment.grants_of_bs(0) == (g,)
        assert assignment.grants_of_bs(1) == ()
        assert assignment.edge_served_count == 1
        assert assignment.cloud_count == 0
        assert assignment.rounds == 3
        assert assignment.association_pairs() == ((0, 0),)

    def test_from_grants_forwards_the_rest(self):
        g = Grant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        assignment = Assignment.from_grants([g], all_ue_ids=[0, 1, 2])
        assert assignment.edge_served_ue_ids == {0}
        assert assignment.cloud_ue_ids == {1, 2}


class TestValidation:
    def test_valid_assignment_passes(self, tiny_network, tiny_radio_map):
        g = grant_for(tiny_network, tiny_radio_map, 0, 0)
        Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
            tiny_network, tiny_radio_map
        )

    def test_all_cloud_passes(self, tiny_network, tiny_radio_map):
        Assignment(grants=(), cloud_ue_ids=frozenset({0})).validate(
            tiny_network, tiny_radio_map
        )

    def test_missing_ue_detected(self, tiny_network, tiny_radio_map):
        assignment = Assignment(grants=(), cloud_ue_ids=frozenset())
        with pytest.raises(AllocationError, match="neither served"):
            assignment.validate(tiny_network, tiny_radio_map)

    def test_unknown_ue_detected(self, tiny_network, tiny_radio_map):
        assignment = Assignment(grants=(), cloud_ue_ids=frozenset({0, 77}))
        with pytest.raises(AllocationError, match="unknown UEs"):
            assignment.validate(tiny_network, tiny_radio_map)

    def test_wrong_service_detected(self, tiny_network, tiny_radio_map):
        g = Grant(bs_id=0, ue_id=0, service_id=1, crus=4, rrbs=1)
        with pytest.raises(AllocationError, match="requests service"):
            Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
                tiny_network, tiny_radio_map
            )

    def test_unhosted_service_detected(self, tiny_radio_map):
        network = make_tiny_network(
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0, 0), cru_capacity={1: 20}),
                dict(bs_id=1, sp_id=1, position=Point(400, 0)),
            ]
        )
        radio_map = build_radio_map(network, LinkBudget())
        g = Grant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        with pytest.raises(AllocationError, match="Eq. 13"):
            Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
                network, radio_map
            )

    def test_out_of_coverage_detected(self):
        network = make_tiny_network(coverage_radius_m=150.0)
        radio_map = build_radio_map(network, LinkBudget())
        g = Grant(bs_id=1, ue_id=0, service_id=0, crus=4, rrbs=1)
        with pytest.raises(AllocationError, match="cover"):
            Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
                network, radio_map
            )

    def test_wrong_cru_amount_detected(self, tiny_network, tiny_radio_map):
        good = grant_for(tiny_network, tiny_radio_map, 0, 0)
        bad = Grant(
            bs_id=good.bs_id,
            ue_id=good.ue_id,
            service_id=good.service_id,
            crus=good.crus + 1,
            rrbs=good.rrbs,
        )
        with pytest.raises(AllocationError, match="CRUs"):
            Assignment(grants=(bad,), cloud_ue_ids=frozenset()).validate(
                tiny_network, tiny_radio_map
            )

    def test_wrong_rrb_amount_detected(self, tiny_network, tiny_radio_map):
        good = grant_for(tiny_network, tiny_radio_map, 0, 0)
        bad = Grant(
            bs_id=good.bs_id,
            ue_id=good.ue_id,
            service_id=good.service_id,
            crus=good.crus,
            rrbs=good.rrbs + 1,
        )
        with pytest.raises(AllocationError, match="RRBs"):
            Assignment(grants=(bad,), cloud_ue_ids=frozenset()).validate(
                tiny_network, tiny_radio_map
            )

    def test_unknown_bs_is_an_allocation_error(self, tiny_network, tiny_radio_map):
        g = Grant(bs_id=9, ue_id=0, service_id=0, crus=4, rrbs=1)
        with pytest.raises(AllocationError, match="UE 0 was granted unknown BS 9"):
            Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
                tiny_network, tiny_radio_map
            )

    def test_link_missing_from_radio_map_is_an_allocation_error(
        self, tiny_network, tiny_radio_map
    ):
        # BS 0 covers UE 0 and hosts its service, but the map lacks the link.
        g = grant_for(tiny_network, tiny_radio_map, 0, 0)
        radio_map = RadioMap.from_links(
            m for m in tiny_radio_map if (m.ue_id, m.bs_id) != (0, 0)
        )
        with pytest.raises(AllocationError, match="radio map has no such link"):
            Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
                tiny_network, radio_map
            )

    def test_duplicated_link_checks_against_the_one_link_returns(
        self, tiny_network, tiny_radio_map
    ):
        link = tiny_radio_map.link(0, 0)
        again = dataclasses.replace(link, rrbs_required=link.rrbs_required + 2)
        radio_map = RadioMap.from_links(list(tiny_radio_map) + [again])
        g = grant_for(tiny_network, radio_map, 0, 0)
        assert g.rrbs == again.rrbs_required
        Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
            tiny_network, radio_map
        )

    @pytest.mark.parametrize(
        "bs_id, service_id, crus, rrbs, first_failure",
        [
            (9, 1, 5, 99, "unknown BS 9"),
            (1, 1, 5, 99, "requests service 0"),
            (1, 0, 5, 99, "does not host service 0"),
            (2, 0, 5, 99, "does not cover UE 0"),
            (0, 0, 5, 99, "granted 5 CRUs"),
            (0, 0, 4, 99, "granted 99 RRBs"),
        ],
    )
    def test_a_grant_reports_its_first_failing_check(
        self, bs_id, service_id, crus, rrbs, first_failure
    ):
        # UE 0 (service 0, 4 CRUs) at x=100: BS 0 covers it and hosts
        # service 0, BS 1 does neither, BS 2 hosts it out of coverage.
        network = make_tiny_network(
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0, 0)),
                dict(bs_id=1, sp_id=1, position=Point(400, 0),
                     cru_capacity={1: 20}),
                dict(bs_id=2, sp_id=1, position=Point(800, 0)),
            ],
            coverage_radius_m=150.0,
        )
        radio_map = build_radio_map(network, LinkBudget())
        g = Grant(
            bs_id=bs_id, ue_id=0, service_id=service_id, crus=crus, rrbs=rrbs
        )
        with pytest.raises(AllocationError, match=first_failure):
            Assignment(grants=(g,), cloud_ue_ids=frozenset()).validate(
                network, radio_map
            )

    def test_lowest_failing_grant_is_reported(self):
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=i, position=Point(50.0 + i, 0.0)) for i in range(3)
            ]
        )
        radio_map = build_radio_map(network, LinkBudget())
        good = [grant_for(network, radio_map, i, 0) for i in range(3)]
        bad_rrbs = dataclasses.replace(good[1], rrbs=good[1].rrbs + 1)
        bad_service = dataclasses.replace(good[2], service_id=1)
        with pytest.raises(AllocationError, match="UE 1 on BS 0: granted"):
            Assignment(
                grants=(good[0], bad_rrbs, bad_service),
                cloud_ue_ids=frozenset(),
            ).validate(network, radio_map)

    def test_cru_capacity_overflow_detected(self):
        # 3 UEs x 8 CRUs = 24 > the BS's 20-CRU pool for service 0.
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=i, cru_demand=8, position=Point(50.0 + i, 0.0))
                for i in range(3)
            ]
        )
        radio_map = build_radio_map(network, LinkBudget())
        grants = tuple(grant_for(network, radio_map, i, 0) for i in range(3))
        with pytest.raises(AllocationError, match="Eq. 12"):
            Assignment(grants=grants, cloud_ue_ids=frozenset()).validate(
                network, radio_map
            )

    def test_rrb_capacity_overflow_detected(self):
        # Many high-rate UEs on a tiny 3-RRB budget.
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=i, rate_demand_bps=6e6, position=Point(40.0 + i, 0.0))
                for i in range(4)
            ],
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0, 0), rrb_capacity=3),
                dict(bs_id=1, sp_id=1, position=Point(400, 0)),
            ],
        )
        radio_map = build_radio_map(network, LinkBudget())
        grants = tuple(grant_for(network, radio_map, i, 0) for i in range(4))
        with pytest.raises(AllocationError, match="Eq. 14"):
            Assignment(grants=grants, cloud_ue_ids=frozenset()).validate(
                network, radio_map
            )
