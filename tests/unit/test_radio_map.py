"""Unit tests for the precomputed radio map."""

import math

import pytest

from conftest import make_tiny_network
from oracles.radio_map import build_radio_map_reference
from repro.errors import UnknownEntityError
from repro.model.geometry import Point
from repro.radio.channel import build_radio_map
from repro.radio.ofdma import per_rrb_rate_bps, rrbs_required
from repro.radio.sinr import LinkBudget


class TestBuildRadioMap:
    def test_contains_exactly_candidate_links(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        assert len(radio_map) == 2  # UE 0 reaches both BSs
        assert radio_map.has_link(0, 0)
        assert radio_map.has_link(0, 1)

    def test_non_candidate_pairs_absent(self):
        network = make_tiny_network(coverage_radius_m=150.0)
        radio_map = build_radio_map(network, LinkBudget())
        assert radio_map.has_link(0, 0)
        assert not radio_map.has_link(0, 1)  # 300 m > 150 m radius
        with pytest.raises(UnknownEntityError):
            radio_map.link(0, 1)

    def test_metrics_match_manual_chain(self, tiny_network):
        budget = LinkBudget()
        radio_map = build_radio_map(tiny_network, budget)
        ue = tiny_network.user_equipment(0)
        link = radio_map.link(0, 0)
        distance = tiny_network.distance_m(0, 0)
        sinr = budget.sinr(distance, ue.tx_power_dbm)
        rate = per_rrb_rate_bps(budget.rrb_bandwidth_hz, sinr)
        assert link.distance_m == pytest.approx(distance)
        assert link.sinr_linear == pytest.approx(sinr)
        assert link.per_rrb_rate_bps == pytest.approx(rate)
        assert link.rrbs_required == rrbs_required(ue.rate_demand_bps, rate)

    def test_nearer_bs_needs_no_more_rrbs(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        near = radio_map.link(0, 0)  # 100 m
        far = radio_map.link(0, 1)  # 300 m
        assert near.rrbs_required <= far.rrbs_required
        assert near.sinr_linear > far.sinr_linear

    def test_links_of_ue(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        links = radio_map.links_of_ue(0)
        assert {link.bs_id for link in links} == {0, 1}
        assert all(link.ue_id == 0 for link in links)

    def test_iteration_yields_all_links(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        assert len(list(radio_map)) == len(radio_map)

    def test_feasible_flag(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        assert all(link.feasible for link in radio_map)

    def test_paper_regime_needs_few_rrbs(self, small_scenario):
        """With the paper's parameters every link needs only a handful of
        RRBs (high-SNR regime; see DESIGN.md §3)."""
        demands = [link.rrbs_required for link in small_scenario.radio_map]
        assert max(demands) <= 4
        assert min(demands) >= 1

    def test_dead_link_marked_over_budget(self):
        """A UE far outside practical range gets a demand exceeding N_i."""
        network = make_tiny_network(
            ue_specs=[
                dict(
                    ue_id=0,
                    position=Point(0.0, 550.0),
                    rate_demand_bps=6e6,
                    tx_power_dbm=-100.0,  # absurdly weak transmitter
                )
            ],
            coverage_radius_m=600.0,
        )
        radio_map = build_radio_map(network, LinkBudget())
        link = radio_map.link(0, 0)
        bs = network.base_station(0)
        # Either the rate is truly zero (capped demand) or enormous demand.
        assert (
            link.rrbs_required > bs.rrb_capacity
            or link.per_rrb_rate_bps > 0
        )
        assert math.isfinite(link.per_rrb_rate_bps)


class TestColumnarLayout:
    def test_columns_align_with_links(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        for index in range(len(radio_map)):
            link = radio_map.link(
                int(radio_map.ue_ids[index]), int(radio_map.bs_ids[index])
            )
            assert link.distance_m == radio_map.distances_m[index]
            assert link.sinr_linear == radio_map.sinrs_linear[index]
            assert link.per_rrb_rate_bps == radio_map.per_rrb_rates_bps[index]
            assert link.rrbs_required == radio_map.rrb_demands[index]

    def test_columns_are_read_only(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        with pytest.raises(ValueError):
            radio_map.rrb_demands[0] = 99

    def test_links_grouped_by_ue(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=7), dict(ue_id=3), dict(ue_id=5)]
        )
        radio_map = build_radio_map(network, LinkBudget())
        ue_column = radio_map.ue_ids.tolist()
        # All of one UE's links are contiguous, in network UE order.
        assert ue_column == sorted(
            ue_column, key=lambda uid: [7, 3, 5].index(uid)
        )

    def test_link_metrics_are_cached_views(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        assert radio_map.link(0, 0) is radio_map.link(0, 0)

    def test_links_of_ue_uses_per_ue_index(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0), dict(ue_id=1), dict(ue_id=2)]
        )
        radio_map = build_radio_map(network, LinkBudget())
        for uid in (0, 1, 2):
            links = radio_map.links_of_ue(uid)
            assert {link.bs_id for link in links} == {0, 1}
            assert all(link.ue_id == uid for link in links)
        assert radio_map.links_of_ue(999) == ()


class TestZeroRatePinning:
    def test_zero_rate_pinned_to_capacity_plus_one(self):
        network = make_tiny_network()

        def dead_rate(bandwidth_hz, sinr):
            """A rate model that declares every link out of range."""
            return 0.0

        radio_map = build_radio_map(
            network, LinkBudget(), rate_model=dead_rate
        )
        for link in radio_map:
            capacity = network.base_station(link.bs_id).rrb_capacity
            assert link.rrbs_required == capacity + 1
            assert not link.feasible

    def test_reference_builder_pins_identically(self):
        network = make_tiny_network()

        def dead_rate(bandwidth_hz, sinr):
            """A rate model that declares every link out of range."""
            return 0.0

        vec = build_radio_map(network, LinkBudget(), rate_model=dead_rate)
        ref = build_radio_map_reference(
            network, LinkBudget(), rate_model=dead_rate
        )
        assert [m.rrbs_required for m in vec] == [
            m.rrbs_required for m in ref
        ]


class TestReferenceParity:
    def _assert_maps_agree(self, vec, ref):
        assert len(vec) == len(ref)
        ref_by_pair = {(m.ue_id, m.bs_id): m for m in ref}
        for link in vec:
            other = ref_by_pair[(link.ue_id, link.bs_id)]
            assert link.rrbs_required == other.rrbs_required
            assert link.distance_m == pytest.approx(
                other.distance_m, rel=1e-9
            )
            assert link.sinr_linear == pytest.approx(
                other.sinr_linear, rel=1e-9
            )
            assert link.per_rrb_rate_bps == pytest.approx(
                other.per_rrb_rate_bps, rel=1e-9
            )

    def test_vectorized_matches_reference_on_seeded_scenario(
        self, small_scenario
    ):
        config = small_scenario.config
        budget = config.link_budget()
        vec = build_radio_map(
            small_scenario.network, budget, rate_model=config.rate_model_fn()
        )
        ref = build_radio_map_reference(
            small_scenario.network, budget, rate_model=config.rate_model_fn()
        )
        self._assert_maps_agree(vec, ref)

    def test_unregistered_rate_model_falls_back_elementwise(
        self, tiny_network
    ):
        def halved_shannon(bandwidth_hz, sinr):
            """A custom model with no registered array twin."""
            return 0.5 * per_rrb_rate_bps(bandwidth_hz, sinr)

        vec = build_radio_map(
            tiny_network, LinkBudget(), rate_model=halved_shannon
        )
        ref = build_radio_map_reference(
            tiny_network, LinkBudget(), rate_model=halved_shannon
        )
        self._assert_maps_agree(vec, ref)


class TestIncrementalUpdate:
    def test_partial_update_matches_fresh_build(self):
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=0, position=Point(100.0, 0.0)),
                dict(ue_id=1, position=Point(250.0, 0.0)),
                dict(ue_id=2, position=Point(380.0, 0.0)),
            ]
        )
        budget = LinkBudget()
        radio_map = build_radio_map(network, budget)
        moved_network = network.with_moved_ues({1: Point(50.0, 20.0)})
        patched = radio_map.with_updated_ues(moved_network, budget, [1])
        fresh = build_radio_map(moved_network, budget)
        assert len(patched) == len(fresh)
        for link in fresh:
            got = patched.link(link.ue_id, link.bs_id)
            assert got == link

    def test_unmoved_metrics_objects_are_reused(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0), dict(ue_id=1, position=Point(300.0, 0.0))]
        )
        budget = LinkBudget()
        radio_map = build_radio_map(network, budget)
        before = radio_map.link(0, 0)
        moved = network.with_moved_ues({1: Point(310.0, 0.0)})
        patched = radio_map.with_updated_ues(moved, budget, [1])
        assert patched.link(0, 0) is before

    def test_empty_update_returns_self(self, tiny_network):
        radio_map = build_radio_map(tiny_network, LinkBudget())
        assert radio_map.with_updated_ues(
            tiny_network, LinkBudget(), []
        ) is radio_map

    def test_all_moved_update_matches_fresh_build(self, tiny_network):
        budget = LinkBudget()
        radio_map = build_radio_map(tiny_network, budget)
        moved = tiny_network.with_moved_ues({0: Point(42.0, 17.0)})
        patched = radio_map.with_updated_ues(moved, budget, [0])
        fresh = build_radio_map(moved, budget)
        assert [m for m in patched] == [m for m in fresh]
