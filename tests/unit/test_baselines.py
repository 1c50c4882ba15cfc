"""Unit tests for the baseline allocators (DCSP, NonCo, greedy, random,
cloud-only, ILP)."""

from unittest import mock

import pytest

from conftest import make_tiny_network
from repro.baselines.cloud_only import CloudOnlyAllocator
from repro.baselines.dcsp import DCSPAllocator
from repro.baselines.greedy import GreedyProfitAllocator
from repro.baselines.nonco import NonCoAllocator
from repro.baselines.optimal import OptimalILPAllocator
from repro.baselines.random_alloc import RandomAllocator
from repro.econ.accounting import compute_profit
from repro.econ.pricing import PaperPricing
from repro.errors import ConfigurationError
from repro.model.geometry import Point
from repro.radio import channel
from repro.radio.channel import build_radio_map
from repro.radio.sinr import LinkBudget
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

PRICING = PaperPricing(base_price=1.0, cross_sp_markup=2.0, distance_weight=0.01)


def run(allocator, network):
    radio_map = build_radio_map(network, LinkBudget())
    assignment = allocator.allocate(network, radio_map)
    assignment.validate(network, radio_map)
    return assignment


class TestDCSP:
    def test_picks_least_occupied_bs(self):
        """With one BS pre-loaded (smaller CRU pool left), a lone UE goes
        to the emptier one even though it is farther."""
        network = make_tiny_network(
            ue_specs=[
                # UE 0 fills most of BS 0's service-0 pool first (closer).
                dict(ue_id=0, cru_demand=18, position=Point(50.0, 0.0)),
                dict(ue_id=1, cru_demand=4, position=Point(200.0, 0.0)),
            ]
        )
        assignment = run(DCSPAllocator(), network)
        assert assignment.serving_bs(0) == 0
        assert assignment.serving_bs(1) == 1  # emptier despite equal distance

    def test_serves_everyone_when_space_exists(self, small_scenario):
        assignment = DCSPAllocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assignment.validate(small_scenario.network, small_scenario.radio_map)
        assert assignment.cloud_count == 0

    def test_deterministic(self, small_scenario):
        a = DCSPAllocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        b = DCSPAllocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assert a.association_pairs() == b.association_pairs()


class TestNonCo:
    def test_ue_goes_to_max_sinr_bs_only(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0, position=Point(300.0, 0.0))]
        )
        # BS 1 at 100 m beats BS 0 at 300 m on SINR.
        assignment = run(NonCoAllocator(), network)
        assert assignment.serving_bs(0) == 1

    def test_no_fallback_to_second_choice(self):
        """NonCo's defining behaviour: overflow goes to the cloud even
        when another BS has room."""
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=0, cru_demand=15, position=Point(100.0, 0.0)),
                dict(ue_id=1, cru_demand=15, position=Point(110.0, 0.0)),
            ]
        )
        assignment = run(NonCoAllocator(), network)
        # Both UEs nominate BS 0 (nearest); only one fits its 20-CRU pool.
        assert assignment.edge_served_count == 1
        assert assignment.cloud_count == 1
        assert assignment.grants_of_bs(1) == ()

    def test_bs_admits_cheapest_rrb_first(self):
        """When the RRB budget covers only one UE, the lower-rate UE (which
        needs fewer RRBs) wins regardless of arrival order."""
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=0, rate_demand_bps=6e6, position=Point(100.0, 0.0)),
                dict(
                    ue_id=1,
                    rate_demand_bps=2e6,
                    position=Point(140.0, 0.0),
                    service_id=1,
                ),
            ],
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0, 0), rrb_capacity=1),
                dict(bs_id=1, sp_id=1, position=Point(2000, 0)),
            ],
            coverage_radius_m=500.0,
        )
        assignment = run(NonCoAllocator(), network)
        assert assignment.serving_bs(1) == 0
        assert assignment.cloud_ue_ids == {0}

    def test_uncovered_ue_forwarded(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0, position=Point(1199.0, 1199.0))],
            coverage_radius_m=100.0,
        )
        assignment = run(NonCoAllocator(), network)
        assert assignment.cloud_ue_ids == {0}


class TestGreedy:
    def test_takes_most_profitable_assignment(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0, sp_id=0, position=Point(200.0, 0.0))]
        )
        assignment = run(GreedyProfitAllocator(pricing=PRICING), network)
        # Equal distance; the same-SP BS yields the larger margin.
        assert assignment.serving_bs(0) == 0

    def test_respects_capacity(self):
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=i, cru_demand=15, position=Point(100.0 + i, 0.0))
                for i in range(3)
            ]
        )
        assignment = run(GreedyProfitAllocator(pricing=PRICING), network)
        assert assignment.edge_served_count == 2
        assert assignment.cloud_count == 1


class TestRandom:
    def test_seed_reproducibility(self, small_scenario):
        a = RandomAllocator(seed=5).allocate(
            small_scenario.network, small_scenario.radio_map
        )
        b = RandomAllocator(seed=5).allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assert a.association_pairs() == b.association_pairs()

    def test_different_seeds_differ(self, small_scenario):
        a = RandomAllocator(seed=1).allocate(
            small_scenario.network, small_scenario.radio_map
        )
        b = RandomAllocator(seed=2).allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assert a.association_pairs() != b.association_pairs()

    def test_result_is_valid(self, small_scenario):
        assignment = RandomAllocator(seed=3).allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assignment.validate(small_scenario.network, small_scenario.radio_map)


class TestCloudOnly:
    def test_everything_forwarded(self, small_scenario):
        assignment = CloudOnlyAllocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assignment.validate(small_scenario.network, small_scenario.radio_map)
        assert assignment.edge_served_count == 0
        assert assignment.cloud_count == small_scenario.ue_count

    def test_zero_profit(self, small_scenario):
        assignment = CloudOnlyAllocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        statement = compute_profit(
            small_scenario.network, assignment.grants, PRICING
        )
        assert statement.total_profit == 0.0


class TestOptimalILP:
    def test_beats_or_matches_heuristics(self, small_scenario):
        pricing = small_scenario.pricing
        ilp = OptimalILPAllocator(pricing=pricing).allocate(
            small_scenario.network, small_scenario.radio_map
        )
        ilp.validate(small_scenario.network, small_scenario.radio_map)
        ilp_profit = compute_profit(
            small_scenario.network, ilp.grants, pricing
        ).total_profit
        for allocator in (
            GreedyProfitAllocator(pricing=pricing),
            NonCoAllocator(),
            DCSPAllocator(),
        ):
            other = allocator.allocate(
                small_scenario.network, small_scenario.radio_map
            )
            other_profit = compute_profit(
                small_scenario.network, other.grants, pricing
            ).total_profit
            assert ilp_profit >= other_profit - 1e-6

    def test_variable_guard(self, small_scenario):
        allocator = OptimalILPAllocator(max_variables=10)
        with pytest.raises(ConfigurationError, match="guard"):
            allocator.allocate(
                small_scenario.network, small_scenario.radio_map
            )

    def test_default_guard_refuses_a_large_instance(self):
        """8,000 paper-config UEs have 59,894 feasible links, past the
        default 50,000-variable guard: the ILP refuses before it builds
        a model (HiGHS accepts 6,000 UEs' 44,932 and takes seconds),
        and before it materializes a single ``LinkMetrics``."""
        scenario = build_scenario(ScenarioConfig.paper(), 8000, 1)
        allocator = OptimalILPAllocator(pricing=scenario.pricing)
        with mock.patch.object(
            channel, "LinkMetrics", wraps=channel.LinkMetrics
        ) as made, pytest.raises(
            ConfigurationError, match="59894 candidate links exceed the "
            "50000-variable ILP guard"
        ):
            allocator.allocate(scenario.network, scenario.radio_map)
        assert made.call_count == 0

    def test_invalid_guard_value(self):
        with pytest.raises(ConfigurationError):
            OptimalILPAllocator(max_variables=0)

    def test_empty_network(self):
        network = make_tiny_network(ue_specs=[])
        assignment = run(OptimalILPAllocator(pricing=PRICING), network)
        assert assignment.edge_served_count == 0


class TestAuction:
    def _allocator(self, **kwargs):
        from repro.baselines.auction import AuctionAllocator

        return AuctionAllocator(pricing=PRICING, **kwargs)

    def test_valid_assignment_on_tiny_network(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0), dict(ue_id=1), dict(ue_id=2)]
        )
        assignment = run(self._allocator(), network)
        assert assignment.edge_served_count >= 1

    def test_contention_raises_asks_until_cleared(self):
        """Two UEs fighting over one CRU slot: the auction terminates
        with exactly one winner and the loser at its next-best option."""
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=0, cru_demand=20),
                dict(ue_id=1, cru_demand=20),
            ]
        )
        assignment = run(self._allocator(), network)
        # 20-CRU demands cannot share one 20-CRU pool per BS.
        by_bs = {}
        for grant in assignment.grants:
            by_bs.setdefault(grant.bs_id, []).append(grant.ue_id)
        assert all(len(ues) == 1 for ues in by_bs.values())

    def test_deterministic(self, small_scenario):
        a = self._allocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        b = self._allocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assert sorted(a.association_pairs()) == sorted(b.association_pairs())

    def test_ilp_dominates_auction(self, small_scenario):
        auction = self._allocator().allocate(
            small_scenario.network, small_scenario.radio_map
        )
        ilp = OptimalILPAllocator(
            pricing=small_scenario.pricing
        ).allocate(small_scenario.network, small_scenario.radio_map)
        auction_profit = compute_profit(
            small_scenario.network, auction.grants, small_scenario.pricing
        ).total_profit
        ilp_profit = compute_profit(
            small_scenario.network, ilp.grants, small_scenario.pricing
        ).total_profit
        assert ilp_profit >= auction_profit - 1e-6
        # Profits are evaluated under posted paper prices, so internal
        # ask escalation never inflates the reported objective.
        assert auction_profit >= 0.0

    def test_parameter_validation(self):
        from repro.baselines.auction import AuctionAllocator
        from repro.errors import AllocationError

        with pytest.raises(AllocationError):
            AuctionAllocator(price_increment=0.0)
        with pytest.raises(AllocationError):
            AuctionAllocator(max_rounds=0)


class TestPotentialGame:
    def test_zero_load_weight_is_plain_best_response(self, small_scenario):
        from repro.baselines.best_response import BestResponseAllocator

        plain = BestResponseAllocator(
            pricing=small_scenario.pricing
        ).allocate(small_scenario.network, small_scenario.radio_map)
        weighted_off = BestResponseAllocator(
            pricing=small_scenario.pricing, load_weight=0.0
        ).allocate(small_scenario.network, small_scenario.radio_map)
        assert sorted(plain.association_pairs()) == sorted(
            weighted_off.association_pairs()
        )

    def test_load_weight_names_the_allocator(self):
        from repro.baselines.best_response import BestResponseAllocator

        assert BestResponseAllocator().name == "best-response"
        assert (
            BestResponseAllocator(load_weight=1.0).name == "potential-game"
        )

    def test_congestion_spreads_load(self):
        """With a congestion penalty, identical UEs spread across BSs
        instead of piling onto the cheapest one."""
        from repro.baselines.best_response import BestResponseAllocator

        network = make_tiny_network(
            ue_specs=[dict(ue_id=i, cru_demand=2) for i in range(6)],
            bs_specs=[
                dict(bs_id=0, sp_id=0, position=Point(0.0, 0.0)),
                dict(bs_id=1, sp_id=0, position=Point(10.0, 0.0)),
            ],
        )
        spread = run(
            BestResponseAllocator(pricing=PRICING, load_weight=5.0), network
        )
        occupancy = {}
        for grant in spread.grants:
            occupancy[grant.bs_id] = occupancy.get(grant.bs_id, 0) + 1
        # Near-equidistant BSs with a strong congestion term: both carry
        # load instead of one winner-takes-all.
        assert len(occupancy) == 2

    def test_negative_load_weight_rejected(self):
        from repro.baselines.best_response import BestResponseAllocator
        from repro.errors import AllocationError

        with pytest.raises(AllocationError):
            BestResponseAllocator(load_weight=-0.5)

    def test_ilp_dominates_potential_game(self, small_scenario):
        from repro.baselines.best_response import BestResponseAllocator

        game = BestResponseAllocator(
            pricing=small_scenario.pricing, load_weight=1.0
        ).allocate(small_scenario.network, small_scenario.radio_map)
        ilp = OptimalILPAllocator(
            pricing=small_scenario.pricing
        ).allocate(small_scenario.network, small_scenario.radio_map)
        game_profit = compute_profit(
            small_scenario.network, game.grants, small_scenario.pricing
        ).total_profit
        ilp_profit = compute_profit(
            small_scenario.network, ilp.grants, small_scenario.pricing
        ).total_profit
        assert ilp_profit >= game_profit - 1e-6
