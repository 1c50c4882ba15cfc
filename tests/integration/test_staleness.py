"""Integration tests for the stale-broadcast (gossip-delay) ablation.

A real deployment's resource broadcasts arrive late.  These tests pin
the reproduction's robustness result: DMRA under stale information
still terminates, still satisfies every constraint, and loses almost
nothing in allocation quality — the cost of staleness is extra rounds.
A delay of d rounds is a ``repro.dist`` fault plan that holds every
broadcast exactly d rounds (``stale_broadcast_plan``), run on the
in-process transport.
"""

import pytest

from repro.core.dmra import DMRAAllocator
from repro.dist import DistributedDMRAAllocator
from repro.econ.accounting import compute_profit
from repro.errors import ConfigurationError
from repro.experiments.extensions import (
    STALENESS_HORIZON_ROUNDS,
    stale_broadcast_plan,
)
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario


def profit(scenario, assignment):
    return compute_profit(
        scenario.network, assignment.grants, scenario.pricing
    ).total_profit


def allocate(scenario, delay):
    allocator = DistributedDMRAAllocator(
        transport="inproc",
        pricing=scenario.pricing,
        fault_plan=stale_broadcast_plan(delay),
    )
    assignment = allocator.allocate(scenario.network, scenario.radio_map)
    # Every proposal was made on a broadcast exactly ``delay`` rounds
    # old: the matching settled inside the plan's horizon.
    assert assignment.rounds < STALENESS_HORIZON_ROUNDS
    return assignment


class TestStaleBroadcasts:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig.paper(), 1100, 3)

    @pytest.fixture(scope="class")
    def run(self, scenario):
        """``run(delay)``: the scenario's assignment at that delay, each
        delay allocated once for the whole class."""
        done = {}

        def run(delay):
            if delay not in done:
                done[delay] = allocate(scenario, delay)
            return done[delay]

        return run

    def test_zero_delay_is_bit_identical_to_direct(self, scenario, run):
        direct = DMRAAllocator(pricing=scenario.pricing).allocate(
            scenario.network, scenario.radio_map
        )
        fresh = run(0)
        assert sorted(direct.association_pairs()) == sorted(
            fresh.association_pairs()
        )
        assert direct.cloud_ue_ids == fresh.cloud_ue_ids
        assert direct.rounds == fresh.rounds

    @pytest.mark.parametrize("delay", [1, 2, 5])
    def test_stale_runs_valid_and_terminate(self, scenario, run, delay):
        assignment = run(delay)
        assignment.validate(scenario.network, scenario.radio_map)
        assert assignment.edge_served_count > 0

    def test_staleness_costs_rounds_not_quality(self, scenario, run):
        fresh = run(0)
        stale = run(3)
        # Convergence slows...
        assert stale.rounds > fresh.rounds
        # ...but quality stays within 2% either way.
        assert profit(scenario, stale) >= 0.98 * profit(scenario, fresh)

    def test_rounds_grow_with_delay(self, run):
        rounds = [run(delay).rounds for delay in (0, 2, 5)]
        assert rounds == sorted(rounds)
        assert rounds[-1] > rounds[0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            stale_broadcast_plan(-1)

    def test_bs_backstop_filter_under_staleness(self):
        """Under heavy load and long delay, UEs over-propose on stale
        info; the BS-side filter must keep every grant within actual
        capacity (validate() would catch any violation)."""
        scenario = build_scenario(ScenarioConfig.paper(), 1400, 1)
        assignment = allocate(scenario, 4)
        assignment.validate(scenario.network, scenario.radio_map)
