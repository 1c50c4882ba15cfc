"""Ablation benches for the design choices DESIGN.md calls out.

Each bench isolates one ingredient of DMRA and measures what it buys:

* same-SP priority on the BS side (the multi-SP awareness);
* the Eq. 17 slack term (rho > 0 vs pure price);
* the optimality gap against the centralized ILP on small instances;
* the paper's -170 dBm noise figure vs a conventional thermal floor.
"""

import pytest

from repro.baselines.optimal import OptimalILPAllocator
from repro.core.dmra import DMRAAllocator
from repro.radio.sinr import thermal_noise_dbm
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

SEEDS = (0, 1, 2)


def mean_profit(config, ue_count, allocator_factory):
    total = 0.0
    for seed in SEEDS:
        scenario = build_scenario(config, ue_count, seed)
        outcome = run_allocation(scenario, allocator_factory(scenario))
        total += outcome.metrics.total_profit
    return total / len(SEEDS)


def test_ablation_same_sp_priority(benchmark):
    """Dropping the BS-side own-subscriber preference must not raise
    total profit at iota=2 (it exists to capture the ownership margin)."""
    config = ScenarioConfig.paper(cross_sp_markup=2.0)

    def run():
        with_priority = mean_profit(
            config, 700,
            lambda s: DMRAAllocator(pricing=s.pricing, same_sp_priority=True),
        )
        without_priority = mean_profit(
            config, 700,
            lambda s: DMRAAllocator(pricing=s.pricing, same_sp_priority=False),
        )
        return with_priority, without_priority

    with_priority, without_priority = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert with_priority >= without_priority * 0.98


def test_ablation_rho_slack_term(benchmark):
    """rho > 0 (resource-aware proposals) vs rho = 0 (pure price) under
    overload: the slack term must not increase forwarded traffic."""
    config = ScenarioConfig.paper(cross_sp_markup=1.1)

    def forwarded(rho):
        total = 0.0
        for seed in SEEDS:
            scenario = build_scenario(config, 1000, seed)
            outcome = run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing, rho=rho)
            )
            total += outcome.metrics.forwarded_traffic_bps
        return total / len(SEEDS)

    result = benchmark.pedantic(
        lambda: (forwarded(0.0), forwarded(500.0)), rounds=1, iterations=1
    )
    price_only, resource_aware = result
    assert resource_aware <= price_only


def test_ablation_optimality_gap(benchmark):
    """DMRA vs the centralized ILP optimum on small instances: the
    decentralized scheme must stay within 5% of optimal profit."""

    def gaps():
        ratios = []
        for seed in SEEDS:
            scenario = build_scenario(ScenarioConfig.paper(), 150, seed)
            dmra = run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing)
            ).metrics.total_profit
            optimal = run_allocation(
                scenario, OptimalILPAllocator(pricing=scenario.pricing)
            ).metrics.total_profit
            ratios.append(dmra / optimal)
        return ratios

    ratios = benchmark.pedantic(gaps, rounds=1, iterations=1)
    assert min(ratios) >= 0.95


def test_ablation_service_placement(benchmark):
    """Demand-aware hosting vs random hosting under skewed demand and
    scarce hosting slots: the planner must win on profit."""
    from repro.compute.placement_opt import (
        empirical_popularity,
        plan_hosting,
        rehost_scenario,
    )

    config = ScenarioConfig.paper(
        service_popularity=(16, 8, 4, 2, 1, 1), hosted_fraction=0.5
    )

    def run():
        random_profit = 0.0
        planned_profit = 0.0
        for seed in SEEDS:
            scenario = build_scenario(config, 700, seed)
            random_profit += run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing)
            ).metrics.total_profit
            plan = plan_hosting(
                scenario.network.bs_count,
                3,
                empirical_popularity(scenario.network),
            )
            planned = rehost_scenario(scenario, plan, seed=seed)
            planned_profit += run_allocation(
                planned, DMRAAllocator(pricing=planned.pricing)
            ).metrics.total_profit
        return random_profit, planned_profit

    random_profit, planned_profit = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert planned_profit > random_profit


def test_ablation_congestion_steering(benchmark):
    """Utilization-scaled signaling prices vs the paper's rho term:
    steering must cut forwarded traffic without losing profit."""
    from repro.core.steering import CongestionSteeredAllocator

    config = ScenarioConfig.paper()

    def run():
        totals = {0.0: [0.0, 0.0], 2.0: [0.0, 0.0]}
        for beta in totals:
            for seed in SEEDS:
                scenario = build_scenario(config, 1000, seed)
                outcome = run_allocation(
                    scenario,
                    CongestionSteeredAllocator(
                        pricing=scenario.pricing, beta=beta
                    ),
                )
                totals[beta][0] += outcome.metrics.total_profit
                totals[beta][1] += outcome.metrics.forwarded_traffic_bps
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    assert totals[2.0][0] >= totals[0.0][0] * 0.995  # profit holds
    assert totals[2.0][1] <= totals[0.0][1]  # forwarding drops


def test_ablation_stale_broadcasts(benchmark):
    """Gossip delay: stale resource broadcasts cost rounds, not profit."""
    from repro.dist import DistributedDMRAAllocator
    from repro.experiments.extensions import stale_broadcast_plan

    scenario = build_scenario(ScenarioConfig.paper(), 900, 1)

    def run():
        results = {}
        for delay in (0, 3):
            assignment = DistributedDMRAAllocator(
                transport="inproc",
                pricing=scenario.pricing,
                fault_plan=stale_broadcast_plan(delay),
            ).allocate(scenario.network, scenario.radio_map)
            results[delay] = assignment
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results[3].rounds >= results[0].rounds
    assert results[3].edge_served_count >= 0.97 * results[0].edge_served_count


def test_ablation_rate_quantization(benchmark):
    """Shannon (Eq. 2) vs the 15-level MCS table: quantization shrinks
    edge capacity but must not flip the DMRA > DCSP ordering."""
    from repro.baselines.dcsp import DCSPAllocator

    def run():
        results = {}
        for model in ("shannon", "mcs"):
            scenario = build_scenario(
                ScenarioConfig.paper(rate_model=model), 600, 1
            )
            dmra = run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing)
            ).metrics
            dcsp = run_allocation(scenario, DCSPAllocator()).metrics
            results[model] = (dmra, dcsp)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    shannon_dmra, _ = results["shannon"]
    mcs_dmra, mcs_dcsp = results["mcs"]
    assert mcs_dmra.edge_served < shannon_dmra.edge_served
    assert mcs_dmra.total_profit > mcs_dcsp.total_profit


def test_ablation_noise_model(benchmark):
    """The paper's -170 dBm noise vs a conventional thermal floor.

    Under thermal noise the per-RRB rates collapse and far links become
    expensive, so the same deployment serves far fewer UEs — quantifying
    how load-bearing the paper's noise figure is (DESIGN.md §3).
    """
    paper_cfg = ScenarioConfig.paper()
    thermal_cfg = paper_cfg.with_(noise_dbm=thermal_noise_dbm(180e3))

    def served(config):
        total = 0
        for seed in SEEDS:
            scenario = build_scenario(config, 700, seed)
            outcome = run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing)
            )
            total += outcome.metrics.edge_served
        return total / len(SEEDS)

    result = benchmark.pedantic(
        lambda: (served(paper_cfg), served(thermal_cfg)), rounds=1, iterations=1
    )
    paper_served, thermal_served = result
    assert thermal_served < paper_served
