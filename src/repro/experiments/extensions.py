"""Extended experiments beyond the paper's six figures.

Each extension answers a question the paper raises but does not plot,
using the same experiment interface as the figure reproductions so the
CLI, CSV emission, and charts work uniformly:

* ``ext-iota``      — how the cross-SP markup shapes profit and same-SP
                      association (the mechanism behind Figs. 2 vs 4);
* ``ext-coverage``  — sensitivity to the coverage radius, the one
                      geometric constant the paper never states;
* ``ext-noise``     — profit under the paper's −170 dBm noise vs a
                      conventional thermal floor (DESIGN.md §3);
* ``ext-blocking``  — the online Erlang curve: blocking probability vs
                      offered load;
* ``ext-scaling``   — profit as deployment density grows (BSs per SP);
* ``ext-staleness`` — rounds-to-converge and profit under delayed
                      resource broadcasts (the gossip-delay ablation, a
                      ``repro.dist`` fault plan that holds every
                      broadcast for the delay);
* ``ext-failures``  — profit retained as growing BS outages hit a
                      loaded deployment;
* ``ext-gap``       — the certified optimality gap (repro.bound
                      Lagrangian upper bound) and the repeated-auction
                      baseline's relative profit as the load grows.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.dcsp import DCSPAllocator
from repro.baselines.nonco import NonCoAllocator
from repro.core.dmra import DMRAAllocator
from repro.dist import DistributedDMRAAllocator, FaultPlan
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.dynamics.online import OnlineConfig, run_online
from repro.econ.pricing import PaperPricing
from repro.errors import ConfigurationError
from repro.experiments.figures import Experiment, Scale
from repro.radio.sinr import thermal_noise_dbm
from repro.sim.config import ScenarioConfig
from repro.sim.results import Series
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario
from repro.sim.sweep import SweepResult, SweepSpec, run_sweep

__all__ = [
    "EXTENSIONS",
    "STALENESS_HORIZON_ROUNDS",
    "all_experiments",
    "get_extension",
    "stale_broadcast_plan",
]


def _pricing_for(config: ScenarioConfig) -> PaperPricing:
    return PaperPricing(
        base_price=config.base_price,
        cross_sp_markup=config.cross_sp_markup,
        distance_weight=config.distance_weight,
    )


def _run_ext_iota(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Profit and same-SP fraction as the markup iota grows."""
    iotas = (1.0, 1.5, 2.0, 3.0, 5.0)
    ue_count = max(scale.ue_counts)

    def scenario_factory(iota: float, seed: int):
        config = ScenarioConfig.paper(
            cross_sp_markup=iota,
            # Keep Eq. 16 satisfiable at the largest markup.
            sp_cru_price=15.0,
        )
        return build_scenario(config, ue_count, seed)

    profit_samples: list[tuple[float, list[float]]] = []
    same_sp_samples: list[tuple[float, list[float]]] = []
    for iota in iotas:
        profits: list[float] = []
        fractions: list[float] = []
        for seed in scale.seeds:
            scenario = scenario_factory(iota, seed)
            outcome = run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing)
            )
            profits.append(outcome.metrics.total_profit)
            fractions.append(outcome.metrics.same_sp_fraction * 100.0)
        profit_samples.append((iota, profits))
        same_sp_samples.append((iota, fractions))
    return SweepResult(series={
        "profit": Series.from_samples("profit", profit_samples),
        "same-sp %": Series.from_samples("same-sp %", same_sp_samples),
    })


def _run_ext_coverage(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """DMRA profit as the (unstated-by-the-paper) coverage radius varies."""
    radii = (300.0, 400.0, 500.0, 650.0, 800.0)
    ue_count = max(scale.ue_counts)

    def factory_for(radius: float):
        worst = 2.0 + 0.01 * radius  # iota*b + sigma*r*b at b=1
        return ScenarioConfig.paper(
            coverage_radius_m=radius, sp_cru_price=worst + 2.0
        )

    spec = SweepSpec(
        xs=tuple(radii),
        seeds=tuple(scale.seeds),
        scenario_factory=lambda radius, seed: build_scenario(
            factory_for(radius), ue_count, seed
        ),
        allocator_factories={
            "dmra": lambda radius: DMRAAllocator(
                pricing=_pricing_for(factory_for(radius))
            )
        },
        metric=lambda m: m.total_profit,
    )
    return run_sweep(spec, workers=workers)


def _run_ext_noise(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Edge-served UEs under the paper noise figure vs thermal noise."""
    configs = {
        "paper -170 dBm": ScenarioConfig.paper(),
        "thermal floor": ScenarioConfig.paper(
            noise_dbm=thermal_noise_dbm(180e3)
        ),
    }
    samples: dict[str, list[tuple[float, list[float]]]] = {
        label: [] for label in configs
    }
    for ue_count in scale.ue_counts:
        for label, config in configs.items():
            values = []
            for seed in scale.seeds:
                scenario = build_scenario(config, ue_count, seed)
                outcome = run_allocation(
                    scenario, DMRAAllocator(pricing=scenario.pricing)
                )
                values.append(float(outcome.metrics.edge_served))
            samples[label].append((float(ue_count), values))
    return SweepResult(series={
        label: Series.from_samples(label, data)
        for label, data in samples.items()
    })


def _run_ext_blocking(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Online blocking probability vs offered load (Erlang curve)."""
    holding_s = 150.0
    rates = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    config = ScenarioConfig.paper()
    samples: list[tuple[float, list[float]]] = []
    for rate in rates:
        values = []
        for seed in scale.seeds:
            online = OnlineConfig(
                horizon_s=300.0,
                arrivals=PoissonArrivals(rate_per_s=rate),
                holding=ExponentialHolding(mean_s=holding_s),
            )
            outcome = run_online(config, online, seed=seed)
            values.append(outcome.blocking_probability * 100.0)
        samples.append((rate * holding_s, values))
    return SweepResult(series={
        "blocking %": Series.from_samples("blocking %", samples)
    })


def _run_ext_scaling(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Total profit as the deployment densifies (BSs per SP)."""
    bs_counts = (2, 3, 5, 8, 12)
    ue_count = max(scale.ue_counts)
    samples: dict[str, list[tuple[float, list[float]]]] = {
        "dmra": [], "dcsp": [], "nonco": [],
    }
    for bs_per_sp in bs_counts:
        config = ScenarioConfig.paper(
            bs_per_sp=bs_per_sp, placement="random"
        )
        per_alloc: dict[str, list[float]] = {k: [] for k in samples}
        for seed in scale.seeds:
            scenario = build_scenario(config, ue_count, seed)
            for name, allocator in (
                ("dmra", DMRAAllocator(pricing=scenario.pricing)),
                ("dcsp", DCSPAllocator()),
                ("nonco", NonCoAllocator()),
            ):
                outcome = run_allocation(scenario, allocator)
                per_alloc[name].append(outcome.metrics.total_profit)
        for name in samples:
            samples[name].append((float(bs_per_sp * 5), per_alloc[name]))
    return SweepResult(series={
        name: Series.from_samples(name, data)
        for name, data in samples.items()
    })


#: Rounds during which the staleness ablation holds every broadcast.
#: One constant for the whole sweep, above every run's productive
#: rounds (at most 45 at paper scale, delay 8), so every proposal is
#: made on a broadcast exactly ``delay`` rounds old.  A delayed run
#: lasts this many protocol rounds plus its delay, so it sets the cost.
STALENESS_HORIZON_ROUNDS = 64


def stale_broadcast_plan(delay: int) -> FaultPlan | None:
    """The fault plan under which UEs see every resource broadcast
    ``delay`` rounds after it was sent; ``None`` (a reliable run) at
    delay 0.  UEs see no broadcast before round ``delay + 1``.  Nothing
    in the plan is left to chance, so it takes no seed."""
    if delay == 0:
        return None
    return FaultPlan(
        delay_prob=1.0,
        delay_rounds=delay,
        kinds=("bcast",),
        horizon_rounds=STALENESS_HORIZON_ROUNDS,
    )


def _run_ext_staleness(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Convergence rounds and profit under delayed broadcasts."""
    delays = (0, 1, 2, 3, 5, 8)
    ue_count = max(scale.ue_counts)
    config = ScenarioConfig.paper()
    rounds_samples: list[tuple[float, list[float]]] = []
    profit_samples: list[tuple[float, list[float]]] = []
    for delay in delays:
        rounds_values: list[float] = []
        profit_values: list[float] = []
        for seed in scale.seeds:
            scenario = build_scenario(config, ue_count, seed)
            outcome = run_allocation(
                scenario,
                DistributedDMRAAllocator(
                    transport="inproc",
                    pricing=scenario.pricing,
                    fault_plan=stale_broadcast_plan(delay),
                ),
            )
            rounds_values.append(float(outcome.metrics.rounds))
            profit_values.append(outcome.metrics.total_profit)
        rounds_samples.append((float(delay), rounds_values))
        profit_samples.append((float(delay), profit_values))
    return SweepResult(series={
        "rounds": Series.from_samples("rounds", rounds_samples),
        "profit": Series.from_samples("profit", profit_samples),
    })


def _run_ext_failures(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Fraction of profit retained as BS outages grow."""
    from repro.dynamics.failures import inject_bs_failures

    config = ScenarioConfig.paper()
    ue_count = max(scale.ue_counts)
    counts = (0, 1, 2, 4, 8, 12)
    samples: list[tuple[float, list[float]]] = []
    for count in counts:
        values: list[float] = []
        for seed in scale.seeds:
            if count == 0:
                values.append(100.0)
                continue
            outcome = inject_bs_failures(
                config,
                ue_count=ue_count,
                failed_bs_ids=list(range(count)),
                seed=seed,
            )
            values.append(100.0 * (1.0 - outcome.profit_loss_fraction))
        samples.append((float(count), values))
    return SweepResult(series={
        "profit retained %": Series.from_samples(
            "profit retained %", samples
        )
    })


def _run_ext_gap(
    scale: Scale, workers: int | None = None
) -> SweepResult:
    """Certified gap and auction-baseline profit as the load grows.

    The gap is certified against the Lagrangian upper bound
    (:mod:`repro.bound`), so this sweep runs at any scale the matching
    itself runs at — no ILP in the loop.
    """
    from repro.baselines.auction import AuctionAllocator
    from repro.bound import certify_gap

    config = ScenarioConfig.paper()
    gap_samples: list[tuple[float, list[float]]] = []
    auction_samples: list[tuple[float, list[float]]] = []
    for ue_count in scale.ue_counts:
        gaps: list[float] = []
        ratios: list[float] = []
        for seed in scale.seeds:
            scenario = build_scenario(config, ue_count, seed)
            outcome = run_allocation(
                scenario, DMRAAllocator(pricing=scenario.pricing)
            )
            incumbent = outcome.metrics.total_profit
            certificate = certify_gap(
                scenario.network,
                scenario.radio_map,
                scenario.pricing,
                incumbent_profit=incumbent,
            )
            gaps.append(certificate.gap_fraction * 100.0)
            auction = run_allocation(
                scenario, AuctionAllocator(pricing=scenario.pricing)
            )
            ratios.append(
                100.0 * auction.metrics.total_profit / incumbent
                if incumbent > 0 else 100.0
            )
        gap_samples.append((float(ue_count), gaps))
        auction_samples.append((float(ue_count), ratios))
    return SweepResult(series={
        "certified gap %": Series.from_samples(
            "certified gap %", gap_samples
        ),
        "auction profit %": Series.from_samples(
            "auction profit %", auction_samples
        ),
    })


EXTENSIONS: dict[str, Experiment] = {
    "ext-iota": Experiment(
        exp_id="ext-iota",
        title="Extension: markup iota vs profit and same-SP association",
        x_label="iota",
        y_label="profit / same-SP %",
        run=_run_ext_iota,
    ),
    "ext-coverage": Experiment(
        exp_id="ext-coverage",
        title="Extension: coverage-radius sensitivity (DMRA profit)",
        x_label="coverage radius (m)",
        y_label="total profit",
        run=_run_ext_coverage,
    ),
    "ext-noise": Experiment(
        exp_id="ext-noise",
        title="Extension: paper noise figure vs thermal floor (edge-served)",
        x_label="#UEs",
        y_label="edge-served UEs",
        run=_run_ext_noise,
    ),
    "ext-blocking": Experiment(
        exp_id="ext-blocking",
        title="Extension: online blocking vs offered load",
        x_label="offered load (tasks)",
        y_label="blocking %",
        run=_run_ext_blocking,
    ),
    "ext-scaling": Experiment(
        exp_id="ext-scaling",
        title="Extension: profit vs deployment density",
        x_label="#BSs",
        y_label="total profit",
        run=_run_ext_scaling,
    ),
    "ext-staleness": Experiment(
        exp_id="ext-staleness",
        title="Extension: convergence under stale resource broadcasts",
        x_label="broadcast delay (rounds)",
        y_label="rounds / profit",
        run=_run_ext_staleness,
    ),
    "ext-failures": Experiment(
        exp_id="ext-failures",
        title="Extension: profit retained under BS outages",
        x_label="failed BSs",
        y_label="profit retained %",
        run=_run_ext_failures,
    ),
    "ext-gap": Experiment(
        exp_id="ext-gap",
        title="Extension: certified optimality gap vs load",
        x_label="#UEs",
        y_label="gap % / auction profit %",
        run=_run_ext_gap,
    ),
}


def get_extension(exp_id: str) -> Experiment:
    """Look up an extension experiment by id."""
    try:
        return EXTENSIONS[exp_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown extension {exp_id!r}; available: {sorted(EXTENSIONS)}"
        ) from None


def all_experiments() -> dict[str, Experiment]:
    """Paper figures plus extensions, one registry."""
    from repro.experiments.figures import EXPERIMENTS

    merged = dict(EXPERIMENTS)
    merged.update(EXTENSIONS)
    return merged
