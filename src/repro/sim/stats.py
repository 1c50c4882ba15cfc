"""Paired statistical comparison of allocation schemes.

"DMRA beats NonCo" should come with a p-value.  Because every sweep is
paired (all schemes see identical scenarios per seed), the right test is
on the per-seed *differences*: a paired t-test plus a sign count, which
is far more sensitive than comparing two independent means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.allocator import Allocator
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.metrics import OutcomeMetrics
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

__all__ = ["PairedComparison", "compare_allocators"]


@dataclass(frozen=True)
class PairedComparison:
    """Result of a paired comparison of two schemes on common scenarios."""

    name_a: str
    name_b: str
    values_a: tuple[float, ...]
    values_b: tuple[float, ...]
    mean_difference: float  # mean(a - b)
    t_statistic: float
    p_value: float
    wins_a: int
    wins_b: int
    ties: int

    @property
    def replication_count(self) -> int:
        return len(self.values_a)

    @property
    def significant_at_5pct(self) -> bool:
        """Whether the difference is significant at the 5% level."""
        return self.p_value < 0.05

    def summary(self) -> str:
        """One-line human-readable verdict."""
        significance = (
            "significant" if self.significant_at_5pct else "not significant"
        )
        if self.mean_difference == 0:
            return (
                f"{self.name_a} == {self.name_b} on average "
                f"({self.wins_a}-{self.ties}-{self.wins_b} W-T-L, "
                f"p={self.p_value:.4f}, {significance} at 5%)"
            )
        direction = (
            f"{self.name_a} > {self.name_b}"
            if self.mean_difference > 0
            else f"{self.name_b} > {self.name_a}"
        )
        return (
            f"{direction} by {abs(self.mean_difference):.1f} on average "
            f"({self.wins_a}-{self.ties}-{self.wins_b} W-T-L, "
            f"p={self.p_value:.4f}, {significance} at 5%)"
        )


def compare_allocators(
    config: ScenarioConfig,
    ue_count: int,
    allocator_a: Callable[[object], Allocator],
    allocator_b: Callable[[object], Allocator],
    seeds: Sequence[int],
    metric: Callable[[OutcomeMetrics], float] | None = None,
) -> PairedComparison:
    """Run two schemes on identical seeded scenarios and test the
    difference.

    ``allocator_a`` / ``allocator_b`` are factories called with each
    scenario (so pricing can be wired per scenario); ``metric`` defaults
    to total profit.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigurationError(
            "paired comparison needs at least 2 seeds"
        )
    if metric is None:
        metric = lambda m: m.total_profit  # noqa: E731 - tiny default

    values_a: list[float] = []
    values_b: list[float] = []
    name_a = name_b = ""
    for seed in seeds:
        scenario = build_scenario(config, ue_count, seed)
        instance_a = allocator_a(scenario)
        instance_b = allocator_b(scenario)
        name_a, name_b = instance_a.name, instance_b.name
        values_a.append(metric(run_allocation(scenario, instance_a).metrics))
        values_b.append(metric(run_allocation(scenario, instance_b).metrics))

    differences = [a - b for a, b in zip(values_a, values_b)]
    mean_difference = sum(differences) / len(differences)
    if all(d == differences[0] for d in differences):
        # Zero variance: scipy's t-test degenerates; report directly.
        t_statistic = float("inf") if differences[0] != 0 else 0.0
        p_value = 0.0 if differences[0] != 0 else 1.0
    else:
        from scipy import stats as scipy_stats

        t_statistic, p_value = scipy_stats.ttest_rel(values_a, values_b)
        t_statistic = float(t_statistic)
        p_value = float(p_value)

    return PairedComparison(
        name_a=name_a,
        name_b=name_b,
        values_a=tuple(values_a),
        values_b=tuple(values_b),
        mean_difference=mean_difference,
        t_statistic=t_statistic,
        p_value=p_value,
        wins_a=sum(1 for d in differences if d > 0),
        wins_b=sum(1 for d in differences if d < 0),
        ties=sum(1 for d in differences if d == 0),
    )
