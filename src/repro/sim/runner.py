"""Running allocators on scenarios.

:func:`run_allocation` is the one funnel every experiment goes through:
it executes an allocator, *always* re-validates the returned assignment
against the TPM constraints (a misbehaving scheme fails loudly instead
of polluting results), and evaluates the metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.sim.metrics import OutcomeMetrics, compute_metrics
from repro.sim.scenario import Scenario

__all__ = ["AllocationOutcome", "run_allocation"]


@dataclass(frozen=True)
class AllocationOutcome:
    """Result of one allocator run on one scenario."""

    allocator_name: str
    scenario_seed: int
    ue_count: int
    assignment: Assignment
    metrics: OutcomeMetrics
    wall_time_s: float


def run_allocation(scenario: Scenario, allocator: Allocator) -> AllocationOutcome:
    """Execute ``allocator`` on ``scenario``, validate and evaluate the outcome.

    ``wall_time_s`` covers the allocator alone, not the validation or
    the metrics.
    """
    start = time.perf_counter()
    assignment = allocator.allocate(scenario.network, scenario.radio_map)
    elapsed = time.perf_counter() - start
    assignment.validate(scenario.network, scenario.radio_map)
    metrics = compute_metrics(scenario.network, assignment, scenario.pricing)
    return AllocationOutcome(
        allocator_name=allocator.name,
        scenario_seed=scenario.seed,
        ue_count=scenario.ue_count,
        assignment=assignment,
        metrics=metrics,
        wall_time_s=elapsed,
    )
