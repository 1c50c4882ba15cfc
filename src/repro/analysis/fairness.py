"""Fairness analysis across service providers.

The paper maximizes the *sum* of SP profits; these helpers quantify how
that sum is distributed — Jain's fairness index, min/max share, and a
normalized per-subscriber view that corrects for unequal subscriber
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.model.network import MECNetwork

__all__ = ["jain_index", "FairnessReport", "fairness_report"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal; ``1/n`` means one participant takes all.
    A vector of all zeros is defined here as perfectly fair (1.0).
    """
    data = list(values)
    if not data:
        raise ConfigurationError("jain_index needs at least one value")
    if any(v < 0 for v in data):
        raise ConfigurationError("jain_index expects non-negative values")
    peak = max(data)
    if peak == 0:
        return 1.0
    # Scaled to a peak of 1, the squares neither underflow nor overflow:
    # unscaled, two equal values near 1e-160 read 1.00006.
    data = [v / peak for v in data]
    square_of_sum = sum(data) ** 2
    sum_of_squares = sum(v * v for v in data)
    return square_of_sum / (len(data) * sum_of_squares)


@dataclass(frozen=True, slots=True)
class FairnessReport:
    """How one allocation's profit distributes across SPs."""

    jain: float
    jain_per_subscriber: float
    min_sp_profit: float
    max_sp_profit: float
    total_profit: float

    @property
    def max_min_ratio(self) -> float:
        """Best-off SP over worst-off SP (inf when someone earned 0)."""
        if self.min_sp_profit <= 0:
            return float("inf") if self.max_sp_profit > 0 else 1.0
        return self.max_sp_profit / self.min_sp_profit


def fairness_report(
    network: MECNetwork, profit_by_sp: Mapping[int, float]
) -> FairnessReport:
    """Build a :class:`FairnessReport` from a per-SP profit mapping.

    ``jain_per_subscriber`` normalizes each SP's profit by its
    subscriber count, so an SP that simply has fewer users does not
    read as "treated unfairly".
    """
    if not profit_by_sp:
        raise ConfigurationError("profit_by_sp is empty")
    profits = [profit_by_sp.get(sp.sp_id, 0.0) for sp in network.providers]
    per_subscriber = []
    for sp in network.providers:
        subscribers = len(network.user_equipments_of_sp(sp.sp_id))
        profit = profit_by_sp.get(sp.sp_id, 0.0)
        if subscribers > 0:
            per_subscriber.append(profit / subscribers)
        elif profit == 0.0:
            continue  # no subscribers, no profit: neutral
        else:
            raise ConfigurationError(
                f"SP {sp.sp_id} has profit {profit} but no subscribers"
            )
    return FairnessReport(
        jain=jain_index(profits),
        jain_per_subscriber=(
            jain_index(per_subscriber) if per_subscriber else 1.0
        ),
        min_sp_profit=min(profits),
        max_sp_profit=max(profits),
        total_profit=sum(profits),
    )
