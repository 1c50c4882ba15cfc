"""Profit accounting: the SP utility of Eqs. 5--8.

For SP ``k`` and the set ``U_k`` of its subscribers served at the edge::

    W_k   = W_k^r - W_k^B - W_k^S
    W_k^r = sum_u c^u * m_k          (revenue from subscribers)
    W_k^B = sum_u c^u * p_{i(u),u}   (payments to serving BSs)
    W_k^S = sum_u c^u * m_k^o        (other serving costs)

Cloud-served subscribers contribute nothing at the MEC layer; the paper
reports their load separately (Fig. 7).  :class:`ProfitStatement` keeps
all three components so tests can verify the accounting identity, not
just the bottom line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.compute.cru import Grant, GrantColumns
from repro.econ.pricing import PricingPolicy
from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.network import MECNetwork

__all__ = ["SPProfit", "ProfitStatement", "compute_profit"]


@dataclass(frozen=True, slots=True)
class SPProfit:
    """Eq. 5 decomposition for one SP."""

    sp_id: int
    revenue: float  # W_k^r
    bs_payments: float  # W_k^B
    other_costs: float  # W_k^S
    served_ue_count: int

    @property
    def profit(self) -> float:
        """``W_k = W_k^r - W_k^B - W_k^S``."""
        return self.revenue - self.bs_payments - self.other_costs


@dataclass(frozen=True)
class ProfitStatement:
    """Per-SP profits plus the TPM objective value (Eq. 11)."""

    by_sp: Mapping[int, SPProfit]

    @property
    def total_profit(self) -> float:
        """The TPM objective: ``sum_k W_k``."""
        return sum(entry.profit for entry in self.by_sp.values())

    @property
    def total_revenue(self) -> float:
        return sum(entry.revenue for entry in self.by_sp.values())

    @property
    def total_bs_payments(self) -> float:
        return sum(entry.bs_payments for entry in self.by_sp.values())

    @property
    def total_served_ues(self) -> int:
        return sum(entry.served_ue_count for entry in self.by_sp.values())

    def profit_of(self, sp_id: int) -> float:
        """``W_k`` for one SP (0 for an SP with no edge-served UEs)."""
        entry = self.by_sp.get(sp_id)
        return entry.profit if entry is not None else 0.0


def compute_profit(
    network: MECNetwork,
    grants: Iterable[Grant] | GrantColumns,
    pricing: PricingPolicy,
) -> ProfitStatement:
    """Evaluate Eqs. 5--8 over a set of realized grants.

    Each grant attributes its CRU volume to the UE's subscribed SP; the
    BS payment uses the realized link's distance and ownership through
    the pricing policy — exactly the terms the optimization in Eq. 11
    sums.  ``grants`` may also be their columns (e.g.
    :meth:`Assignment.columns <repro.core.assignment.Assignment.columns>`).

    The per-grant terms are whole-array products over the grant
    columns, and each SP's totals add its terms left to right in grant
    order, so every float equals a per-grant ``+=`` loop's bit for bit.
    """
    columns = network.columns()
    grants = GrantColumns.of(grants)
    rows = columns.ue_rows(grants.ue_ids)
    cols = columns.bs_cols(grants.bs_ids)
    unknown = np.flatnonzero((rows < 0) | (cols < 0))
    if len(unknown):
        index = unknown[0]
        if rows[index] < 0:
            raise UnknownEntityError(f"unknown UE id {grants.ue_ids[index]}")
        raise UnknownEntityError(f"unknown BS id {grants.bs_ids[index]}")
    sp = columns.ue_sp[rows]
    prices = _prices(
        pricing,
        network.pair_distances_m(rows, cols),
        sp == columns.bs_sp[cols],
    )
    crus = grants.crus
    # Stable grouping by SP keeps each SP's grants in grant order.
    order = np.argsort(sp, kind="stable")
    bounds = np.searchsorted(sp[order], np.arange(len(network.providers) + 1))
    by_sp = {}
    for k, provider in enumerate(network.providers):
        mine = order[bounds[k]:bounds[k + 1]]
        by_sp[provider.sp_id] = SPProfit(
            sp_id=provider.sp_id,
            revenue=_running_total(crus[mine] * provider.cru_price),
            bs_payments=_running_total(crus[mine] * prices[mine]),
            other_costs=_running_total(crus[mine] * provider.other_cost),
            served_ue_count=len(mine),
        )
    return ProfitStatement(by_sp=by_sp)


def _prices(
    pricing: PricingPolicy, distances: np.ndarray, same_sp: np.ndarray
) -> np.ndarray:
    """``pricing.price_per_cru`` of every grant, negative distances refused."""
    from repro.core.soa import _price_term_array

    negative = np.flatnonzero(distances < 0)
    if len(negative):
        raise ConfigurationError(
            f"distance must be >= 0, got {float(distances[negative[0]])}"
        )
    return _price_term_array(pricing, distances, same_sp)


def _running_total(terms: np.ndarray) -> float:
    """``0.0 + t_0 + t_1 + ...`` added left to right, as ``+=`` would.

    ``np.cumsum`` accumulates sequentially, unlike ``np.sum``'s pairwise
    summation, so the last partial sum is the loop's total exactly.
    """
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def marginal_profit(
    network: MECNetwork,
    ue_id: int,
    bs_id: int,
    pricing: PricingPolicy,
) -> float:
    """The profit delta of serving ``ue_id`` on ``bs_id``.

    This is the quantity a profit-greedy allocator maximizes per step:
    ``c^u * (m_k - m_k^o - p_{i,u})``.
    """
    ue = network.user_equipment(ue_id)
    sp = network.provider(ue.sp_id)
    price = pricing.price_per_cru(
        network.distance_m(ue_id, bs_id), network.same_sp(ue_id, bs_id)
    )
    return ue.cru_demand * (sp.cru_price - sp.other_cost - price)


__all__.append("marginal_profit")
