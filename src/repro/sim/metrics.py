"""Outcome metrics computed from an assignment.

Besides the paper's two reported metrics — total SP profit (Figs. 2--6)
and total forwarded traffic load (Fig. 7) — the harness records the
supporting quantities that explain *why* an allocator wins: edge-served
fraction, same-SP association fraction, resource utilization, and
matching rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.compute.cru import GrantColumns
from repro.core.assignment import Assignment
from repro.econ.accounting import ProfitStatement, compute_profit
from repro.econ.pricing import PricingPolicy
from repro.errors import UnknownEntityError
from repro.model.network import MECNetwork

__all__ = [
    "OutcomeMetrics",
    "compute_metrics",
    "per_bs_utilization",
    "per_service_cru_utilization",
    "per_sp_forwarded_traffic",
]


@dataclass(frozen=True)
class OutcomeMetrics:
    """Everything we measure about one allocation outcome."""

    total_profit: float
    profit_by_sp: Mapping[int, float]
    edge_served: int
    cloud_forwarded: int
    forwarded_traffic_bps: float
    forwarded_crus: int
    same_sp_fraction: float
    mean_cru_utilization: float
    mean_rrb_utilization: float
    rounds: int

    @property
    def ue_count(self) -> int:
        return self.edge_served + self.cloud_forwarded

    @property
    def edge_served_fraction(self) -> float:
        total = self.ue_count
        return self.edge_served / total if total else 0.0


def compute_metrics(
    network: MECNetwork,
    assignment: Assignment,
    pricing: PricingPolicy,
) -> OutcomeMetrics:
    """Evaluate all metrics for one (network, assignment) pair.

    The per-grant and per-UE quantities are whole-array passes over the
    assignment's grant columns and the network's
    :meth:`~repro.model.network.MECNetwork.columns`; every float sum
    adds the same values in the same order as a per-entity loop would.
    """
    grants = assignment.columns()
    statement: ProfitStatement = compute_profit(network, grants, pricing)
    columns = network.columns()
    # compute_profit has already refused unknown UE and BS ids.
    rows = columns.ue_rows(grants.ue_ids)
    cols = columns.bs_cols(grants.bs_ids)

    same_sp = int(np.count_nonzero(columns.ue_sp[rows] == columns.bs_sp[cols]))
    same_sp_fraction = same_sp / len(grants) if len(grants) else 0.0

    cloud_rows = _cloud_rows(network, assignment)
    forwarded_traffic = sum(columns.ue_rate_demand_bps[cloud_rows].tolist())
    forwarded_crus = int(columns.ue_cru_demand[cloud_rows].sum())

    cru_utils, rrb_utils = _utilization_by_bs(network, grants)
    n_bs = network.bs_count

    return OutcomeMetrics(
        total_profit=statement.total_profit,
        profit_by_sp={
            sp_id: entry.profit for sp_id, entry in statement.by_sp.items()
        },
        edge_served=assignment.edge_served_count,
        cloud_forwarded=assignment.cloud_count,
        forwarded_traffic_bps=forwarded_traffic,
        forwarded_crus=forwarded_crus,
        same_sp_fraction=same_sp_fraction,
        mean_cru_utilization=(
            sum(cru_utils.tolist()) / n_bs if n_bs else 0.0
        ),
        mean_rrb_utilization=(
            sum(rrb_utils.tolist()) / n_bs if n_bs else 0.0
        ),
        rounds=assignment.rounds,
    )


def _cloud_rows(network: MECNetwork, assignment: Assignment) -> np.ndarray:
    """The network rows of the cloud UEs, in ascending UE-id order.

    A float sum over the cloud UEs then depends only on which UEs went
    to the cloud, not on the order the ``cloud_ue_ids`` set iterates in
    (which follows how the set was built), so equal assignments give
    equal sums.
    """
    cloud_ids = np.sort(np.fromiter(
        assignment.cloud_ue_ids,
        dtype=np.int64,
        count=len(assignment.cloud_ue_ids),
    ))
    rows = network.columns().ue_rows(cloud_ids)
    if np.any(rows < 0):
        raise UnknownEntityError(
            f"unknown UE id {cloud_ids[np.argmax(rows < 0)]}"
        )
    return rows


def _utilization_by_bs(
    network: MECNetwork, grants: GrantColumns
) -> tuple[np.ndarray, np.ndarray]:
    """Per-BS ``(cru_utilization, rrb_utilization)`` arrays in BS order.

    Grants on BSs outside the network count nowhere.  A BS with no CRU
    pool reports 0.0 CRU utilization.
    """
    columns = network.columns()
    cols = columns.bs_cols(grants.bs_ids)
    known = cols >= 0
    n_bs = network.bs_count
    used_crus = np.bincount(
        cols[known], weights=grants.crus[known], minlength=n_bs
    )
    used_rrbs = np.bincount(
        cols[known], weights=grants.rrbs[known], minlength=n_bs
    )
    total_crus = columns.bs_cru_capacity.sum(axis=1)
    cru_utils = np.divide(
        used_crus,
        total_crus,
        out=np.zeros(n_bs, dtype=float),
        where=total_crus > 0,
    )
    return cru_utils, used_rrbs / columns.bs_rrb_capacity


def per_bs_utilization(
    network: MECNetwork, assignment: Assignment
) -> dict[int, tuple[float, float]]:
    """``{bs_id: (cru_utilization, rrb_utilization)}`` for every BS.

    The per-BS breakdown behind :class:`OutcomeMetrics`'s means — the
    saturation picture the load-balancing evaluations plot.  A BS with
    no CRU pool reports 0.0 CRU utilization.
    """
    cru_utils, rrb_utils = _utilization_by_bs(network, assignment.columns())
    return {
        bs.bs_id: utilization
        for bs, utilization in zip(
            network.base_stations, zip(cru_utils.tolist(), rrb_utils.tolist())
        )
    }


def per_service_cru_utilization(
    network: MECNetwork, assignment: Assignment
) -> dict[int, float]:
    """``{service_id: used / provisioned CRUs}`` across all hosting BSs.

    Exposes which *service* pools are scarce network-wide, independent
    of which BS hosts them; services provisioned nowhere are omitted.
    Grants for services outside the network count nowhere.  Whole-array
    sums over the grant and BS columns (integer-exact).
    """
    bs_side = network.bs_columns()
    capacity = bs_side.bs_cru_capacity.sum(axis=0)
    grants = assignment.columns()
    services = bs_side.service_positions(grants.service_ids)
    known = services >= 0
    used = np.bincount(
        services[known], weights=grants.crus[known], minlength=len(capacity)
    )
    return {
        service_id: crus / total
        for service_id, crus, total in zip(
            bs_side.service_ids.tolist(), used.tolist(), capacity.tolist()
        )
        if total
    }


def per_sp_forwarded_traffic(
    network: MECNetwork, assignment: Assignment
) -> dict[int, float]:
    """``{sp_id: bits/s forwarded to the cloud}`` (Fig. 7, split by SP).

    Every SP appears, zero-filled, so series across runs align even
    when an SP forwards nothing.  Each SP's sum adds its cloud UEs'
    demands in ascending UE-id order (``np.bincount`` adds in input
    order), as a per-UE loop over the sorted ids would.
    """
    columns = network.columns()
    rows = _cloud_rows(network, assignment)
    forwarded = np.bincount(
        columns.ue_sp[rows],
        weights=columns.ue_rate_demand_bps[rows],
        minlength=network.sp_count,
    )
    return {
        sp.sp_id: bps
        for sp, bps in zip(network.providers, forwarded.tolist())
    }
