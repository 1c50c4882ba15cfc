"""Scalar reference for the allocation audit: TPM validation and accounting.

These are the per-grant loops that ``Assignment.validate``,
``repro.econ.accounting.compute_profit``, the per-grant parts of
``repro.sim.metrics.compute_metrics``, and the per-service and per-SP
breakdowns of ``repro.sim.metrics`` replace with whole-array passes.
Every check, message and floating-point operation is here in the order
the production code must reproduce: ``+=`` accumulations in grant order,
builtin ``sum()`` over the same values in the same order, and the first
violation of the loop below as the error raised.
"""

from __future__ import annotations

from typing import Iterable

from repro.compute.cru import Grant
from repro.core.assignment import Assignment
from repro.econ.accounting import ProfitStatement, SPProfit
from repro.econ.pricing import PricingPolicy
from repro.errors import AllocationError, UnknownEntityError
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap
from repro.sim.metrics import OutcomeMetrics

__all__ = [
    "validate",
    "compute_profit",
    "compute_metrics",
    "per_service_cru_utilization",
    "per_sp_forwarded_traffic",
]


def validate(
    assignment: Assignment, network: MECNetwork, radio_map: RadioMap
) -> None:
    """Check Eqs. 12--15 and coverage; raise on the first violation."""
    all_ue_ids = {ue.ue_id for ue in network.user_equipments}
    assigned = assignment.edge_served_ue_ids | assignment.cloud_ue_ids
    missing = all_ue_ids - assigned
    if missing:
        raise AllocationError(
            f"UEs neither served nor forwarded: {sorted(missing)[:10]}"
        )
    unknown = assigned - all_ue_ids
    if unknown:
        raise AllocationError(
            f"assignment references unknown UEs: {sorted(unknown)[:10]}"
        )

    crus_used: dict[tuple[int, int], int] = {}
    rrbs_used: dict[int, int] = {}
    for grant in assignment.grants:
        ue = network.user_equipment(grant.ue_id)
        try:
            bs = network.base_station(grant.bs_id)
        except UnknownEntityError:
            raise AllocationError(
                f"UE {grant.ue_id} was granted unknown BS {grant.bs_id}"
            ) from None
        # Eq. 13: the BS must host the requested service, and the UE
        # must actually request the granted service.
        if grant.service_id != ue.service_id:
            raise AllocationError(
                f"UE {ue.ue_id} requests service {ue.service_id} but was "
                f"granted service {grant.service_id}"
            )
        if not bs.hosts_service(grant.service_id):
            raise AllocationError(
                f"BS {bs.bs_id} does not host service {grant.service_id} "
                f"(violates Eq. 13)"
            )
        if not network.covers(bs.bs_id, ue.ue_id):
            raise AllocationError(
                f"BS {bs.bs_id} does not cover UE {ue.ue_id}"
            )
        if grant.crus != ue.cru_demand:
            raise AllocationError(
                f"UE {ue.ue_id}: granted {grant.crus} CRUs, "
                f"demand is {ue.cru_demand}"
            )
        try:
            expected_rrbs = radio_map.link(ue.ue_id, bs.bs_id).rrbs_required
        except UnknownEntityError:
            raise AllocationError(
                f"UE {ue.ue_id} on BS {bs.bs_id}: the radio map has no "
                f"such link"
            ) from None
        if grant.rrbs != expected_rrbs:
            raise AllocationError(
                f"UE {ue.ue_id} on BS {bs.bs_id}: granted {grant.rrbs} "
                f"RRBs, link requires {expected_rrbs}"
            )
        key = (grant.bs_id, grant.service_id)
        crus_used[key] = crus_used.get(key, 0) + grant.crus
        rrbs_used[grant.bs_id] = rrbs_used.get(grant.bs_id, 0) + grant.rrbs

    for (bs_id, service_id), used in crus_used.items():
        capacity = network.base_station(bs_id).cru_capacity.get(service_id, 0)
        if used > capacity:
            raise AllocationError(
                f"BS {bs_id} service {service_id}: {used} CRUs used, "
                f"capacity {capacity} (violates Eq. 12)"
            )
    for bs_id, used in rrbs_used.items():
        capacity = network.base_station(bs_id).rrb_capacity
        if used > capacity:
            raise AllocationError(
                f"BS {bs_id}: {used} RRBs used, capacity {capacity} "
                f"(violates Eq. 14)"
            )


def compute_profit(
    network: MECNetwork,
    grants: Iterable[Grant],
    pricing: PricingPolicy,
) -> ProfitStatement:
    """Evaluate Eqs. 5--8 over a set of realized grants, one at a time."""
    revenue: dict[int, float] = {}
    payments: dict[int, float] = {}
    other: dict[int, float] = {}
    counts: dict[int, int] = {}
    for grant in grants:
        ue = network.user_equipment(grant.ue_id)
        sp = network.provider(ue.sp_id)
        distance = network.distance_m(grant.ue_id, grant.bs_id)
        same_sp = network.same_sp(grant.ue_id, grant.bs_id)
        price = pricing.price_per_cru(distance, same_sp)
        revenue[sp.sp_id] = revenue.get(sp.sp_id, 0.0) + grant.crus * sp.cru_price
        payments[sp.sp_id] = payments.get(sp.sp_id, 0.0) + grant.crus * price
        other[sp.sp_id] = other.get(sp.sp_id, 0.0) + grant.crus * sp.other_cost
        counts[sp.sp_id] = counts.get(sp.sp_id, 0) + 1
    by_sp = {
        sp.sp_id: SPProfit(
            sp_id=sp.sp_id,
            revenue=revenue.get(sp.sp_id, 0.0),
            bs_payments=payments.get(sp.sp_id, 0.0),
            other_costs=other.get(sp.sp_id, 0.0),
            served_ue_count=counts.get(sp.sp_id, 0),
        )
        for sp in network.providers
    }
    return ProfitStatement(by_sp=by_sp)


def compute_metrics(
    network: MECNetwork,
    assignment: Assignment,
    pricing: PricingPolicy,
) -> OutcomeMetrics:
    """Evaluate all outcome metrics with per-grant and per-UE loops."""
    statement = compute_profit(network, assignment.grants, pricing)

    same_sp = sum(
        1
        for grant in assignment.grants
        if network.same_sp(grant.ue_id, grant.bs_id)
    )
    same_sp_fraction = (
        same_sp / len(assignment.grants) if assignment.grants else 0.0
    )

    forwarded_traffic = sum(
        network.user_equipment(ue_id).rate_demand_bps
        for ue_id in assignment.cloud_ue_ids
    )
    forwarded_crus = sum(
        network.user_equipment(ue_id).cru_demand
        for ue_id in assignment.cloud_ue_ids
    )

    used_crus_by_bs: dict[int, int] = {}
    used_rrbs_by_bs: dict[int, int] = {}
    for grant in assignment.grants:
        used_crus_by_bs[grant.bs_id] = (
            used_crus_by_bs.get(grant.bs_id, 0) + grant.crus
        )
        used_rrbs_by_bs[grant.bs_id] = (
            used_rrbs_by_bs.get(grant.bs_id, 0) + grant.rrbs
        )
    cru_utils: list[float] = []
    rrb_utils: list[float] = []
    for bs in network.base_stations:
        used_crus = used_crus_by_bs.get(bs.bs_id, 0)
        used_rrbs = used_rrbs_by_bs.get(bs.bs_id, 0)
        total_crus = bs.total_cru_capacity
        cru_utils.append(used_crus / total_crus if total_crus else 0.0)
        rrb_utils.append(used_rrbs / bs.rrb_capacity)

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
            sum(cru_utils) / len(cru_utils) if cru_utils else 0.0
        ),
        mean_rrb_utilization=(
            sum(rrb_utils) / len(rrb_utils) if rrb_utils else 0.0
        ),
        rounds=assignment.rounds,
    )


def per_service_cru_utilization(
    network: MECNetwork, assignment: Assignment
) -> dict[int, float]:
    """``{service_id: used / provisioned CRUs}``, summed grant by grant."""
    capacity: dict[int, int] = {}
    for bs in network.base_stations:
        for service_id, crus in bs.cru_capacity.items():
            capacity[service_id] = capacity.get(service_id, 0) + crus
    used: dict[int, int] = {}
    for grant in assignment.grants:
        used[grant.service_id] = used.get(grant.service_id, 0) + grant.crus
    return {
        service_id: used.get(service_id, 0) / total
        for service_id, total in capacity.items()
        if total
    }


def per_sp_forwarded_traffic(
    network: MECNetwork, assignment: Assignment
) -> dict[int, float]:
    """``{sp_id: bits/s forwarded to the cloud}``, one cloud UE at a time."""
    forwarded = {sp.sp_id: 0.0 for sp in network.providers}
    for ue_id in assignment.cloud_ue_ids:
        ue = network.user_equipment(ue_id)
        forwarded[ue.sp_id] += ue.rate_demand_bps
    return forwarded
