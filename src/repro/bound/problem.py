"""Array-form compile of the TPM bound problem.

Lifts the feasible candidate links of a :class:`~repro.radio.channel.RadioMap`
into a slot-major (jagged-diagonal) layout -- slot ``k`` holds the
``k``-th candidate of every UE that has more than ``k`` -- plus the
per-(BS, service) CRU capacities (Eq. 12) and per-BS RRB capacities
(Eq. 14) the Lagrangian dualizes.  The candidate rows come from the
same gather as :mod:`repro.core.soa`, and profits use the same batched
Eq. 9--10 price terms as the matching kernel, so the bound and the
allocator price every link identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.soa import _price_term_array, gather_candidates
from repro.econ.pricing import PaperPricing, PricingPolicy
from repro.model.network import MECNetwork
from repro.obs.telemetry import get_telemetry
from repro.radio.channel import RadioMap

__all__ = ["BoundProblem", "compile_bound_problem"]


@dataclass(frozen=True)
class BoundProblem:
    """The TPM instance as flat arrays in slot-major order.

    ``slot_rows`` lists the UE rows by descending candidate count
    (stable, so ties stay in UE order).  Slot ``k`` is the pair range
    ``[slot_ptr[k], slot_ptr[k + 1])``: the ``k``-th candidate, in
    radio-map order, of each of the first ``width_k`` rows of
    ``slot_rows``, in that order.  Widths never increase, so slot 0
    spans every row with a candidate.  ``pair_flat`` indexes the
    (BS, service) CRU capacity vector ``cap_cru`` (Eq. 12 rows) as
    ``bs_pool_index * n_services + service_index``; ``pair_bs``
    indexes the per-BS RRB capacity vector ``cap_rrb`` (Eq. 14 rows).
    """

    ue_ids: np.ndarray  # (n_ue,) sorted UE ids
    slot_ptr: np.ndarray  # (n_slots + 1,) slot boundaries
    slot_rows: np.ndarray  # (n_ue,) rows by descending candidate count
    pair_bs: np.ndarray  # (n_pairs,) BS pool index
    pair_flat: np.ndarray  # (n_pairs,) (BS, service) capacity index
    pair_profit: np.ndarray  # (n_pairs,) marginal profit, Eq. 5--8
    pair_cru: np.ndarray  # (n_pairs,) c^u, the UE's CRU demand (row-constant)
    pair_rrb: np.ndarray  # (n_pairs,) n_{u,i}, RRB demand
    cap_cru: np.ndarray  # (n_bs * n_svc,) c_{i,j}, Eq. 12 RHS
    cap_rrb: np.ndarray  # (n_bs,) N_i, Eq. 14 RHS
    bs_ids: np.ndarray  # (n_bs,) BS ids in pool order
    service_ids: tuple[int, ...]  # service ids in capacity-index order

    @property
    def n_ue(self) -> int:
        return len(self.ue_ids)

    @property
    def n_bs(self) -> int:
        return len(self.bs_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_profit)

    @property
    def n_slots(self) -> int:
        return len(self.slot_ptr) - 1

    def pair_rows(self) -> np.ndarray:
        """The UE row of every pair, in pair order."""
        widths = np.diff(self.slot_ptr)
        offset = np.arange(self.n_pairs) - np.repeat(self.slot_ptr[:-1], widths)
        return self.slot_rows[offset]

    def estimated_bytes(self) -> int:
        """Rough footprint of the pair arrays (capacity vectors are tiny)."""
        per_pair = (
            self.pair_bs.itemsize
            + self.pair_flat.itemsize
            + self.pair_profit.itemsize
            + self.pair_cru.itemsize
            + self.pair_rrb.itemsize
        )
        return int(self.n_pairs * per_pair + self.slot_rows.nbytes)


def compile_bound_problem(
    network: MECNetwork,
    radio_map: RadioMap,
    pricing: PricingPolicy | None = None,
) -> BoundProblem:
    """Compile the feasible candidate links into a :class:`BoundProblem`.

    Feasibility matches ``LinkMetrics.feasible`` in array form
    (``rrb_demands >= 1`` and ``per_rrb_rates_bps > 0``); profits match
    :func:`repro.econ.accounting.marginal_profit` bit for bit.
    """
    with get_telemetry().span("bound.problem") as span:
        problem = _compile(network, radio_map, pricing)
        span.set(pairs=problem.n_pairs, slots=problem.n_slots)
    return problem


def _compile(
    network: MECNetwork,
    radio_map: RadioMap,
    pricing: PricingPolicy | None,
) -> BoundProblem:
    pricing = pricing if pricing is not None else PaperPricing()
    columns = network.columns()
    gathered = gather_candidates(network, radio_map)
    n_ue = len(gathered.ue_ids)
    rows = gathered.rows

    base_stations = tuple(network.base_stations)
    n_bs = len(base_stations)
    bs_sp = columns.bs_sp
    requested = columns.service_ids[columns.ue_service[rows]]
    service_ids = sorted(
        {s for bs in base_stations for s in bs.cru_capacity}
        | set(requested.tolist())
    )
    svc_index = {sid: k for k, sid in enumerate(service_ids)}
    n_svc = len(service_ids)

    cap_cru = np.zeros(n_bs * n_svc, dtype=np.float64)
    for b, bs in enumerate(base_stations):
        for sid, crus in bs.cru_capacity.items():
            cap_cru[b * n_svc + svc_index[sid]] = float(crus)
    cap_rrb = np.array(
        [float(bs.rrb_capacity) for bs in base_stations], dtype=np.float64
    )

    ue_svc = np.searchsorted(np.array(service_ids, dtype=np.int64), requested)
    ue_cru = columns.ue_cru_demand[rows]
    ue_sp = columns.ue_sp[rows]
    margin_of_sp = np.array(
        [sp.cru_price - sp.other_cost for sp in network.providers],
        dtype=np.float64,
    )
    ue_margin = margin_of_sp[ue_sp]

    # Keep the feasible pairs; each row's stay contiguous, in map order.
    links = gathered.links
    feasible = np.flatnonzero(
        (radio_map.rrb_demands[links] >= 1)
        & (radio_map.per_rrb_rates_bps[links] > 0)
    )
    counts = np.bincount(gathered.row_of_pair[feasible], minlength=n_ue)
    row_start = np.concatenate(([0], np.cumsum(counts)[:-1]))

    # Slot k takes the k-th feasible pair of the ``widths[k]`` rows
    # with the most candidates, in ``slot_rows`` order.
    slot_rows = np.argsort(-counts, kind="stable")
    widths = (n_ue - np.cumsum(np.bincount(counts))[:-1]).tolist()
    slot_ptr = np.cumsum([0] + widths)

    def by_slot(per_row: np.ndarray) -> np.ndarray:
        """A per-row column laid out like the pairs."""
        ordered = per_row[slot_rows]
        return np.concatenate([ordered[:w] for w in widths] + [ordered[:0]])

    start = row_start[slot_rows]
    take = feasible[np.concatenate(
        [start[:w] + k for k, w in enumerate(widths)] + [start[:0]]
    )]
    sel = links[take]
    pair_rrb = radio_map.rrb_demands[sel].astype(np.float64)
    pair_dist = radio_map.distances_m[sel]
    pair_bs = gathered.pair_bs[take]

    pair_same_sp = by_slot(ue_sp) == bs_sp[pair_bs]
    price = _price_term_array(pricing, pair_dist, pair_same_sp)
    pair_cru = by_slot(ue_cru).astype(np.float64)
    pair_profit = pair_cru * (by_slot(ue_margin) - price)
    pair_flat = pair_bs * n_svc + by_slot(ue_svc)

    return BoundProblem(
        ue_ids=gathered.ue_ids,
        slot_ptr=slot_ptr,
        slot_rows=slot_rows,
        pair_bs=pair_bs,
        pair_flat=pair_flat,
        pair_profit=pair_profit,
        pair_cru=pair_cru,
        pair_rrb=pair_rrb,
        cap_cru=cap_cru,
        cap_rrb=cap_rrb,
        bs_ids=columns.bs_ids.copy(),
        service_ids=tuple(service_ids),
    )
