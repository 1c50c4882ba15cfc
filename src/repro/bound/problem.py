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
    # Each temporary is dropped once used: the pair-sized ones would
    # otherwise stay alive to the end, next to the problem's own columns.
    pricing = pricing if pricing is not None else PaperPricing()
    columns = network.columns()
    gathered = gather_candidates(network, radio_map)
    ue_ids, rows = gathered.ue_ids, gathered.rows
    n_ue = len(ue_ids)

    # Capacity rows: the services some BS hosts or some UE requests, by
    # ascending id; a UE row's service becomes its capacity index.
    in_use = columns.bs_cru_capacity.any(axis=0)
    in_use[columns.ue_service] = True
    services = np.flatnonzero(in_use)
    services = services[np.argsort(columns.service_ids[services])]
    n_svc = len(services)
    svc_index = np.zeros(len(in_use), dtype=np.int64)
    svc_index[services] = np.arange(n_svc)
    cap_cru = columns.bs_cru_capacity[:, services].astype(np.float64).ravel()
    cap_rrb = columns.bs_rrb_capacity.astype(np.float64)

    # Keep the feasible pairs; each row's stay contiguous, in map order.
    links = gathered.links
    feasible = np.flatnonzero(
        ((radio_map.rrb_demands >= 1) & (radio_map.per_rrb_rates_bps > 0))[links]
    )
    counts = np.bincount(gathered.row_of_pair[feasible], minlength=n_ue)
    row_start = np.concatenate(([0], np.cumsum(counts)[:-1]))

    # Slot k takes the k-th feasible pair of the ``widths[k]`` rows
    # with the most candidates, in ``slot_rows`` order: one pass lays
    # out each pair's network UE row and its place among the feasible.
    slot_rows = np.argsort(-counts, kind="stable")
    widths = (n_ue - np.cumsum(np.bincount(counts))[:-1]).tolist()
    slot_ptr = np.cumsum([0] + widths)
    pair_ue = np.empty(slot_ptr[-1], dtype=np.int64)
    take = np.empty(slot_ptr[-1], dtype=np.int64)
    ue_of_row, start = rows[slot_rows], row_start[slot_rows]
    for k, (a, w) in enumerate(zip(slot_ptr[:-1].tolist(), widths)):
        pair_ue[a : a + w] = ue_of_row[:w]
        np.add(start[:w], k, out=take[a : a + w])
    take = feasible[take]
    pair_bs = gathered.pair_bs[take]
    sel = links[take]
    del gathered, links, feasible, take

    pair_rrb = radio_map.rrb_demands[sel].astype(np.float64)
    distances = radio_map.distances_m[sel]
    del sel
    same_sp = columns.ue_sp[pair_ue] == columns.bs_sp[pair_bs]
    price = _price_term_array(pricing, distances, same_sp)
    del distances, same_sp

    margin_of_sp = np.array(
        [sp.cru_price - sp.other_cost for sp in network.providers],
        dtype=np.float64,
    )
    pair_cru = columns.ue_cru_demand.astype(np.float64)[pair_ue]
    # c^u * (margin - price), in the price buffer.
    pair_profit = np.subtract(
        margin_of_sp[columns.ue_sp][pair_ue], price, out=price
    )
    np.multiply(pair_cru, pair_profit, out=pair_profit)
    pair_flat = svc_index[columns.ue_service][pair_ue]
    del pair_ue
    pair_flat += pair_bs * n_svc

    return BoundProblem(
        ue_ids=ue_ids,
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
        service_ids=tuple(columns.service_ids[services].tolist()),
    )
