"""Array-form compile of the TPM bound problem.

Lifts the feasible candidate links of a :class:`~repro.radio.channel.RadioMap`
into the CSR layout used by :mod:`repro.core.soa` -- one contiguous row
of pairs per UE -- plus the per-(BS, service) CRU capacities (Eq. 12)
and per-BS RRB capacities (Eq. 14) the Lagrangian dualizes.  Profits
use the same batched Eq. 9--10 price terms as the matching kernel, so
the bound and the allocator price every link identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.soa import _price_term_array, gather_candidates
from repro.econ.pricing import PaperPricing, PricingPolicy
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

__all__ = ["BoundProblem", "compile_bound_problem"]


@dataclass(frozen=True)
class BoundProblem:
    """The TPM instance as flat arrays, grouped by UE (CSR rows).

    ``indptr`` has length ``n_ue + 1``; pairs of row ``u`` live at
    ``[indptr[u], indptr[u + 1])``.  ``pair_flat`` indexes the
    (BS, service) CRU capacity vector ``cap_cru`` (Eq. 12 rows) as
    ``bs_pool_index * n_services + service_index``; ``pair_bs``
    indexes the per-BS RRB capacity vector ``cap_rrb`` (Eq. 14 rows).
    """

    ue_ids: np.ndarray  # (n_ue,) sorted UE ids
    indptr: np.ndarray  # (n_ue + 1,) CSR row pointers
    row_of_pair: np.ndarray  # (n_pairs,) row index of each pair
    pair_bs: np.ndarray  # (n_pairs,) BS pool index
    pair_flat: np.ndarray  # (n_pairs,) (BS, service) capacity index
    pair_profit: np.ndarray  # (n_pairs,) marginal profit, Eq. 5--8
    pair_cru: np.ndarray  # (n_pairs,) c^u, CRU demand
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

    def estimated_bytes(self) -> int:
        """Rough footprint of the pair arrays (capacity vectors are tiny)."""
        per_pair = (
            self.row_of_pair.itemsize
            + self.pair_bs.itemsize
            + self.pair_flat.itemsize
            + self.pair_profit.itemsize
            + self.pair_cru.itemsize
            + self.pair_rrb.itemsize
        )
        return int(self.n_pairs * per_pair)


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

    # Drop infeasible pairs and rebuild the row pointers.
    sel = gathered.links
    pair_rrb = radio_map.rrb_demands[sel]
    feasible = (pair_rrb >= 1) & (radio_map.per_rrb_rates_bps[sel] > 0)
    sel = sel[feasible]
    row_of_pair = gathered.row_of_pair[feasible]
    pair_rrb = pair_rrb[feasible].astype(np.float64)
    counts = np.bincount(row_of_pair, minlength=n_ue)
    indptr = np.concatenate(([0], np.cumsum(counts)))

    pair_dist = radio_map.distances_m[sel]
    pair_bs = gathered.pair_bs[feasible]

    pair_same_sp = ue_sp[row_of_pair] == bs_sp[pair_bs]
    price = _price_term_array(pricing, pair_dist, pair_same_sp)
    pair_cru = ue_cru[row_of_pair].astype(np.float64)
    pair_profit = pair_cru * (ue_margin[row_of_pair] - price)
    pair_flat = pair_bs * n_svc + ue_svc[row_of_pair]

    return BoundProblem(
        ue_ids=gathered.ue_ids,
        indptr=indptr,
        row_of_pair=row_of_pair,
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
