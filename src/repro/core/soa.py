"""Structure-of-arrays twin of the Alg. 1 matching engine.

:class:`SoAMatchingEngine` runs the same deferred-acceptance round loop
as :class:`~repro.core.matching.IterativeMatchingEngine`, but flattens
the whole run into index arrays once and then executes every round as a
handful of whole-array operations.  The object engine stays the
bit-parity *reference*; this kernel is the throughput path for the DMRA
policy at scale (the per-shard inner loop is ~90% of the 100k-UE
headline run).

Ledger layout
-------------
The run is compiled into a CSR problem over candidate links:

* **UE rows** (one per target UE, ascending ``ue_id``): service pool
  index, CRU demand, SP id, and the external ``ue_id``.
* **BS columns** (one per base station, ledger-pool order): ``bs_id``,
  SP id, and the *columnar remainders* — ``rem_rrb[n_bs]`` plus a flat
  ``rem_cru[n_bs * n_svc]`` (BS-major) mirroring every
  :class:`~repro.compute.cru.BSLedger`'s per-service CRU ledger.
* **Candidate pairs** in CSR order (UE-row major, ascending ``bs_id``
  within a row — the object engine's scan order): the BS pool index,
  the cached ``n_{u,i}`` RRB demand lifted straight from the
  :class:`~repro.radio.channel.RadioMap` columns, the cached Eq. 17
  price term ``p_{i,u}``, and an ``alive`` feasibility mask.

Each round is then:

1. **Vectorized Eq. 17 scoring + argmin** — ``score = static +
   rho / slack`` over the alive pairs of still-unassociated UEs, with a
   segmented first-occurrence argmin per UE row (exactly the reference
   engine's ``(score, bs_id)`` tie-break, because rows are ascending in
   ``bs_id``).  UEs whose row goes empty are forwarded to the cloud.
2. **Grouped per-(BS, service) selection** — one lexsort over the
   proposals by the DMRA BS-side rank key ``(cross-SP, f_u, footprint,
   ue_id)`` picks each (BS, service)'s most preferred candidate.
3. **Batched RRB-budget eviction** — per-BS demand totals via
   ``reduceat``; only over-budget BSs fall back to a per-BS rank sort,
   where the engine's evict-from-the-tail loop collapses to "keep the
   longest rank-ordered prefix whose demand cumsum fits".
4. **Watermark-style feasibility retirement** — grants shrink the
   columnar remainders, and the alive mask is re-derived by one
   whole-array comparison (resources only shrink, so a pair flips
   feasible→infeasible at most once — same monotonicity argument as the
   object engine's watermark heaps, without the heaps).

Parity contract
---------------
For any scenario the object engine accepts under a plain
:class:`~repro.core.dmra.DMRAPolicy`, this kernel produces a
**bit-identical** :class:`~repro.core.assignment.Assignment` — same
grants tuple (order included), same cloud set, same round count — and
emits the same telemetry spans and counters (``match`` / ``match.round``
attributes, ``match.*`` counters), so ``dmra trace diff`` between the
two kernels is clean on the derived match families.  The property suite
(``tests/property/test_soa_parity.py``) and the golden fixtures pin
this.  Policies other than exactly ``DMRAPolicy`` (subclasses included:
their overridden hooks cannot be compiled here) must use the object
engine — :func:`make_matching_engine` with ``kernel="auto"`` arbitrates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.compute.cru import GrantColumns, LedgerPool
from repro.core.assignment import Assignment
from repro.core.matching import MatchingPolicy, RoundStats
from repro.errors import AllocationError, ConfigurationError, UnknownEntityError
from repro.model.network import MECNetwork
from repro.obs.telemetry import get_telemetry
from repro.radio.channel import RadioMap

__all__ = [
    "SoAMatchingEngine",
    "make_matching_engine",
    "KERNELS",
    "CandidateRows",
    "gather_candidates",
]

#: Valid ``--kernel`` / ``make_matching_engine`` choices.
KERNELS = ("object", "soa", "auto")

def _segmented_argmin_numpy(
    scores: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Index of the first minimum of each contiguous segment of
    ``scores`` (``starts`` ascending; ``+inf`` scores included)."""
    mins = np.minimum.reduceat(scores, starts)
    counts = np.diff(np.append(starts, scores.size))
    is_min = scores == np.repeat(mins, counts)
    position = np.where(is_min, np.arange(scores.size), scores.size)
    return np.minimum.reduceat(position, starts)


def make_matching_engine(
    policy: MatchingPolicy,
    kernel: str = "auto",
    max_rounds: int = 100_000,
):
    """Pick the matching engine implementation for a policy.

    ``kernel="object"`` always returns the bit-parity reference
    :class:`~repro.core.matching.IterativeMatchingEngine`;
    ``kernel="soa"`` demands the SoA kernel (and raises for policies it
    cannot compile); ``kernel="auto"`` selects SoA exactly when the
    policy is a plain :class:`~repro.core.dmra.DMRAPolicy` — subclasses
    may override scoring hooks the kernel hard-codes, so they fall back
    to the object engine.
    """
    from repro.core.matching import IterativeMatchingEngine

    if kernel == "object":
        return IterativeMatchingEngine(policy, max_rounds=max_rounds)
    if kernel == "soa":
        return SoAMatchingEngine(policy, max_rounds=max_rounds)
    if kernel == "auto":
        from repro.core.dmra import DMRAPolicy

        if type(policy) is DMRAPolicy:
            return SoAMatchingEngine(policy, max_rounds=max_rounds)
        return IterativeMatchingEngine(policy, max_rounds=max_rounds)
    raise ConfigurationError(
        f"unknown matching kernel {kernel!r}; choose one of {KERNELS}"
    )


class SoAMatchingEngine:
    """Alg. 1 as whole-array operations (see the module docstring)."""

    def __init__(
        self,
        policy: MatchingPolicy,
        max_rounds: int = 100_000,
    ) -> None:
        from repro.core.dmra import DMRAPolicy

        if max_rounds <= 0:
            raise AllocationError(f"max_rounds must be > 0, got {max_rounds}")
        if type(policy) is not DMRAPolicy:
            raise ConfigurationError(
                f"the SoA kernel compiles exactly DMRAPolicy; got "
                f"{type(policy).__name__} — use kernel='object' for "
                f"custom or subclassed policies"
            )
        self.policy = policy
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------

    def run(
        self,
        network: MECNetwork,
        radio_map: RadioMap,
        ledgers: LedgerPool | None = None,
        ue_ids: Iterable[int] | None = None,
        observer: Callable[[RoundStats], None] | None = None,
    ) -> Assignment:
        """Execute the matching; same contract as the object engine.

        Supports the incremental mode (pre-loaded ``ledgers`` plus a
        ``ue_ids`` subset) and the ``observer`` hook; the passed-in
        ledger pool ends in the identical state — grants are applied to
        it in the object engine's insertion order.
        """
        policy = self.policy

        # ---- Compile the run into the CSR problem ----
        columns = network.columns()
        gathered = gather_candidates(network, radio_map, ue_ids)
        ue_id_arr = gathered.ue_ids
        n_ue = len(ue_id_arr)
        n_bs = network.bs_count
        bs_id_arr = columns.bs_ids
        bs_sp = columns.bs_sp
        # Service pools are ranked by service id: the per-(BS, service)
        # selection below breaks ties in that order.
        n_svc = len(columns.service_ids)
        svc_rank = np.empty(n_svc, dtype=np.int64)
        svc_rank[np.argsort(columns.service_ids, kind="stable")] = (
            np.arange(n_svc)
        )
        if ledgers is None:
            rem_rrb = columns.bs_rrb_capacity.copy()
            rem_cru = np.zeros((n_bs, n_svc), dtype=np.int64)
            rem_cru[:, svc_rank] = columns.bs_cru_capacity
            rem_cru = rem_cru.ravel()
        else:
            rem_rrb, rem_cru = _pool_remainders(
                ledgers, bs_id_arr, np.unique(gathered.pair_bs),
                columns.service_ids, svc_rank,
            )

        rows = gathered.rows
        ue_svc_pos = columns.ue_service[rows]
        ue_svc = svc_rank[ue_svc_pos]
        ue_svc_id = columns.service_ids[ue_svc_pos]
        ue_cru = columns.ue_cru_demand[rows]
        ue_sp = columns.ue_sp[rows]

        # Candidate pairs, each row ascending in bs_id (the object
        # engine's candidate-walk order, which the argmin tie-break
        # relies on).
        row_of_pair = gathered.row_of_pair
        sel, pair_bs = gathered.links, gathered.pair_bs
        order = _bs_order_within_rows(row_of_pair, radio_map.bs_ids[sel])
        if order is not None:
            sel, pair_bs = sel[order], pair_bs[order]
        pair_rrbs = radio_map.rrb_demands[sel]
        pair_dist = radio_map.distances_m[sel]

        pair_same_sp = ue_sp[row_of_pair] == bs_sp[pair_bs]
        pair_static = _price_term_array(
            policy.pricing, pair_dist, pair_same_sp
        )
        pair_cross = (~pair_same_sp).astype(np.int64)
        pair_cru = ue_cru[row_of_pair]
        pair_svc = ue_svc[row_of_pair]
        pair_foot = pair_rrbs + pair_cru
        pair_flat = pair_bs * n_svc + pair_svc

        # Born-retired pairs (pre-loaded ledgers / undersized BSs) start
        # dead and are never counted as in-run f_u retirement.
        alive = (rem_cru[pair_flat] >= pair_cru) & (
            rem_rrb[pair_bs] >= pair_rrbs
        )
        active = np.ones(n_ue, dtype=bool)
        cloud_rows: list[np.ndarray] = []
        grant_bs_parts: list[np.ndarray] = []
        grant_row_parts: list[np.ndarray] = []
        grant_rrb_parts: list[np.ndarray] = []

        rho = policy.rho
        same_sp_priority = policy.same_sp_priority
        alive_count = int(alive.sum())
        rounds = 0
        tel = get_telemetry()

        with tel.span(
            "match", policy=policy.name, ues=n_ue
        ) as match_span:
            while True:
                rounds += 1
                if rounds > self.max_rounds:
                    raise AllocationError(
                        f"matching did not terminate within "
                        f"{self.max_rounds} rounds"
                    )
                with tel.span("match.round", round=rounds) as round_span:
                    phase_start = time.perf_counter()
                    idx = np.flatnonzero(alive & active[row_of_pair])
                    rows = row_of_pair[idx]
                    if rows.size:
                        seg_start = np.empty(rows.size, dtype=bool)
                        seg_start[0] = True
                        seg_start[1:] = rows[1:] != rows[:-1]
                        starts = np.flatnonzero(seg_start)
                        seg_rows = rows[starts]
                        seg_counts = np.diff(np.append(starts, rows.size))
                    else:
                        starts = np.empty(0, dtype=np.int64)
                        seg_rows = np.empty(0, dtype=np.int64)
                        seg_counts = np.empty(0, dtype=np.int64)
                    # A UE whose row went empty has an exhausted B_u.
                    act_rows = np.flatnonzero(active)
                    has_candidate = np.zeros(n_ue, dtype=bool)
                    has_candidate[seg_rows] = True
                    newly_cloud_rows = act_rows[~has_candidate[act_rows]]
                    newly_cloud = int(newly_cloud_rows.size)
                    if newly_cloud:
                        active[newly_cloud_rows] = False
                        cloud_rows.append(newly_cloud_rows)
                    proposals = int(seg_rows.size)
                    propose_time = time.perf_counter() - phase_start
                    if not proposals:
                        round_span.set(
                            proposals=0,
                            accepted=0,
                            newly_cloud=newly_cloud,
                        )
                        if newly_cloud:
                            tel.count("match.exhaustions", newly_cloud)
                        if observer is not None:
                            observer(RoundStats(
                                round_number=rounds,
                                proposals=0,
                                accepted=0,
                                newly_cloud=newly_cloud,
                                unassociated_left=int(active.sum()),
                                propose_time_s=propose_time,
                            ))
                        break

                    phase_start = time.perf_counter()
                    # Eq. 17: static price + rho / (CRU + RRB slack).
                    slack = rem_cru[pair_flat[idx]] + rem_rrb[pair_bs[idx]]
                    term = np.empty(idx.size, dtype=float)
                    positive = slack > 0
                    np.divide(rho, slack, out=term, where=positive)
                    term[~positive] = np.inf if rho > 0 else 0.0
                    scores = pair_static[idx] + term
                    nan_at = np.flatnonzero(np.isnan(scores))
                    if nan_at.size:
                        first_bad = idx[nan_at[0]]
                        raise AllocationError(
                            f"policy {policy.name!r} returned NaN "
                            f"preference score for UE "
                            f"{int(ue_id_arr[row_of_pair[first_bad]])}, "
                            f"BS {int(bs_id_arr[pair_bs[first_bad]])}"
                        )
                    chosen = idx[_segmented_argmin_numpy(scores, starts)]
                    propose_time += time.perf_counter() - phase_start

                    phase_start = time.perf_counter()
                    # Per-(BS, service) selection by the DMRA rank key;
                    # seg_counts is the advertised f_u (alive pairs at
                    # proposal time — the watermark tracker's counter).
                    p_bs = pair_bs[chosen]
                    p_svc = pair_svc[chosen]
                    p_fu = seg_counts
                    p_foot = pair_foot[chosen]
                    p_ue = ue_id_arr[seg_rows]
                    p_rrb = pair_rrbs[chosen]
                    p_cross = pair_cross[chosen]
                    if same_sp_priority:
                        rank_cols = (p_ue, p_foot, p_fu, p_cross)
                    else:
                        rank_cols = (p_ue, p_foot, p_fu)
                    sort_order = np.lexsort(rank_cols + (p_svc, p_bs))
                    sorted_bs = p_bs[sort_order]
                    sorted_svc = p_svc[sort_order]
                    group_start = np.empty(sort_order.size, dtype=bool)
                    group_start[0] = True
                    group_start[1:] = (
                        (sorted_bs[1:] != sorted_bs[:-1])
                        | (sorted_svc[1:] != sorted_svc[:-1])
                    )
                    picks = sort_order[np.flatnonzero(group_start)]

                    # RRB budget per BS: the engine's evict-from-the-
                    # tail loop == keep the longest rank-ordered prefix
                    # whose demand cumsum fits the remaining budget.
                    k_bs = p_bs[picks]
                    bs_change = np.empty(picks.size, dtype=bool)
                    bs_change[0] = True
                    bs_change[1:] = k_bs[1:] != k_bs[:-1]
                    bs_starts = np.flatnonzero(bs_change)
                    bs_bounds = np.append(bs_starts, picks.size)
                    totals = np.add.reduceat(p_rrb[picks], bs_starts)
                    over = totals > rem_rrb[k_bs[bs_starts]]
                    evictions = 0
                    if not over.any():
                        survivors = picks
                    else:
                        parts = []
                        for si in range(bs_starts.size):
                            segment = picks[bs_bounds[si]:bs_bounds[si + 1]]
                            if not over[si]:
                                parts.append(segment)
                                continue
                            if same_sp_priority:
                                rank = np.lexsort((
                                    p_ue[segment], p_foot[segment],
                                    p_fu[segment], p_cross[segment],
                                ))
                            else:
                                rank = np.lexsort((
                                    p_ue[segment], p_foot[segment],
                                    p_fu[segment],
                                ))
                            ranked = segment[rank]
                            budget = int(rem_rrb[k_bs[bs_bounds[si]]])
                            demand_cumsum = np.cumsum(p_rrb[ranked])
                            keep = int(np.searchsorted(
                                demand_cumsum, budget, side="right"
                            ))
                            evictions += ranked.size - keep
                            parts.append(ranked[:keep])
                        survivors = (
                            np.concatenate(parts)
                            if parts else np.empty(0, dtype=np.int64)
                        )

                    g_bs = p_bs[survivors]
                    g_row = seg_rows[survivors]
                    g_rrb = p_rrb[survivors]
                    g_flat = g_bs * n_svc + p_svc[survivors]
                    np.subtract.at(rem_rrb, g_bs, g_rrb)
                    rem_cru[g_flat] -= ue_cru[g_row]
                    active[g_row] = False
                    accepted = int(g_row.size)
                    if accepted:
                        grant_bs_parts.append(g_bs)
                        grant_row_parts.append(g_row)
                        grant_rrb_parts.append(g_rrb)
                        # Watermark retirement, re-derived wholesale:
                        # remainders only shrink, so one comparison pass
                        # flips exactly the pairs the object engine's
                        # heaps would pop this round.
                        alive &= (rem_cru[pair_flat] >= pair_cru) & (
                            rem_rrb[pair_bs] >= pair_rrbs
                        )
                        new_alive_count = int(alive.sum())
                        fu_retired = alive_count - new_alive_count
                        alive_count = new_alive_count
                    else:
                        fu_retired = 0
                    accept_time = time.perf_counter() - phase_start

                    round_span.set(
                        proposals=proposals,
                        accepted=accepted,
                        evictions=evictions,
                        newly_cloud=newly_cloud,
                        fu_retired=fu_retired,
                    )
                    tel.count("match.proposals", proposals)
                    tel.count("match.accepted", accepted)
                    if evictions:
                        tel.count("match.evictions", evictions)
                    if newly_cloud:
                        tel.count("match.exhaustions", newly_cloud)
                    if fu_retired:
                        tel.count("match.fu_retired", fu_retired)
                    if observer is not None:
                        observer(RoundStats(
                            round_number=rounds,
                            proposals=proposals,
                            accepted=accepted,
                            newly_cloud=newly_cloud,
                            unassociated_left=int(active.sum()),
                            propose_time_s=propose_time,
                            accept_time_s=accept_time,
                            evictions=evictions,
                        ))

            # Any UE still unassociated at termination has an empty B_u.
            leftover = np.flatnonzero(active)
            if leftover.size:
                cloud_rows.append(leftover)
            cloud = frozenset(
                ue_id_arr[np.concatenate(cloud_rows)].tolist()
                if cloud_rows else ()
            )
            match_span.set(rounds=rounds - 1, cloud=len(cloud))
            tel.gauge("match.rounds", rounds - 1)

        # The grants in the object engine's ledger insertion order: BS
        # pool order major, chronological within a BS (the per-round
        # parts were appended chronologically, so a stable sort on the BS
        # index reproduces it exactly).
        if grant_bs_parts:
            all_bs = np.concatenate(grant_bs_parts)
            order = np.argsort(all_bs, kind="stable")
            all_row = np.concatenate(grant_row_parts)[order]
            all_rrb = np.concatenate(grant_rrb_parts)[order]
            all_bs = all_bs[order]
        else:
            all_bs = all_row = all_rrb = np.empty(0, dtype=np.int64)
        granted = GrantColumns(
            bs_ids=bs_id_arr[all_bs],
            ue_ids=ue_id_arr[all_row],
            service_ids=ue_svc_id[all_row],
            crus=ue_cru[all_row],
            rrbs=all_rrb,
        )
        if ledgers is None:
            return Assignment.of_columns(granted, cloud, rounds=rounds - 1)
        return Assignment(
            grants=ledgers.grant_all(granted),
            cloud_ue_ids=cloud,
            rounds=rounds - 1,
        )


@dataclass(frozen=True)
class CandidateRows:
    """Target UEs' candidate links, gathered into CSR rows.

    Row ``r`` is the ``r``-th target UE (ascending id); its pairs are
    the positions ``row_of_pair == r``, contiguous and in radio-map
    order.
    """

    ue_ids: np.ndarray  # (n_ue,) target UE ids, ascending
    rows: np.ndarray  # (n_ue,) their rows in the network's columns
    row_of_pair: np.ndarray  # (n_pairs,) target row of each pair
    links: np.ndarray  # (n_pairs,) radio-map column position of each pair
    pair_bs: np.ndarray  # (n_pairs,) the pair's BS column in the network


def gather_candidates(
    network: MECNetwork,
    radio_map: RadioMap,
    ue_ids: Iterable[int] | None = None,
) -> CandidateRows:
    """Lift the target UEs' links out of the radio map's columns.

    ``ue_ids=None`` targets every UE of ``network``.  A UE's links are
    its run in the map's UE-grouped ``ue_ids`` column (the last run if
    it has several, as :meth:`RadioMap.ue_slice` resolves them); a UE
    without links gets an empty row.  Whole-array work over
    :meth:`MECNetwork.columns` and the map's columns: no per-UE lookup.

    Raises :class:`UnknownEntityError` for the lowest target UE id, or
    the first linked BS id, that the network does not know.
    """
    columns = network.columns()
    if ue_ids is None:
        targets = np.sort(columns.ue_ids)
    else:
        targets = np.unique(np.fromiter(ue_ids, dtype=np.int64))
    rows = columns.ue_rows(targets)
    if np.any(rows < 0):
        raise UnknownEntityError(
            f"unknown UE id {int(targets[np.argmax(rows < 0)])}"
        )

    map_ues = radio_map.ue_ids
    run_start = np.ones(len(map_ues), dtype=bool)
    run_start[1:] = map_ues[1:] != map_ues[:-1]
    starts = np.flatnonzero(run_start)
    stops = np.append(starts[1:], len(map_ues))
    run_rows = columns.ue_rows(map_ues[starts])
    runs = np.flatnonzero(run_rows >= 0)
    if np.any(run_rows[runs][1:] <= run_rows[runs][:-1]):
        # Out of row order, maybe repeated: keep each UE's last run.
        last = runs[::-1]
        runs = last[np.unique(run_rows[last], return_index=True)[1]]
    # Run ``len(starts)`` is an empty sentinel for UEs without links.
    run_of_row = np.full(network.ue_count, len(starts), dtype=np.int64)
    run_of_row[run_rows[runs]] = runs
    run = run_of_row[rows]
    counts = np.append(stops - starts, 0)[run]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    n_pairs = int(indptr[-1])
    links = np.repeat(
        np.append(starts, 0)[run] - indptr[:-1], counts
    ) + np.arange(n_pairs, dtype=np.int64)
    link_bs_ids = radio_map.bs_ids[links]
    pair_bs = columns.bs_cols(link_bs_ids)
    if np.any(pair_bs < 0):
        raise UnknownEntityError(
            f"unknown BS id {int(link_bs_ids[np.argmax(pair_bs < 0)])}"
        )
    return CandidateRows(
        ue_ids=targets,
        rows=rows,
        row_of_pair=np.repeat(np.arange(len(targets), dtype=np.int64), counts),
        links=links,
        pair_bs=pair_bs,
    )


def _bs_order_within_rows(
    row_of_pair: np.ndarray, bs_ids: np.ndarray
) -> np.ndarray | None:
    """The stable order that sorts each row's pairs by BS id, or
    ``None`` when they already are (as in maps ``build_radio_map``
    builds)."""
    same_row = row_of_pair[1:] == row_of_pair[:-1]
    if not np.any(same_row & (bs_ids[1:] < bs_ids[:-1])):
        return None
    return np.lexsort((bs_ids, row_of_pair))


def _pool_remainders(
    ledgers: LedgerPool,
    bs_ids: np.ndarray,
    read: np.ndarray,
    service_ids: np.ndarray,
    svc_rank: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(rem_rrb[n_bs], rem_cru[n_bs * n_svc])`` read off a pool.

    Only the ledgers of the BS columns in ``read`` (those the run's
    pairs reference) are read; the other columns stay 0, and the kernel
    never indexes them.
    """
    n_svc = len(service_ids)
    svc_index = dict(zip(service_ids.tolist(), svc_rank.tolist()))
    rem_rrb = np.zeros(len(bs_ids), dtype=np.int64)
    rem_cru = np.zeros(len(bs_ids) * n_svc, dtype=np.int64)
    for b, bs_id in zip(read.tolist(), bs_ids[read].tolist()):
        ledger = ledgers.ledger(bs_id)
        rem_rrb[b] = ledger.remaining_rrbs
        for sid, crus in ledger.remaining_crus_by_service().items():
            rem_cru[b * n_svc + svc_index[sid]] = crus
    return rem_rrb, rem_cru


def _price_term_array(
    pricing, distances: np.ndarray, same_sp: np.ndarray
) -> np.ndarray:
    """Batched Eq. 9--10 price terms, elementwise-identical to
    ``pricing.price_per_cru`` (same operations in the same order, so
    the floats match the object engine's cached statics bit for bit).
    Unknown pricing policies fall back to a scalar loop — correct, just
    off the fast path."""
    from repro.econ.pricing import FlatPricing, PaperPricing

    if isinstance(pricing, PaperPricing):
        ownership = np.where(same_sp, 1.0, pricing.cross_sp_markup)
        return pricing.base_price * (
            ownership + pricing.distance_weight * distances
        )
    if isinstance(pricing, FlatPricing):
        return np.where(
            same_sp, pricing.same_sp_price, pricing.cross_sp_price
        ).astype(float)
    price = pricing.price_per_cru
    return np.array(
        [
            price(float(d), bool(s))
            for d, s in zip(distances.tolist(), same_sp.tolist())
        ],
        dtype=float,
    )
