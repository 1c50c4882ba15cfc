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
  within a row — the object engine's scan order), compiled once: the
  (BS, service) slot, the ``n_{u,i}`` RRB demand lifted straight from
  the :class:`~repro.radio.channel.RadioMap` columns, and the cached
  Eq. 17 price term ``p_{i,u}``.  Born-infeasible pairs are dropped.
* **The frontier**: those three columns for the alive pairs of
  still-unassociated UEs only, cut into one segment per UE (its length
  is the UE's ``f_u``).  Each round compacts it, and an untraced run
  never scans all pairs again.

Each round is then:

1. **Vectorized Eq. 17 scoring + argmin** — ``score = static +
   rho / slack`` (the slack term once per slot) over the frontier, with
   a segmented first-occurrence argmin per UE (exactly the reference
   engine's ``(score, bs_id)`` tie-break, because segments are
   ascending in ``bs_id``).  UEs whose segment empties go to the cloud.
2. **Grouped per-(BS, service) selection** — one argsort of a packed
   int64 key ``(slot, cross-SP, f_u, footprint, row)`` picks each
   slot's most preferred proposal (rows ascend with ``ue_id``); a key
   range past int64 falls back to the equivalent lexsort.
3. **Closed-form RRB-budget eviction** — an over-budget BS keeps the
   longest rank-ordered prefix whose demand cumsum fits (the engine's
   evict-from-the-tail loop), for all such BSs in one segmented cumsum.
4. **Watermark-style retirement** — grants shrink the columnar
   remainders, which never grow, so a pair can die only at a slot or
   BS granted this round (the monotonicity behind the object engine's
   heaps).  Granted UEs leave the frontier; the feasibility pass over
   it runs only when a grant left a remainder below the run's largest
   demand.  Only a recording run keeps every pair's alive mask, for the
   ``fu_retired`` count, which includes already-granted UEs' pairs.

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

def _segmented_argmin(
    scores: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Index of the first minimum of each contiguous, non-empty segment
    of ``scores`` (``starts`` ascending, ``counts`` their lengths;
    ``+inf`` scores included, NaN not)."""
    mins = np.minimum.reduceat(scores, starts)
    hits = np.flatnonzero(scores == np.repeat(mins, counts))
    return hits[np.searchsorted(hits, starts)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal ``values`` begins."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def _rank_order(
    lead: np.ndarray, lead_bound: int, keys: list[tuple[np.ndarray, int]]
) -> np.ndarray:
    """The order that sorts by ``lead``, then by each ``(column, bound)``
    of ``keys`` in turn (values in ``[0, bound)``; the last column
    unique).

    One argsort of a packed int64 key when the key range fits (computed
    with Python ints, so it cannot wrap), else the equivalent lexsort.
    """
    span = lead_bound
    for _, bound in keys:
        span *= bound
    if span >= 2**63:
        return np.lexsort(tuple(col for col, _ in reversed(keys)) + (lead,))
    packed = lead.astype(np.int64)
    for col, bound in keys:
        packed *= bound
        packed += col
    return np.argsort(packed)


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
        tel = get_telemetry()

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
        pair_static = _price_term_array(
            policy.pricing, radio_map.distances_m[sel],
            ue_sp[row_of_pair] == bs_sp[pair_bs],
        )
        pair_slot = pair_bs * n_svc + ue_svc[row_of_pair]
        pair_cru = ue_cru[row_of_pair]
        # Born-retired pairs (pre-loaded ledgers / undersized BSs) start
        # dead and are never counted as in-run f_u retirement.
        alive = (rem_cru[pair_slot] >= pair_cru) & (
            np.repeat(rem_rrb, n_svc)[pair_slot] >= pair_rrbs
        )
        row_counts = np.bincount(row_of_pair[alive], minlength=n_ue)

        # The frontier: the alive pairs of still-unassociated UEs in CSR
        # order, one column each of (BS, service) slot, cached Eq. 17
        # price and n_{u,i}, cut into per-UE segments (seg_rows,
        # seg_counts; a segment's length is the UE's f_u).
        f_slot, f_static, f_rrb = pair_slot, pair_static, pair_rrbs
        if not alive.all():
            kept = np.flatnonzero(alive)
            f_slot, f_static, f_rrb = (
                f_slot[kept], f_static[kept], f_rrb[kept]
            )
        seg_rows = np.flatnonzero(row_counts)
        seg_counts = row_counts[seg_rows]
        # UEs whose B_u is already empty go to the cloud in round 1.
        pending_cloud = np.flatnonzero(row_counts == 0)
        unassociated_left = n_ue
        # Only a recording run keeps every pair's feasibility inputs,
        # for the fu_retired count; all other compile temporaries go.
        tracing = tel.enabled
        all_pairs = (alive, pair_slot, pair_cru, pair_rrbs) if tracing else None
        alive_count = int(f_slot.size)
        del gathered, sel, order, pair_bs, row_of_pair
        del alive, pair_slot, pair_static, pair_cru, pair_rrbs
        # A grant can retire a pair only where it leaves a remainder
        # below the run's largest demand.
        max_cru = int(ue_cru.max(initial=0))
        max_rrb = int(f_rrb.max(initial=0))
        cloud_rows: list[np.ndarray] = []
        grant_bs_parts: list[np.ndarray] = []
        grant_row_parts: list[np.ndarray] = []
        grant_rrb_parts: list[np.ndarray] = []

        rho = policy.rho
        same_sp_priority = policy.same_sp_priority
        rounds = 0

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
                    # A UE whose row went empty has an exhausted B_u.
                    newly_cloud = int(pending_cloud.size)
                    if newly_cloud:
                        cloud_rows.append(pending_cloud)
                        unassociated_left -= newly_cloud
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
                                unassociated_left=unassociated_left,
                                propose_time_s=propose_time,
                            ))
                        break

                    phase_start = time.perf_counter()
                    # Eq. 17: static price + rho / (CRU + RRB slack),
                    # the slack term computed once per (BS, service).
                    slot_rrb = np.repeat(rem_rrb, n_svc)
                    slack = rem_cru + slot_rrb
                    term = np.empty(slack.size, dtype=float)
                    positive = slack > 0
                    np.divide(rho, slack, out=term, where=positive)
                    term[~positive] = np.inf if rho > 0 else 0.0
                    scores = f_static + term[f_slot]
                    starts = np.cumsum(seg_counts) - seg_counts
                    nan_at = np.flatnonzero(np.isnan(scores))
                    if nan_at.size:
                        first_bad = nan_at[0]
                        bad_seg = np.searchsorted(starts, first_bad, "right")
                        raise AllocationError(
                            f"policy {policy.name!r} returned NaN "
                            f"preference score for UE "
                            f"{int(ue_id_arr[seg_rows[bad_seg - 1]])}, "
                            f"BS {int(bs_id_arr[f_slot[first_bad] // n_svc])}"
                        )
                    chosen = _segmented_argmin(scores, starts, seg_counts)
                    propose_time += time.perf_counter() - phase_start

                    phase_start = time.perf_counter()
                    # Per-(BS, service) selection by the DMRA rank key;
                    # seg_counts is the advertised f_u (alive pairs at
                    # proposal time — the watermark tracker's counter).
                    p_slot = f_slot[chosen]
                    p_bs = p_slot // n_svc
                    p_rrb = f_rrb[chosen]
                    p_foot = p_rrb + ue_cru[seg_rows]
                    rank_keys = [
                        (seg_counts, int(seg_counts.max()) + 1),
                        (p_foot, int(p_foot.max()) + 1),
                        (seg_rows, n_ue),
                    ]
                    if same_sp_priority:
                        p_cross = ue_sp[seg_rows] != bs_sp[p_bs]
                        rank_keys.insert(0, (p_cross, 2))
                    sort_order = _rank_order(p_slot, n_bs * n_svc, rank_keys)
                    picks = sort_order[_run_starts(p_slot[sort_order])]

                    # RRB budget per BS: the engine's evict-from-the-
                    # tail loop == keep the longest rank-ordered prefix
                    # whose demand cumsum fits the remaining budget.
                    k_bs = p_bs[picks]
                    bs_starts = np.flatnonzero(_run_starts(k_bs))
                    totals = np.add.reduceat(p_rrb[picks], bs_starts)
                    over = totals > rem_rrb[k_bs[bs_starts]]
                    evictions = 0
                    if over.any():
                        at_over = np.repeat(
                            over, np.diff(np.append(bs_starts, picks.size))
                        )
                        ranked = picks[at_over]
                        ranked = ranked[_rank_order(
                            p_bs[ranked], n_bs,
                            [(col[ranked], bound) for col, bound in rank_keys],
                        )]
                        # Segmented cumsum: each BS's running demand is
                        # the global one minus what precedes its first
                        # pick (non-decreasing, so a running max).
                        r_bs, r_rrb = p_bs[ranked], p_rrb[ranked]
                        demand = np.cumsum(r_rrb)
                        base = np.maximum.accumulate(
                            np.where(_run_starts(r_bs), demand - r_rrb, 0)
                        )
                        fits = demand - base <= rem_rrb[r_bs]
                        evictions = int(ranked.size - fits.sum())
                        picks = np.concatenate(
                            (picks[~at_over], ranked[fits])
                        )

                    g_bs = p_bs[picks]
                    g_row = seg_rows[picks]
                    g_rrb = p_rrb[picks]
                    g_slot = p_slot[picks]
                    np.subtract.at(rem_rrb, g_bs, g_rrb)
                    rem_cru[g_slot] -= ue_cru[g_row]
                    accepted = int(picks.size)
                    unassociated_left -= accepted
                    grant_bs_parts.append(g_bs)
                    grant_row_parts.append(g_row)
                    grant_rrb_parts.append(g_rrb)

                    # Retirement on the frontier: granted UEs leave it,
                    # and since remainders only shrink, a pair can die
                    # only at a slot or BS granted this round — so the
                    # feasibility pass runs only when a grant left some
                    # remainder below the run's largest demand.
                    at_risk = (
                        int(rem_cru[g_slot].min()) < max_cru
                        or int(rem_rrb[g_bs].min()) < max_rrb
                    )
                    unmatched = np.ones(proposals, dtype=bool)
                    unmatched[picks] = False
                    keep = np.repeat(unmatched, seg_counts)
                    left = np.where(unmatched, seg_counts, 0)
                    fu_retired = 0
                    if at_risk:
                        slot_rrb = np.repeat(rem_rrb, n_svc)
                        keep &= (
                            rem_cru[f_slot]
                            >= np.repeat(ue_cru[seg_rows], seg_counts)
                        ) & (slot_rrb[f_slot] >= f_rrb)
                        left = np.add.reduceat(keep, starts, dtype=np.int64)
                        if tracing:
                            alive, slots, crus, rrbs = all_pairs
                            alive &= (rem_cru[slots] >= crus) & (
                                slot_rrb[slots] >= rrbs
                            )
                            fu_retired = alive_count - int(alive.sum())
                            alive_count -= fu_retired
                    kept = np.flatnonzero(keep)
                    f_slot, f_static, f_rrb = (
                        f_slot[kept], f_static[kept], f_rrb[kept]
                    )
                    pending_cloud = seg_rows[unmatched & (left == 0)]
                    seg_rows, seg_counts = seg_rows[left > 0], left[left > 0]
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
                            unassociated_left=unassociated_left,
                            propose_time_s=propose_time,
                            accept_time_s=accept_time,
                            evictions=evictions,
                        ))

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
