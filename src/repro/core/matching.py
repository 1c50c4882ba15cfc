"""The iterative UE--BS matching engine (the skeleton of Alg. 1).

DMRA, DCSP, and NonCo all follow the same deferred-acceptance loop; they
differ only in *how UEs rank BSs* and *how BSs rank UEs*.  The engine
factors out the loop; a :class:`MatchingPolicy` supplies the two ranking
rules.  Per round:

1. every still-unassociated UE walks its candidate set ``B_u`` in
   preference order, discarding BSs that can no longer fit its demand
   (Alg. 1 lines 3--10), and sends one service request;
2. every BS picks, per requested service, its single most preferred
   candidate (lines 12--21);
3. the BS then checks the picks against its remaining RRB budget and, if
   they exceed it, drops its least preferred picks until the rest fit
   (lines 22--25); survivors are granted resources atomically;
4. rejected UEs try again next round; a UE whose ``B_u`` empties is
   forwarded to the remote cloud.

Termination: every round with outstanding requests either grants at
least one association or strictly shrinks some ``B_u`` (a UE whose
proposal-time feasibility check fails removes that BS permanently —
"resources in BS cannot increase", §V), both of which are finite.

Hot-path design
---------------
The engine produces *bit-identical* assignments to the straightforward
reference implementation (:mod:`repro.core.matching_reference`, kept for
the golden parity tests) while scaling to large populations:

* **Cached preference statics** — a policy may split its UE score into a
  round-invariant part (:meth:`MatchingPolicy.static_ue_score`, e.g. the
  Eq. 17 price term) and a per-round additive term table
  (:meth:`MatchingPolicy.round_additive_terms`, e.g. the slack term,
  which depends only on the (BS, service) ledger state frozen during a
  proposal phase).  Statics are computed once per (UE, BS) pair and
  memoized across :meth:`IterativeMatchingEngine.run` calls on the same
  network — the online simulation reuses one engine across arrival
  batches, so later batches pay no price recomputation.  The scoring
  inner loop then degenerates to one dict lookup and one addition per
  candidate, with zero per-pair policy calls.  BS-side rank keys get the
  same treatment via :meth:`MatchingPolicy.static_bs_rank_key`.
* **Incremental ``f_u`` via capacity watermarks** — instead of rescanning
  a UE's whole ledger neighbourhood per proposal, the engine tracks one
  feasibility flag per (UE, BS) pair.  Resources only shrink during a
  run, so a pair flips feasible→infeasible at most once; per-BS heaps
  keyed by demand thresholds pop exactly the pairs whose threshold the
  BS's remaining capacity just crossed.  ``f_u`` becomes an O(1) counter
  read.
* **Cursor-based candidate walks** — dead candidates are compacted out of
  the per-UE lists during the argmin scan (amortized O(1) per removal)
  instead of the reference's O(n) ``list.remove`` calls, and per-round
  bookkeeping of the unassociated set is a single linear filter.
* **O(batch) incremental runs** — a run reads, snapshots, and prices
  only the ledgers of its UEs' candidate BSs
  (:attr:`MatchingContext.candidate_bs_ids`), and reports the grants it
  books as it books them, so matching a few UEs against a pool that
  already holds many grants costs nothing per held grant or per
  untouched BS.
"""

from __future__ import annotations

import heapq
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.compute.cru import BSLedger, Grant, LedgerPool
from repro.core.assignment import Assignment
from repro.errors import AllocationError
from repro.model.entities import UserEquipment
from repro.model.network import MECNetwork
from repro.obs.telemetry import get_telemetry
from repro.radio.channel import RadioMap

__all__ = [
    "MatchingContext",
    "MatchingPolicy",
    "IterativeMatchingEngine",
    "RoundStats",
]

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class RoundStats:
    """Per-round progress numbers handed to an engine observer.

    ``propose_time_s`` / ``accept_time_s`` are the wall times of the
    round's proposal phase (Alg. 1 lines 3--10) and BS-decision phases
    (lines 12--25); the ``--profile`` CLI flag renders them.
    """

    round_number: int
    proposals: int
    accepted: int
    newly_cloud: int
    unassociated_left: int
    propose_time_s: float = 0.0
    accept_time_s: float = 0.0
    evictions: int = 0


@dataclass
class MatchingContext:
    """Live matching state exposed to policies.

    Policies read remaining resources and coverage facts from here when
    computing preference scores; they never mutate it.
    """

    network: MECNetwork
    radio_map: RadioMap
    ledgers: LedgerPool
    candidate_sets: dict[int, list[int]] = field(default_factory=dict)
    f_u_snapshot: dict[int, int] = field(default_factory=dict)
    #: The sorted union of ``candidate_sets``: every BS a run's UEs can
    #: propose to, and so every BS whose ledger the run reads.
    candidate_bs_ids: tuple[int, ...] = ()

    def rrbs_required(self, ue_id: int, bs_id: int) -> int:
        """``n_{u,i}`` for a candidate link."""
        return self.radio_map.link(ue_id, bs_id).rrbs_required

    def link_fits(self, ue: UserEquipment, bs_id: int) -> bool:
        """Alg. 1 line 6: the BS currently has room for this UE's demand."""
        ledger = self.ledgers.ledger(bs_id)
        return (
            ledger.remaining_crus(ue.service_id) >= ue.cru_demand
            and ledger.remaining_rrbs >= self.rrbs_required(ue.ue_id, bs_id)
        )

    def feasible_bs_count(self, ue_id: int) -> int:
        """The paper's ``f_u``: BSs still in ``B_u`` that can fit the UE.

        Dynamic by design — it shrinks as resources are consumed, which
        is what makes DMRA prioritize UEs with few remaining options.
        When a per-round snapshot exists (filled at proposal time, i.e.
        the value the UE itself put in its service request) it takes
        precedence: BSs must rank by the advertised ``f_u``, not by state
        that changed while other BSs processed their queues — that
        information would not exist in the decentralized deployment.
        """
        snapshot = self.f_u_snapshot.get(ue_id)
        if snapshot is not None:
            return snapshot
        return self.live_feasible_bs_count(ue_id)

    def live_feasible_bs_count(self, ue_id: int) -> int:
        """``f_u`` recomputed from current ledgers (snapshot source).

        Inside an engine run the same value is maintained incrementally
        (see the module docstring); this full rescan serves contexts
        built outside a run, where no watermark tracker exists.
        """
        ue = self.network.user_equipment(ue_id)
        return sum(
            1
            for bs_id in self.candidate_sets.get(ue_id, ())
            if self.link_fits(ue, bs_id)
        )


class MatchingPolicy(ABC):
    """The two ranking rules that differentiate matching-based schemes."""

    name: str = "policy"

    @abstractmethod
    def ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float:
        """UE-side preference; the UE proposes to the BS with the
        *smallest* score among its remaining candidates."""

    @abstractmethod
    def bs_rank_key(
        self, ue_id: int, bs_id: int, ctx: MatchingContext
    ) -> tuple:
        """BS-side preference; *smaller tuples are preferred*.

        Used both to pick one candidate per service and to decide which
        tentative picks to evict when the round's grants exceed the BS's
        remaining RRBs.
        """

    # ------------------------------------------------------------------
    # Optional hot-path hooks
    # ------------------------------------------------------------------

    def static_ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float | None:
        """Round-invariant component of :meth:`ue_score`, or ``None``.

        Returning a float opts the (UE, BS) pair into the engine's
        preference cache: the value is computed once per pair and,
        every round, combined with the policy's additive dynamic term
        (:meth:`round_additive_terms`) as ``static + term``.  Returning
        ``None`` (the default) keeps the uncached per-call path — the
        right choice whenever the score does not decompose that way.
        """
        return None

    def static_ue_scores(
        self, ue: UserEquipment, bs_ids: list[int], ctx: MatchingContext
    ) -> list[float | None]:
        """Batched :meth:`static_ue_score` over one UE's candidate BSs.

        The engine fills its preference cache through this entry point,
        so policies can hoist per-UE lookups out of the per-BS loop.
        The default delegates to the scalar hook element-wise.
        """
        return [self.static_ue_score(ue, bs_id, ctx) for bs_id in bs_ids]

    def round_additive_terms(
        self, ctx: MatchingContext, service_ids: frozenset[int]
    ) -> dict[int, dict[int, float]] | None:
        """Per-round dynamic score terms, or ``None`` to disable caching.

        Called once before each proposal phase (ledgers are frozen until
        the next BS-decision phase).  Must return
        ``{service_id: {bs_id: term}}`` such that for every UE ``u`` of
        ``service_id`` and candidate BS ``i``::

            ue_score(u, i) == static_ue_score(u, i) + term[service][i]

        *exactly* — the golden parity tests hold implementations to
        bit-identical assignments.  ``service_ids`` lists the services
        of the UEs being matched; every candidate BS of the run
        (:attr:`MatchingContext.candidate_bs_ids`) must appear in each
        inner mapping.  No other BS is needed, so a policy that prices
        only those keeps an incremental run's cost independent of the
        pool's size.
        """
        return None

    def static_bs_rank_key(
        self, ue_id: int, bs_id: int, ctx: MatchingContext
    ) -> tuple | None:
        """Round-invariant components of :meth:`bs_rank_key`, or ``None``.

        Opt-in mirror of :meth:`static_ue_score` for the BS side: the
        engine caches the returned tuple per (UE, BS) pair and rebuilds
        full keys via :meth:`bs_rank_key_from_static`.
        """
        return None

    def bs_rank_key_from_static(
        self, ue_id: int, bs_id: int, static: tuple, ctx: MatchingContext
    ) -> tuple:
        """Recombine cached static rank components with the dynamic ones
        (typically the advertised ``f_u``).  Must equal
        :meth:`bs_rank_key` exactly."""
        return self.bs_rank_key(ue_id, bs_id, ctx)


class _PairState:
    """Mutable per-(UE, BS) candidate link state.

    ``rrbs`` caches the link's ``n_{u,i}`` (radio-map lookups are pure),
    so the feasibility tracker, the RRB budget check, and the grant path
    never re-derive it.  Service requests carry these pair objects (not
    bare UE ids), which is what lets the BS-decision phases reuse the
    cached demand instead of going back to the radio map.
    """

    __slots__ = ("ue_id", "bs_id", "static", "rrbs", "alive")

    def __init__(
        self, ue_id: int, bs_id: int, static: float | None, rrbs: int
    ) -> None:
        self.ue_id = ue_id
        self.bs_id = bs_id
        self.static = static
        self.rrbs = rrbs
        self.alive = True


class _FeasibilityTracker:
    """Exact incremental ``f_u`` maintenance via capacity watermarks.

    Feasibility of a (UE, BS) pair depends only on that BS's remaining
    resources, which never grow during a run, so each pair flips
    feasible→infeasible at most once.  Alive pairs sit in per-(BS,
    service) CRU heaps and per-BS RRB heaps keyed by their demand
    thresholds; after each grant, exactly the pairs whose threshold now
    exceeds the new remainder are popped and retired.  Total work is
    O(P log P) over a whole run for P candidate pairs — versus the
    reference implementation's O(|B_u|) ledger rescan per proposal.
    """

    def __init__(self, ctx: MatchingContext, target_ids: list[int],
                 cands: dict[int, list[_PairState]],
                 ue_by_id: dict[int, UserEquipment]) -> None:
        self._count: dict[int, int] = {}
        #: Pairs retired by capacity watermarks since construction —
        #: the per-run f_u churn the round diagnostics report.
        self.retired = 0
        cru_heaps: dict[tuple[int, int], list] = {}
        rrb_heaps: dict[int, list] = {}
        # Snapshot the candidate BSs' remaining capacities once
        # (ledgers are quiescent here) so the per-pair feasibility test
        # is two dict reads.
        remaining_rrbs: dict[int, int] = {}
        remaining_crus: dict[tuple[int, int], int] = {}
        ledger_of = ctx.ledgers.ledger
        for bs_id in ctx.candidate_bs_ids:
            ledger = ledger_of(bs_id)
            remaining_rrbs[bs_id] = ledger.remaining_rrbs
            for service_id, crus in ledger.remaining_crus_by_service().items():
                remaining_crus[(bs_id, service_id)] = crus
        seq = 0
        for ue_id in target_ids:
            ue = ue_by_id[ue_id]
            service_id = ue.service_id
            cru_demand = ue.cru_demand
            alive = 0
            for pair in cands[ue_id]:
                if (
                    remaining_crus[(pair.bs_id, service_id)] < cru_demand
                    or remaining_rrbs[pair.bs_id] < pair.rrbs
                ):
                    # Already infeasible (pre-loaded ledgers): the pair
                    # can never come back, so it is born retired.
                    pair.alive = False
                    continue
                alive += 1
                seq += 1
                key = (pair.bs_id, service_id)
                heap = cru_heaps.get(key)
                if heap is None:
                    heap = cru_heaps[key] = []
                heap.append((-cru_demand, seq, pair, ue_id))
                heap = rrb_heaps.get(pair.bs_id)
                if heap is None:
                    heap = rrb_heaps[pair.bs_id] = []
                heap.append((-pair.rrbs, seq, pair, ue_id))
            self._count[ue_id] = alive
        # Bulk heapify beats P pushes: O(P) vs O(P log P) for the build.
        heapify = heapq.heapify
        for heap in cru_heaps.values():
            heapify(heap)
        for heap in rrb_heaps.values():
            heapify(heap)
        self._cru_heaps = cru_heaps
        self._rrb_heaps = rrb_heaps

    def count(self, ue_id: int) -> int:
        """Current ``f_u`` for a tracked UE — an O(1) counter read."""
        return self._count[ue_id]

    def on_grant(self, ledger: BSLedger, service_id: int) -> None:
        """Retire every pair whose threshold the grant's BS just crossed."""
        cru_heap = self._cru_heaps.get((ledger.bs_id, service_id))
        if cru_heap:
            remaining = ledger.remaining_crus(service_id)
            while cru_heap and -cru_heap[0][0] > remaining:
                _, _, pair, ue_id = heapq.heappop(cru_heap)
                if pair.alive:
                    pair.alive = False
                    self._count[ue_id] -= 1
                    self.retired += 1
        rrb_heap = self._rrb_heaps.get(ledger.bs_id)
        if rrb_heap:
            remaining = ledger.remaining_rrbs
            while rrb_heap and -rrb_heap[0][0] > remaining:
                _, _, pair, ue_id = heapq.heappop(rrb_heap)
                if pair.alive:
                    pair.alive = False
                    self._count[ue_id] -= 1
                    self.retired += 1


class IterativeMatchingEngine:
    """Runs the round loop of Alg. 1 under a given policy."""

    def __init__(self, policy: MatchingPolicy, max_rounds: int = 100_000) -> None:
        if max_rounds <= 0:
            raise AllocationError(f"max_rounds must be > 0, got {max_rounds}")
        self.policy = policy
        self.max_rounds = max_rounds
        # Static-score caches shared across run() calls on one network —
        # the online simulation's incremental batches hit them warm.  The
        # strong references also pin the key objects so ``is`` checks
        # cannot be fooled by id reuse.
        self._static_cache: dict[tuple[int, int], float | None] = {}
        self._bs_rank_cache: dict[tuple[int, int], tuple | None] = {}
        self._cache_network: MECNetwork | None = None
        self._cache_radio_map: RadioMap | None = None

    def run(
        self,
        network: MECNetwork,
        radio_map: RadioMap,
        ledgers: LedgerPool | None = None,
        ue_ids: Iterable[int] | None = None,
        observer: Callable[[RoundStats], None] | None = None,
    ) -> Assignment:
        """Execute the matching and return the final association.

        ``ledgers`` and ``ue_ids`` support *incremental* matching (the
        online simulation): pass a pool that already holds grants from
        earlier arrivals plus the ids of the newly arrived UEs, and only
        those UEs are matched against the remaining capacity.  The
        returned assignment covers exactly ``ue_ids``; pre-existing
        grants are left untouched and not reported.  Its grants are the
        ones this run booked, in :meth:`LedgerPool.all_grants` order
        (ledger order, then booking order): nothing in a run releases a
        booking, so that is exactly "the pool's grants after the run
        minus those before it".

        ``observer`` receives one :class:`RoundStats` per round — the
        hook the convergence diagnostics and phase profiling build on.

        ``Assignment.rounds`` reports *productive* rounds: rounds in
        which at least one service request was sent.  The terminating
        probe round (everyone associated or cloud-bound, zero proposals)
        is still reported to the observer but not counted.
        """
        ledgers = ledgers if ledgers is not None else LedgerPool(
            network.base_stations
        )
        if ue_ids is None:
            target_ids = sorted(ue.ue_id for ue in network.user_equipments)
        else:
            target_ids = sorted(set(ue_ids))
        # Sorted so the proposal scan's first-wins tie-break equals the
        # reference's (score, bs_id) argmin ordering.
        candidate_sets = {
            ue_id: sorted(network.candidate_base_stations(ue_id))
            for ue_id in target_ids
        }
        ctx = MatchingContext(
            network=network,
            radio_map=radio_map,
            ledgers=ledgers,
            candidate_sets=candidate_sets,
            candidate_bs_ids=tuple(sorted({
                bs_id for bs_ids in candidate_sets.values()
                for bs_id in bs_ids
            })),
        )
        network_ue = network.user_equipment
        ue_by_id = {ue_id: network_ue(ue_id) for ue_id in target_ids}
        service_ids = frozenset(ue.service_id for ue in ue_by_id.values())
        cands = self._build_pair_states(ctx, target_ids, ue_by_id)
        tracker = _FeasibilityTracker(ctx, target_ids, cands, ue_by_id)
        unassociated = list(target_ids)
        cloud: set[int] = set()
        booked: dict[int, list[Grant]] = {}
        rounds = 0
        tel = get_telemetry()

        with tel.span(
            "match", policy=self.policy.name, ues=len(target_ids)
        ) as match_span:
            while True:
                rounds += 1
                if rounds > self.max_rounds:
                    raise AllocationError(
                        f"matching did not terminate within "
                        f"{self.max_rounds} rounds"
                    )
                cloud_before = len(cloud)
                with tel.span("match.round", round=rounds) as round_span:
                    phase_start = time.perf_counter()
                    requests, proposals = self._collect_proposals(
                        ctx, unassociated, cloud, cands, tracker, ue_by_id,
                        service_ids,
                    )
                    propose_time = time.perf_counter() - phase_start
                    newly_cloud = len(cloud) - cloud_before
                    if not requests:
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
                                unassociated_left=len(unassociated),
                                propose_time_s=propose_time,
                            ))
                        break
                    phase_start = time.perf_counter()
                    retired_before = tracker.retired
                    accepted, evictions = self._process_base_stations(
                        ctx, requests, tracker, ue_by_id, booked
                    )
                    accept_time = time.perf_counter() - phase_start
                    fu_retired = tracker.retired - retired_before
                    if accepted:
                        unassociated = [
                            ue_id for ue_id in unassociated
                            if ue_id not in accepted
                        ]
                    round_span.set(
                        proposals=proposals,
                        accepted=len(accepted),
                        evictions=evictions,
                        newly_cloud=newly_cloud,
                        fu_retired=fu_retired,
                    )
                    tel.count("match.proposals", proposals)
                    tel.count("match.accepted", len(accepted))
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
                            accepted=len(accepted),
                            newly_cloud=newly_cloud,
                            unassociated_left=len(unassociated),
                            propose_time_s=propose_time,
                            accept_time_s=accept_time,
                            evictions=evictions,
                        ))

            # Any UE still unassociated at termination has an empty B_u.
            cloud.update(unassociated)
            match_span.set(rounds=rounds - 1, cloud=len(cloud))
            tel.gauge("match.rounds", rounds - 1)
        position = ledgers.position
        new_grants = tuple(
            grant
            for bs_id in sorted(booked, key=position)
            for grant in booked[bs_id]
        )
        return Assignment(
            grants=new_grants,
            cloud_ue_ids=frozenset(cloud),
            rounds=rounds - 1,
        )

    # ------------------------------------------------------------------
    # Preference statics
    # ------------------------------------------------------------------

    def _build_pair_states(
        self,
        ctx: MatchingContext,
        target_ids: list[int],
        ue_by_id: dict[int, UserEquipment],
    ) -> dict[int, list[_PairState]]:
        """One :class:`_PairState` per candidate link, statics cached."""
        if (
            self._cache_network is not ctx.network
            or self._cache_radio_map is not ctx.radio_map
        ):
            self._static_cache.clear()
            self._bs_rank_cache.clear()
            self._cache_network = ctx.network
            self._cache_radio_map = ctx.radio_map
        cache = self._static_cache
        policy = self.policy
        link = ctx.radio_map.link
        cands: dict[int, list[_PairState]] = {}
        for ue_id in target_ids:
            ue = ue_by_id[ue_id]
            bs_ids = ctx.candidate_sets[ue_id]
            missing = [
                bs_id for bs_id in bs_ids if (ue_id, bs_id) not in cache
            ]
            if len(missing) == len(bs_ids):
                # Cold cache (the common single-shot case): one batch
                # call, pairs built straight from its result.
                statics = policy.static_ue_scores(ue, bs_ids, ctx)
                pairs = []
                for bs_id, static in zip(bs_ids, statics):
                    cache[(ue_id, bs_id)] = static
                    pairs.append(
                        _PairState(
                            ue_id, bs_id, static, link(ue_id, bs_id).rrbs_required
                        )
                    )
                cands[ue_id] = pairs
                continue
            if missing:
                for bs_id, static in zip(
                    missing, policy.static_ue_scores(ue, missing, ctx)
                ):
                    cache[(ue_id, bs_id)] = static
            cands[ue_id] = [
                _PairState(
                    ue_id, bs_id, cache[(ue_id, bs_id)],
                    link(ue_id, bs_id).rrbs_required,
                )
                for bs_id in bs_ids
            ]
        return cands

    def _rank_key(self, ue_id: int, bs_id: int, ctx: MatchingContext) -> tuple:
        """BS-side sort key, with the policy's static components cached.

        Appends ``ue_id`` as the deterministic tie-break, matching the
        reference engine's ``(bs_rank_key, ue_id)`` ordering exactly.
        """
        cache = self._bs_rank_cache
        key = (ue_id, bs_id)
        try:
            static = cache[key]
        except KeyError:
            static = self.policy.static_bs_rank_key(ue_id, bs_id, ctx)
            cache[key] = static
        if static is None:
            return (self.policy.bs_rank_key(ue_id, bs_id, ctx), ue_id)
        return (
            self.policy.bs_rank_key_from_static(ue_id, bs_id, static, ctx),
            ue_id,
        )

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------

    def _collect_proposals(
        self,
        ctx: MatchingContext,
        unassociated: list[int],
        cloud: set[int],
        cands: dict[int, list[_PairState]],
        tracker: _FeasibilityTracker,
        ue_by_id: dict[int, UserEquipment],
        service_ids: frozenset[int],
    ) -> tuple[dict[int, dict[int, list[_PairState]]], int]:
        """Phase 1: each unassociated UE proposes to its best feasible BS.

        Returns ``(bs_id -> service_id -> [pair, ...], proposal count)``
        (the candidate sets ``U^c_{i,j}``, as :class:`_PairState`
        objects so the BS phases can reuse the cached ``n_{u,i}``).
        UEs whose ``B_u`` empties are moved to ``cloud`` and filtered
        out of ``unassociated`` in place.

        A retired pair can never fit again, so the argmin over *alive*
        pairs equals the reference walk that prunes infeasible argmins
        one by one; dead pairs are compacted out during the scan.  With
        a cooperating policy the per-candidate work is ``static +
        terms[service][bs]`` — no policy call at all.

        A NaN preference score is a policy bug, not a ranking: every
        comparison against it is False, which would silently skip the
        BS (and, if all scores are NaN, forward a UE with live
        candidates to the cloud).  The engine refuses to guess and
        raises :class:`AllocationError` instead.
        """
        requests: dict[int, dict[int, list[_PairState]]] = {}
        newly_cloud: list[int] = []
        proposals = 0
        ctx.f_u_snapshot.clear()
        snapshot = ctx.f_u_snapshot
        policy = self.policy
        ue_score = policy.ue_score
        terms = policy.round_additive_terms(ctx, service_ids)
        tracker_count = tracker._count
        for ue_id in unassociated:
            ue = ue_by_id[ue_id]
            pairs = cands[ue_id]
            term_by_bs = terms[ue.service_id] if terms is not None else None
            best_pair = None
            best_score = _INF
            write = 0
            for pair in pairs:
                if not pair.alive:
                    continue
                pairs[write] = pair
                write += 1
                static = pair.static
                if static is not None and term_by_bs is not None:
                    score = static + term_by_bs[pair.bs_id]
                else:
                    score = ue_score(ue, pair.bs_id, ctx)
                if score != score:  # NaN: refuse to rank on garbage
                    raise AllocationError(
                        f"policy {policy.name!r} returned NaN preference "
                        f"score for UE {ue_id}, BS {pair.bs_id}"
                    )
                # Ties break toward the lower bs_id; candidate lists are
                # ascending in bs_id, so strict < implements that.  The
                # second clause keeps an all-infinite preference list
                # proposing to its first candidate, like the reference.
                if score < best_score or (best_pair is None and score == _INF):
                    best_score = score
                    best_pair = pair
            del pairs[write:]
            if best_pair is None:
                newly_cloud.append(ue_id)
                continue
            requests.setdefault(best_pair.bs_id, {}).setdefault(
                ue.service_id, []
            ).append(best_pair)
            proposals += 1
            # The f_u the UE advertises in its service request (Alg. 1):
            # computed from the resources broadcast at the end of the
            # previous round.
            snapshot[ue_id] = tracker_count[ue_id]
        if newly_cloud:
            cloud.update(newly_cloud)
            dropped = set(newly_cloud)
            unassociated[:] = [
                ue_id for ue_id in unassociated if ue_id not in dropped
            ]
        return requests, proposals

    def _process_base_stations(
        self,
        ctx: MatchingContext,
        requests: dict[int, dict[int, list[_PairState]]],
        tracker: _FeasibilityTracker,
        ue_by_id: dict[int, UserEquipment],
        booked: dict[int, list[Grant]],
    ) -> tuple[set[int], int]:
        """Phases 2--3: per-service selection plus the RRB budget check.

        Returns the set of UE ids granted an association this round and
        the number of tentative picks evicted by the RRB budget check,
        and appends each new grant to ``booked[bs_id]``.  Requests
        arrive as :class:`_PairState` objects, so the grant below spends
        the pair's cached ``n_{u,i}`` instead of a radio-map lookup.
        """
        accepted: set[int] = set()
        evictions = 0
        for bs_id in sorted(requests):
            ledger = ctx.ledgers.ledger(bs_id)
            picks = self._pick_per_service(ctx, bs_id, requests[bs_id])
            survivors = self._fit_radio_budget(ctx, bs_id, ledger, picks)
            evictions += len(picks) - len(survivors)
            bs_booked = booked.setdefault(bs_id, [])
            for pair in survivors:
                ue = ue_by_id[pair.ue_id]
                bs_booked.append(ledger.grant(
                    ue_id=pair.ue_id,
                    service_id=ue.service_id,
                    crus=ue.cru_demand,
                    rrbs=pair.rrbs,
                ))
                tracker.on_grant(ledger, ue.service_id)
                accepted.add(pair.ue_id)
        return accepted, evictions

    def _pick_per_service(
        self,
        ctx: MatchingContext,
        bs_id: int,
        by_service: dict[int, list[_PairState]],
    ) -> list[_PairState]:
        """Alg. 1 lines 13--21: one most-preferred candidate per service."""
        picks: list[_PairState] = []
        rank = self._rank_key
        for service_id in sorted(by_service):
            candidates = by_service[service_id]
            best = min(
                candidates, key=lambda pair: rank(pair.ue_id, bs_id, ctx)
            )
            picks.append(best)
        return picks

    def _fit_radio_budget(
        self,
        ctx: MatchingContext,
        bs_id: int,
        ledger: BSLedger,
        picks: list[_PairState],
    ) -> list[_PairState]:
        """Alg. 1 lines 22--25: evict least preferred picks until the
        round's combined RRB demand fits the remaining budget.

        Demands come from the picks' cached ``_PairState.rrbs`` (filled
        once at pair-state build time) — no radio-map lookups here.
        """
        total = sum(pair.rrbs for pair in picks)
        if total <= ledger.remaining_rrbs:
            return picks
        rank = self._rank_key
        ranked = sorted(
            picks, key=lambda pair: rank(pair.ue_id, bs_id, ctx)
        )
        while ranked and total > ledger.remaining_rrbs:
            evicted = ranked.pop()  # least preferred = largest rank key
            total -= evicted.rrbs
        return ranked
