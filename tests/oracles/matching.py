"""The straightforward (seed) implementation of the Alg. 1 round loop.

:class:`ReferenceMatchingEngine` is the direct transcription of Alg. 1
that the optimized :class:`~repro.core.matching.IterativeMatchingEngine`
grew out of: every UE's candidate walk re-scores the whole ``B_u`` with
``min()`` and prunes via ``list.remove``, and ``f_u`` is recomputed from
the ledgers on every proposal.  It is O(rounds · UEs · |B_u|) with heavy
constants — fine for hand-sized networks, the throughput bottleneck at
production scale.

It is kept as the oracle of the golden parity suite, which asserts
that the optimized engine produces bit-identical assignments — same
grants, same cloud set, same productive round count — on seeded
scenarios under every policy.

:func:`per_pair_states` is the optimized engine's old run set-up, one
radio-map and policy call per candidate pair; the engine now reads a
run's links as columns, and a property suite holds its pair states
equal to these.

Round semantics match the optimized engine: ``Assignment.rounds``
counts *productive* rounds (rounds that sent at least one service
request), excluding the terminating zero-proposal probe.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.compute.cru import LedgerPool
from repro.core.assignment import Assignment
from repro.core.matching import MatchingContext, MatchingPolicy, RoundStats
from repro.errors import AllocationError
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

__all__ = ["ReferenceMatchingEngine", "per_pair_states"]


def per_pair_states(
    policy: MatchingPolicy,
    network: MECNetwork,
    radio_map: RadioMap,
    ledgers: LedgerPool,
    ue_ids: Iterable[int],
) -> dict[int, list[tuple[int, float | None, int, bool]]]:
    """Each target UE's pair states as the per-pair set-up built them.

    One ``(bs_id, static, rrbs, alive)`` per BS of the UE's ``B_u`` (the
    network's candidate set), ascending in ``bs_id``: ``static`` from
    one scalar :meth:`MatchingPolicy.static_ue_score` call per pair --
    for DMRA :func:`~repro.core.preferences.dmra_price_term`, which
    looks up ``network.distance_m`` per pair, exactly what DMRA's
    batched hook computed when it priced pair by pair -- ``rrbs`` from
    ``radio_map.link()``, and ``alive`` false for a pair the pool can
    no longer fit (born retired).
    """
    target_ids = sorted(set(ue_ids))
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
            bs_id for bs_ids in candidate_sets.values() for bs_id in bs_ids
        })),
    )
    states = {}
    for ue_id in target_ids:
        ue = network.user_equipment(ue_id)
        rows = []
        for bs_id in candidate_sets[ue_id]:
            rrbs = radio_map.link(ue_id, bs_id).rrbs_required
            ledger = ledgers.ledger(bs_id)
            alive = (
                ledger.remaining_crus(ue.service_id) >= ue.cru_demand
                and ledger.remaining_rrbs >= rrbs
            )
            rows.append(
                (bs_id, policy.static_ue_score(ue, bs_id, ctx), rrbs, alive)
            )
        states[ue_id] = rows
    return states


class ReferenceMatchingEngine:
    """Runs the round loop of Alg. 1 the simple, quadratic way."""

    def __init__(self, policy: MatchingPolicy, max_rounds: int = 100_000) -> None:
        if max_rounds <= 0:
            raise AllocationError(f"max_rounds must be > 0, got {max_rounds}")
        self.policy = policy
        self.max_rounds = max_rounds

    def run(
        self,
        network: MECNetwork,
        radio_map: RadioMap,
        ledgers: LedgerPool | None = None,
        ue_ids: Iterable[int] | None = None,
        observer: Callable[[RoundStats], None] | None = None,
    ) -> Assignment:
        """Execute the matching and return the final association."""
        ledgers = ledgers if ledgers is not None else LedgerPool(
            network.base_stations
        )
        if ue_ids is None:
            target_ids = sorted(ue.ue_id for ue in network.user_equipments)
        else:
            target_ids = sorted(set(ue_ids))
        preexisting = {
            (grant.bs_id, grant.ue_id) for grant in ledgers.all_grants()
        }
        ctx = MatchingContext(
            network=network,
            radio_map=radio_map,
            ledgers=ledgers,
            candidate_sets={
                ue_id: list(network.candidate_base_stations(ue_id))
                for ue_id in target_ids
            },
        )
        unassociated = list(target_ids)
        cloud: set[int] = set()
        rounds = 0

        while True:
            rounds += 1
            if rounds > self.max_rounds:
                raise AllocationError(
                    f"matching did not terminate within {self.max_rounds} rounds"
                )
            cloud_before = len(cloud)
            requests = self._collect_proposals(ctx, unassociated, cloud)
            proposals = sum(
                len(ue_list)
                for by_service in requests.values()
                for ue_list in by_service.values()
            )
            if not requests:
                if observer is not None:
                    observer(RoundStats(
                        round_number=rounds,
                        proposals=0,
                        accepted=0,
                        newly_cloud=len(cloud) - cloud_before,
                        unassociated_left=len(unassociated),
                    ))
                break
            accepted = self._process_base_stations(ctx, requests)
            if accepted:
                remaining = set(unassociated) - accepted
                unassociated = sorted(remaining)
            if observer is not None:
                observer(RoundStats(
                    round_number=rounds,
                    proposals=proposals,
                    accepted=len(accepted),
                    newly_cloud=len(cloud) - cloud_before,
                    unassociated_left=len(unassociated),
                ))

        # Any UE still unassociated at termination has an empty B_u.
        cloud.update(unassociated)
        new_grants = tuple(
            grant
            for grant in ledgers.all_grants()
            if (grant.bs_id, grant.ue_id) not in preexisting
        )
        return Assignment(
            grants=new_grants,
            cloud_ue_ids=frozenset(cloud),
            rounds=rounds - 1,
        )

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------

    def _collect_proposals(
        self,
        ctx: MatchingContext,
        unassociated: list[int],
        cloud: set[int],
    ) -> dict[int, dict[int, list[int]]]:
        """Phase 1: each unassociated UE proposes to its best feasible BS.

        Returns ``bs_id -> service_id -> [ue_id, ...]`` (the candidate
        sets ``U^c_{i,j}``).  UEs whose ``B_u`` empties are moved to
        ``cloud`` and removed from ``unassociated`` in place.
        """
        requests: dict[int, dict[int, list[int]]] = {}
        newly_cloud: list[int] = []
        ctx.f_u_snapshot.clear()
        for ue_id in unassociated:
            if ue_id in cloud:
                continue
            ue = ctx.network.user_equipment(ue_id)
            candidates = ctx.candidate_sets[ue_id]
            proposed = False
            while candidates:
                scored = []
                for bs_id in candidates:
                    score = self.policy.ue_score(ue, bs_id, ctx)
                    if score != score:  # NaN: refuse to rank on garbage
                        raise AllocationError(
                            f"policy {self.policy.name!r} returned NaN "
                            f"preference score for UE {ue_id}, BS {bs_id}"
                        )
                    scored.append((score, bs_id))
                best = min(scored)[1]
                if ctx.link_fits(ue, best):
                    requests.setdefault(best, {}).setdefault(
                        ue.service_id, []
                    ).append(ue_id)
                    # The f_u the UE advertises in its service request
                    # (Alg. 1): computed from the resources broadcast at
                    # the end of the previous round.
                    ctx.f_u_snapshot[ue_id] = ctx.live_feasible_bs_count(
                        ue_id
                    )
                    proposed = True
                    break
                candidates.remove(best)
            if not proposed:
                newly_cloud.append(ue_id)
        for ue_id in newly_cloud:
            cloud.add(ue_id)
            unassociated.remove(ue_id)
        return requests

    def _process_base_stations(
        self,
        ctx: MatchingContext,
        requests: dict[int, dict[int, list[int]]],
    ) -> set[int]:
        """Phases 2--3: per-service selection plus the RRB budget check."""
        accepted: set[int] = set()
        for bs_id in sorted(requests):
            ledger = ctx.ledgers.ledger(bs_id)
            picks = self._pick_per_service(ctx, bs_id, requests[bs_id])
            survivors = self._fit_radio_budget(ctx, bs_id, ledger, picks)
            for ue_id in survivors:
                ue = ctx.network.user_equipment(ue_id)
                ledger.grant(
                    ue_id=ue_id,
                    service_id=ue.service_id,
                    crus=ue.cru_demand,
                    rrbs=ctx.rrbs_required(ue_id, bs_id),
                )
                accepted.add(ue_id)
        return accepted

    def _pick_per_service(
        self,
        ctx: MatchingContext,
        bs_id: int,
        by_service: dict[int, list[int]],
    ) -> list[int]:
        """Alg. 1 lines 13--21: one most-preferred candidate per service."""
        picks: list[int] = []
        for service_id in sorted(by_service):
            candidates = by_service[service_id]
            best = min(
                candidates,
                key=lambda ue_id: (
                    self.policy.bs_rank_key(ue_id, bs_id, ctx),
                    ue_id,
                ),
            )
            picks.append(best)
        return picks

    def _fit_radio_budget(
        self,
        ctx: MatchingContext,
        bs_id: int,
        ledger,
        picks: list[int],
    ) -> list[int]:
        """Alg. 1 lines 22--25: evict least preferred picks until the
        round's combined RRB demand fits the remaining budget."""
        demand = {
            ue_id: ctx.rrbs_required(ue_id, bs_id) for ue_id in picks
        }
        total = sum(demand.values())
        if total <= ledger.remaining_rrbs:
            return picks
        ranked = sorted(
            picks,
            key=lambda ue_id: (self.policy.bs_rank_key(ue_id, bs_id, ctx), ue_id),
        )
        while ranked and total > ledger.remaining_rrbs:
            evicted = ranked.pop()  # least preferred = largest rank key
            total -= demand[evicted]
        return ranked
