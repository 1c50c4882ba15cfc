"""Agent-based decentralized DMRA: UE, BS, and SP agents passing messages.

This is the deployment-shaped implementation of Alg. 1.  Where
:class:`~repro.core.dmra.DMRAAllocator` runs the matching as one loop
over shared state, here every entity is an agent with private state:

* a :class:`UEAgent` sees only the resource broadcasts of the BSs that
  cover it and decides proposals locally (Eq. 17);
* a :class:`BSAgent` sees only the service requests in its mailbox and
  decides acceptances locally (BS-side preference + RRB budget);
* a :class:`SPAgent` relays messages between its subscribers and the
  BSs, and forwards unserveable tasks to the remote cloud — the "middle
  layer" role the paper assigns to SPs.

The agent classes are transport-agnostic: they consume and produce
:mod:`repro.core.messages` values and never touch a socket, queue, or
clock.  :mod:`repro.dist` drives them in synchronous rounds, as node
objects called in turn inside one process or across forked OS
processes, behind a pluggable transport; the staleness ablation runs
on the same loop under a fault plan that delays every broadcast.  With
no fault plan every transport is bit-identical to the direct engine
(asserted by the equivalence integration tests), demonstrating that
DMRA genuinely needs no central coordinator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.compute.cru import BSLedger
from repro.core.messages import (
    AssociationGrant,
    CloudFallbackNotice,
    ReleaseNotice,
    ResourceBroadcast,
    ServiceRequest,
)
from repro.econ.pricing import PricingPolicy
from repro.errors import AllocationError
from repro.model.entities import BaseStation, UserEquipment
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

__all__ = [
    "UEAgent",
    "BSAgent",
    "SPAgent",
    "build_ue_agents",
]


@dataclass(frozen=True, slots=True)
class _CandidateInfo:
    """What a UE knows statically about one reachable BS."""

    bs_id: int
    price_per_cru: float
    rrbs_required: int


class UEAgent:
    """One user equipment: proposes per Eq. 17, from broadcasts only."""

    def __init__(
        self,
        ue: UserEquipment,
        candidates: list[_CandidateInfo],
        rho: float,
    ) -> None:
        self.ue = ue
        self.rho = rho
        self._candidates: dict[int, _CandidateInfo] = {
            info.bs_id: info for info in candidates
        }
        self._broadcasts: dict[int, ResourceBroadcast] = {}
        # Freshest (epoch, seq) accepted per BS; strictly older
        # broadcasts are stale (reordered or delayed in transit) and
        # must not overwrite newer state.
        self._freshness: dict[int, tuple[int, int]] = {}
        self.associated_bs: int | None = None
        self._assoc_epoch = 0
        self.gave_up = False
        # Explicit-release protocol state: the BS of the proposal still
        # awaiting an answer, releases queued for the transport layer to
        # drain, and the epoch at which each BS was last released (a
        # grant at or below that epoch is void — the UE already walked
        # away from it).
        self._proposed_bs: int | None = None
        self._pending_releases: list[ReleaseNotice] = []
        self._released: dict[int, int] = {}

    @property
    def ue_id(self) -> int:
        return self.ue.ue_id

    @property
    def candidate_bs_ids(self) -> tuple[int, ...]:
        """The UE's current ``B_u``."""
        return tuple(sorted(self._candidates))

    def has_candidate(self, bs_id: int) -> bool:
        """Whether ``bs_id`` is still in the UE's ``B_u``."""
        return bs_id in self._candidates

    def observe(self, broadcast: ResourceBroadcast) -> bool:
        """Receive a BS's resource broadcast (only covering BSs send one).

        Returns ``False`` when the broadcast is stale — strictly older
        by ``(epoch, seq)`` than one already seen from the same BS — and
        was discarded.  An epoch bump means the BS restarted with a
        fresh ledger: any association this UE held there is void, so it
        re-enters the matching.
        """
        stamp = (broadcast.epoch, broadcast.seq)
        known = self._freshness.get(broadcast.bs_id)
        if known is not None and stamp < known:
            return False
        if (
            self.associated_bs == broadcast.bs_id
            and broadcast.epoch > self._assoc_epoch
        ):
            # The serving BS restarted after our grant was booked: the
            # reservation is gone, so re-enter the matching.
            self.associated_bs = None
        self._freshness[broadcast.bs_id] = stamp
        self._broadcasts[broadcast.bs_id] = broadcast
        return True

    def receive_grant(self, grant: AssociationGrant) -> bool:
        """Accept an association grant addressed to this UE.

        Returns ``False`` (grant declined) in three cases:

        * the grant's epoch is older than the freshest epoch seen from
          that BS — the reservation was wiped by a crash, so honoring
          the late grant would leave the UE associated to a BS that no
          longer serves it;
        * the UE already released that BS at this epoch (it walked away
          from the proposal the grant answers) — the release is
          re-queued in case the earlier notice was lost in transit;
        * the UE is already associated elsewhere (a duplicate
          acceptance, possible when a lost grant made it re-propose) —
          it keeps the association it has and queues a release so the
          declined BS frees the booking instead of stranding it.
        """
        if grant.ue_id != self.ue_id:
            raise AllocationError(
                f"UE {self.ue_id} received a grant addressed to {grant.ue_id}"
            )
        known = self._freshness.get(grant.bs_id)
        if known is not None and grant.epoch < known[0]:
            return False
        released = self._released.get(grant.bs_id)
        if released is not None and grant.epoch <= released:
            self._queue_release(grant.bs_id, grant.epoch)
            return False
        if self.associated_bs is not None and self.associated_bs != grant.bs_id:
            self._queue_release(grant.bs_id, grant.epoch)
            return False
        self.associated_bs = grant.bs_id
        self._assoc_epoch = grant.epoch
        self._proposed_bs = None
        return True

    def _queue_release(self, bs_id: int, epoch: int) -> None:
        previous = self._released.get(bs_id)
        self._released[bs_id] = (
            epoch if previous is None else max(previous, epoch)
        )
        self._pending_releases.append(
            ReleaseNotice(
                ue_id=self.ue_id,
                sp_id=self.ue.sp_id,
                bs_id=bs_id,
                epoch=epoch,
            )
        )

    def drain_releases(self) -> list[ReleaseNotice]:
        """Queued release notices, cleared on read (transport hook)."""
        notices = self._pending_releases
        self._pending_releases = []
        return notices

    def still_released(self, bs_id: int) -> bool:
        """Whether the UE still disowns ``bs_id`` (no re-proposal since
        the release).  Transports that re-send unacked releases must
        stop once this turns ``False``, or the re-sent notice would free
        the booking of the *new* proposal."""
        return bs_id in self._released

    # ------------------------------------------------------------------
    # Decision logic (Alg. 1 lines 3--10, run locally)
    # ------------------------------------------------------------------

    def _slack(self, bs_id: int) -> int:
        """The Eq. 17 denominator as known from the latest broadcast:
        remaining CRUs of this UE's service plus remaining RRBs —
        exactly the direct engine's ``dmra_slack_term`` inputs.
        ``-1`` flags "no broadcast seen yet" (see :meth:`_score`)."""
        broadcast = self._broadcasts.get(bs_id)
        if broadcast is None:
            # No broadcast yet means the first round: assume the static
            # capacities the candidate list was built against are intact.
            return -1
        return (
            broadcast.remaining_crus.get(self.ue.service_id, 0)
            + broadcast.remaining_rrbs
        )

    def _fits(self, info: _CandidateInfo) -> bool:
        broadcast = self._broadcasts.get(info.bs_id)
        if broadcast is None:
            return True
        return (
            broadcast.remaining_crus.get(self.ue.service_id, 0)
            >= self.ue.cru_demand
            and broadcast.remaining_rrbs >= info.rrbs_required
        )

    def _score(self, info: _CandidateInfo) -> float:
        slack = self._slack(info.bs_id)
        if slack < 0:
            # No broadcast seen yet: order by price alone, which is what
            # a UE can do before it knows any BS's slack.  A reliable run
            # broadcasts before the first proposal, so this branch is
            # taken only when broadcasts are delayed: for the first
            # ``delay`` rounds of a staleness run.
            return info.price_per_cru
        if slack == 0:
            return math.inf if self.rho > 0 else info.price_per_cru
        return info.price_per_cru + self.rho / slack

    def coverage_count(self) -> int:
        """``f_u``: candidates that still fit per the latest broadcasts."""
        return sum(1 for info in self._candidates.values() if self._fits(info))

    def _release_abandoned_proposal(self, next_bs_id: int | None) -> None:
        """Queue a release for the BS of a proposal the UE walks away
        from (it switched targets or fell back to the cloud).  The UE
        cannot know whether that BS granted — if it did and the grant
        was lost, the booking would otherwise stay stranded; if it did
        not, the release is a no-op there."""
        if self._proposed_bs is None or self._proposed_bs == next_bs_id:
            return
        epoch = self._freshness.get(self._proposed_bs, (0, 0))[0]
        self._queue_release(self._proposed_bs, epoch)

    def propose(self) -> ServiceRequest | CloudFallbackNotice | None:
        """Run one proposal step; ``None`` when already associated."""
        if self.associated_bs is not None or self.gave_up:
            return None
        while self._candidates:
            best = min(
                self._candidates.values(),
                key=lambda info: (self._score(info), info.bs_id),
            )
            if self._fits(best):
                self._release_abandoned_proposal(best.bs_id)
                # A fresh proposal supersedes any earlier walk-away:
                # the grant it solicits must be acceptable again.
                self._released.pop(best.bs_id, None)
                self._proposed_bs = best.bs_id
                return ServiceRequest(
                    ue_id=self.ue_id,
                    sp_id=self.ue.sp_id,
                    target_bs_id=best.bs_id,
                    service_id=self.ue.service_id,
                    cru_demand=self.ue.cru_demand,
                    rrbs_required=best.rrbs_required,
                    coverage_count=self.coverage_count(),
                )
            del self._candidates[best.bs_id]
        self.gave_up = True
        self._release_abandoned_proposal(None)
        self._proposed_bs = None
        return CloudFallbackNotice(ue_id=self.ue_id, sp_id=self.ue.sp_id)


class BSAgent:
    """One base station: accepts per the BS-side preference, from its
    mailbox only."""

    def __init__(self, base_station: BaseStation, epoch: int = 0) -> None:
        self.bs = base_station
        self.ledger = BSLedger(base_station)
        self.epoch = epoch
        self._seq = 0
        self._mailbox: list[ServiceRequest] = []

    @property
    def bs_id(self) -> int:
        return self.bs.bs_id

    def reset(self) -> None:
        """Crash recovery: restart with a fresh ledger in a new epoch.

        Every grant this BS held is void; UEs discover that from the
        epoch bump carried by the next broadcast.  ``seq`` keeps
        counting so ``(epoch, seq)`` stays totally ordered.
        """
        self.ledger = BSLedger(self.bs)
        self.epoch += 1
        self._mailbox.clear()

    def deliver(self, request: ServiceRequest) -> None:
        """Queue a service request addressed to this BS."""
        if request.target_bs_id != self.bs_id:
            raise AllocationError(
                f"BS {self.bs_id} received a request targeting "
                f"{request.target_bs_id}"
            )
        self._mailbox.append(request)

    def _rank_key(self, request: ServiceRequest) -> tuple[int, int, int, int]:
        """Smaller = preferred: own subscribers, then smallest f_u, then
        lightest footprint, then UE id for determinism."""
        return (
            0 if request.sp_id == self.bs.sp_id else 1,
            request.coverage_count,
            request.rrbs_required + request.cru_demand,
            request.ue_id,
        )

    def process_round(self) -> list[AssociationGrant]:
        """Alg. 1 lines 12--25 over the current mailbox.

        Requests that no longer fit the BS's *actual* remaining
        resources are discarded up front.  With fresh broadcasts this
        filter never fires (the UE checked the same state before
        proposing); it exists for the stale-broadcast regime, where UEs
        may propose on outdated information and the BS — which always
        knows its own ledger — must be the backstop.  Requests from UEs
        this BS already serves are dropped too: under an unreliable
        transport a UE whose grant was lost in transit re-proposes, and
        regranting would double-book the ledger.
        """
        if not self._mailbox:
            return []
        by_service: dict[int, list[ServiceRequest]] = {}
        for request in self._mailbox:
            if (
                request.ue_id in self.ledger.grants
                or self.ledger.remaining_crus(request.service_id)
                < request.cru_demand
                or self.ledger.remaining_rrbs < request.rrbs_required
            ):
                continue
            by_service.setdefault(request.service_id, []).append(request)
        self._mailbox.clear()
        if not by_service:
            return []

        picks = [
            min(candidates, key=self._rank_key)
            for _, candidates in sorted(by_service.items())
        ]
        total_rrbs = sum(p.rrbs_required for p in picks)
        if total_rrbs > self.ledger.remaining_rrbs:
            ranked = sorted(picks, key=self._rank_key)
            while ranked and total_rrbs > self.ledger.remaining_rrbs:
                evicted = ranked.pop()
                total_rrbs -= evicted.rrbs_required
            picks = ranked

        grants: list[AssociationGrant] = []
        for request in picks:
            self.ledger.grant(
                ue_id=request.ue_id,
                service_id=request.service_id,
                crus=request.cru_demand,
                rrbs=request.rrbs_required,
            )
            grants.append(
                AssociationGrant(
                    bs_id=self.bs_id,
                    ue_id=request.ue_id,
                    service_id=request.service_id,
                    crus=request.cru_demand,
                    rrbs=request.rrbs_required,
                    epoch=self.epoch,
                )
            )
        return grants

    def release(self, ue_id: int, epoch: int) -> bool:
        """Honor a :class:`ReleaseNotice`: free the UE's reservation.

        Ignored (``False``) when the epoch does not match the current
        ledger epoch — the booking the notice names was already wiped
        by a crash, and a same-id booking from a later epoch belongs to
        a *new* proposal — or when no reservation exists (the UE
        released a BS that had rejected it, or a duplicate notice).
        """
        if epoch != self.epoch or ue_id not in self.ledger.grants:
            return False
        self.ledger.release(ue_id)
        return True

    def grant_for(self, ue_id: int) -> AssociationGrant | None:
        """The grant this BS holds for a UE (grant-retransmission path)."""
        grant = self.ledger.grants.get(ue_id)
        if grant is None:
            return None
        return AssociationGrant(
            bs_id=grant.bs_id,
            ue_id=grant.ue_id,
            service_id=grant.service_id,
            crus=grant.crus,
            rrbs=grant.rrbs,
            epoch=self.epoch,
        )

    def broadcast(self) -> ResourceBroadcast:
        """Advertise remaining resources (Alg. 1 line 26)."""
        self._seq += 1
        return ResourceBroadcast(
            bs_id=self.bs_id,
            remaining_crus={
                service_id: self.ledger.remaining_crus(service_id)
                for service_id in self.bs.cru_capacity
            },
            remaining_rrbs=self.ledger.remaining_rrbs,
            seq=self._seq,
            epoch=self.epoch,
        )


@dataclass
class SPAgent:
    """One service provider: the relay layer between UEs and BSs.

    The SP never makes allocation decisions in DMRA; it routes requests
    and grants for its subscribers and forwards hopeless tasks to the
    remote cloud.  Message counters expose the relay load for the
    decentralization overhead bench.
    """

    sp_id: int
    requests_relayed: int = 0
    grants_relayed: int = 0
    cloud_forwards: int = 0
    _cloud_ue_ids: set[int] = field(default_factory=set)

    def relay_request(self, request: ServiceRequest) -> ServiceRequest:
        """Forward a subscriber's service request toward its target BS."""
        if request.sp_id != self.sp_id:
            raise AllocationError(
                f"SP {self.sp_id} asked to relay a request from a "
                f"subscriber of SP {request.sp_id}"
            )
        self.requests_relayed += 1
        return request

    def relay_grant(self, grant: AssociationGrant) -> AssociationGrant:
        """Forward a BS's grant back to the subscriber."""
        self.grants_relayed += 1
        return grant

    def forward_to_cloud(self, notice: CloudFallbackNotice) -> None:
        """Send a subscriber's unserveable task to the remote cloud."""
        if notice.sp_id != self.sp_id:
            raise AllocationError(
                f"SP {self.sp_id} asked to forward a task of SP "
                f"{notice.sp_id}"
            )
        self.cloud_forwards += 1
        self._cloud_ue_ids.add(notice.ue_id)

    @property
    def cloud_ue_ids(self) -> frozenset[int]:
        return frozenset(self._cloud_ue_ids)


def build_ue_agents(
    network: MECNetwork,
    radio_map: RadioMap,
    pricing: PricingPolicy,
    rho: float,
) -> dict[int, UEAgent]:
    """Construct UE agents with their static candidate knowledge.

    The deployment's supervisor (:mod:`repro.dist`) builds every UE's
    agent and hands each UE host its shard.
    """
    return {
        ue.ue_id: UEAgent(
            ue,
            candidates=[
                _CandidateInfo(
                    bs_id=bs_id,
                    price_per_cru=pricing.price_per_cru(
                        network.distance_m(ue.ue_id, bs_id),
                        network.same_sp(ue.ue_id, bs_id),
                    ),
                    rrbs_required=radio_map.link(
                        ue.ue_id, bs_id
                    ).rrbs_required,
                )
                for bs_id in network.candidate_base_stations(ue.ue_id)
            ],
            rho=rho,
        )
        for ue in network.user_equipments
    }
