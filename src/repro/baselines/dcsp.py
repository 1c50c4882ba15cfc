"""DCSP baseline: Decentralized Collaboration Service Placement.

Per the paper's §VI.B description of the comparison scheme (from Yu et
al., GLOBECOM 2018): in every round, each UE proposes to the reachable
BS with the *lowest resource occupation*, and each BS prefers the UE
*covered by the fewest BSs*; ties go to the UE *consuming the least
radio resources*.  DCSP does not consider SP ownership or prices.

Resource occupation is the BS's mean utilization across its computing
and radio pools — the natural reading of "lowest resource occupation"
for a scheme that jointly tracks both resources.
"""

from __future__ import annotations

from repro.compute.cru import BSLedger
from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.core.matching import (
    IterativeMatchingEngine,
    MatchingContext,
    MatchingPolicy,
)
from repro.model.entities import UserEquipment
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

__all__ = ["DCSPPolicy", "DCSPAllocator"]


class DCSPPolicy(MatchingPolicy):
    """DCSP's ranking rules over the shared matching engine."""

    name = "dcsp"

    def ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float:
        return _occupation(ctx.ledgers.ledger(bs_id))

    # Engine hot-path hooks: the DCSP score is pure per-BS occupation —
    # nothing varies per UE — so the "static" part is zero and the whole
    # score is one per-round table entry per BS (ledgers are frozen
    # throughout a proposal phase).  ``0.0 + x == x`` keeps the cached
    # path bit-identical to ue_score.

    def static_ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float | None:
        return 0.0

    def round_additive_terms(
        self, ctx: MatchingContext, service_ids: frozenset[int]
    ) -> dict[int, dict[int, float]] | None:
        ledger_of = ctx.ledgers.ledger
        by_bs = {
            bs_id: _occupation(ledger_of(bs_id))
            for bs_id in ctx.candidate_bs_ids
        }
        # The score ignores the service, so every service shares one map.
        return {service_id: by_bs for service_id in service_ids}

    def bs_rank_key(
        self, ue_id: int, bs_id: int, ctx: MatchingContext
    ) -> tuple:
        return (
            ctx.feasible_bs_count(ue_id),
            ctx.rrbs_required(ue_id, bs_id),
        )

    def static_bs_rank_key(
        self, ue_id: int, bs_id: int, ctx: MatchingContext
    ) -> tuple | None:
        return (ctx.rrbs_required(ue_id, bs_id),)

    def bs_rank_key_from_static(
        self, ue_id: int, bs_id: int, static: tuple, ctx: MatchingContext
    ) -> tuple:
        return (ctx.feasible_bs_count(ue_id), static[0])


def _occupation(ledger: BSLedger) -> float:
    """A BS's mean utilization across its computing and radio pools."""
    cru_util, rrb_util = ledger.utilization()
    return (cru_util + rrb_util) / 2.0


class DCSPAllocator(Allocator):
    """The DCSP comparison scheme as an :class:`Allocator`."""

    def __init__(self, max_rounds: int = 100_000) -> None:
        self.max_rounds = max_rounds
        self.name = "dcsp"

    def allocate(self, network: MECNetwork, radio_map: RadioMap) -> Assignment:
        engine = IterativeMatchingEngine(DCSPPolicy(), max_rounds=self.max_rounds)
        return engine.run(network, radio_map)
