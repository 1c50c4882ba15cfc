"""Congestion-steered DMRA: load-dependent *signaling* prices.

The pricing literature the paper cites (Xie et al.'s distributed
price-adjustment; Zhang et al.'s Stackelberg games) steers load by
moving prices with utilization.  This variant grafts that idea onto
DMRA's UE preference: the price term of Eq. 17 is scaled by
``1 + beta * utilization_i``, so busy BSs *look* more expensive during
matching.  Settlement still uses the paper's static Eqs. 9--10 — the
adjusted price is a steering signal, not a billed tariff — so profit
numbers remain comparable with plain DMRA.

``beta = 0`` reduces exactly to :class:`~repro.core.dmra.DMRAPolicy`.
The interesting comparison is against the ``rho`` slack term, DMRA's
own load-steering knob: both act on the same information (the resource
broadcast), but multiplicative price scaling responds earlier — it
shifts preferences as soon as utilization moves, while ``rho/slack``
only bites when slack gets small.
"""

from __future__ import annotations

from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine, MatchingContext
from repro.econ.pricing import PaperPricing, PricingPolicy
from repro.errors import ConfigurationError
from repro.model.entities import UserEquipment
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

__all__ = ["CongestionSteeredPolicy", "CongestionSteeredAllocator"]


class CongestionSteeredPolicy(DMRAPolicy):
    """DMRA with the price term scaled by BS utilization."""

    name = "dmra-steered"

    def __init__(
        self,
        pricing: PricingPolicy,
        rho: float = 0.0,
        beta: float = 1.0,
        same_sp_priority: bool = True,
    ) -> None:
        super().__init__(
            pricing=pricing, rho=rho, same_sp_priority=same_sp_priority
        )
        if beta < 0:
            raise ConfigurationError(f"beta must be >= 0, got {beta}")
        self.beta = beta

    def ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float:
        """Eq. 17 with the price term inflated by current utilization."""
        base = super().ue_score(ue, bs_id, ctx)
        if self.beta == 0.0:
            return base
        cru_util, rrb_util = ctx.ledgers.ledger(bs_id).utilization()
        utilization = max(cru_util, rrb_util)
        price = self.pricing.price_per_cru(
            ctx.network.distance_m(ue.ue_id, bs_id),
            ctx.network.same_sp(ue.ue_id, bs_id),
        )
        # base already contains `price + rho/slack`; add the surcharge.
        return base + self.beta * utilization * price

    def static_ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float | None:
        """Opt out of the engine's preference cache when steering is on.

        The surcharge couples the price term to *current* utilization,
        so no part of the score is round-invariant; inheriting DMRA's
        cached split would silently drop the steering term.
        """
        if self.beta == 0.0:
            return super().static_ue_score(ue, bs_id, ctx)
        return None

    def static_ue_scores(
        self,
        ue: UserEquipment,
        bs_ids: list[int],
        distances_m: list[float],
        ctx: MatchingContext,
    ) -> list[float | None]:
        if self.beta == 0.0:
            return super().static_ue_scores(ue, bs_ids, distances_m, ctx)
        return [None] * len(bs_ids)

    def round_additive_terms(
        self, ctx: MatchingContext, service_ids: frozenset[int]
    ) -> dict[int, dict[int, float]] | None:
        """No additive decomposition either: the surcharge multiplies
        the per-pair price, so it is not a pure (BS, service) term."""
        if self.beta == 0.0:
            return super().round_additive_terms(ctx, service_ids)
        return None


class CongestionSteeredAllocator(Allocator):
    """The congestion-steered variant as an :class:`Allocator`."""

    def __init__(
        self,
        pricing: PricingPolicy | None = None,
        rho: float = 0.0,
        beta: float = 1.0,
        max_rounds: int = 100_000,
    ) -> None:
        if beta < 0:
            raise ConfigurationError(f"beta must be >= 0, got {beta}")
        self.pricing = pricing if pricing is not None else PaperPricing()
        self.rho = rho
        self.beta = beta
        self.max_rounds = max_rounds
        self.name = "dmra-steered"

    def allocate(self, network: MECNetwork, radio_map: RadioMap) -> Assignment:
        policy = CongestionSteeredPolicy(
            pricing=self.pricing, rho=self.rho, beta=self.beta
        )
        engine = IterativeMatchingEngine(policy, max_rounds=self.max_rounds)
        return engine.run(network, radio_map)
