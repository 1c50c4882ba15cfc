"""DMRA: the paper's contribution, as an :class:`Allocator`.

:class:`DMRAAllocator` plugs the DMRA preference rules
(:mod:`repro.core.preferences`) into the shared Alg. 1 matching engine.
The ``same_sp_priority=False`` switch supports the ablation experiments:
it removes the BS-side own-subscriber preference, isolating how much of
DMRA's profit edge comes from SP affinity.
"""

from __future__ import annotations

from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.core.matching import MatchingContext, MatchingPolicy
from repro.core.soa import make_matching_engine
from repro.core.preferences import (
    dmra_bs_rank_key,
    dmra_price_term,
    dmra_slack_term,
    dmra_ue_score,
)
from repro.econ.pricing import PaperPricing, PricingPolicy
from repro.errors import ConfigurationError
from repro.model.entities import UserEquipment
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

__all__ = ["DMRAPolicy", "DMRAAllocator"]


class DMRAPolicy(MatchingPolicy):
    """The DMRA preference rules as a matching policy."""

    name = "dmra"

    def __init__(
        self,
        pricing: PricingPolicy,
        rho: float = 10.0,
        same_sp_priority: bool = True,
    ) -> None:
        if rho < 0:
            raise ConfigurationError(f"rho must be >= 0, got {rho}")
        self.pricing = pricing
        self.rho = rho
        self.same_sp_priority = same_sp_priority
        # {bs_id: sp_id} for the most recent BS side seen, rebuilt when
        # the ``base_stations`` tuple changes identity.  Batch networks
        # share the tuple with their template, so a stream of batches
        # builds it once.  Saves a guarded dict lookup per (UE, BS) pair
        # during cache builds.
        self._sp_of_bs: dict[int, int] = {}
        self._sp_map_base_stations: tuple | None = None

    def _bs_owner_map(self, network: MECNetwork) -> dict[int, int]:
        base_stations = network.base_stations
        if self._sp_map_base_stations is not base_stations:
            self._sp_of_bs = {bs.bs_id: bs.sp_id for bs in base_stations}
            self._sp_map_base_stations = base_stations
        return self._sp_of_bs

    def ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float:
        return dmra_ue_score(ue, bs_id, ctx, self.pricing, self.rho)

    # ------------------------------------------------------------------
    # Engine hot-path hooks: Eq. 17 splits into a static price term
    # (cached per (UE, BS) pair by the engine) and a slack term shared
    # by every UE of one service at one BS within a round (tabulated
    # once per round, one entry per (service, BS)).
    # ------------------------------------------------------------------

    def static_ue_score(
        self, ue: UserEquipment, bs_id: int, ctx: MatchingContext
    ) -> float | None:
        return dmra_price_term(ue, bs_id, ctx, self.pricing)

    def static_ue_scores(
        self,
        ue: UserEquipment,
        bs_ids: list[int],
        distances_m: list[float],
        ctx: MatchingContext,
    ) -> list[float | None]:
        """Batched Eq. 9--10 prices from the links' radio-map distances.

        Value-identical to :func:`dmra_price_term` per element: the map's
        distances are the pair distances the network stores, and the
        ownership test and arithmetic are the same.
        """
        price = self.pricing.price_per_cru
        sp_of = self._bs_owner_map(ctx.network)
        ue_sp = ue.sp_id
        return [
            price(distance, ue_sp == sp_of[bs_id])
            for bs_id, distance in zip(bs_ids, distances_m)
        ]

    def round_additive_terms(
        self, ctx: MatchingContext, service_ids: frozenset[int]
    ) -> dict[int, dict[int, float]] | None:
        rho = self.rho
        return {
            service_id: {
                bs_id: dmra_slack_term(service_id, bs_id, ctx, rho)
                for bs_id in ctx.candidate_bs_ids
            }
            for service_id in service_ids
        }

    def bs_rank_key(
        self, ue_id: int, bs_id: int, ctx: MatchingContext
    ) -> tuple:
        key = dmra_bs_rank_key(ue_id, bs_id, ctx)
        if self.same_sp_priority:
            return key
        return key[1:]  # drop the cross-SP flag

    def static_bs_rank_key(
        self, ue_id: int, bs_id: int, ctx: MatchingContext
    ) -> tuple | None:
        """Static components of :func:`dmra_bs_rank_key`: the cross-SP
        flag and the combined resource footprint.  Only ``f_u`` varies
        round to round."""
        ue = ctx.network.user_equipment(ue_id)
        same_sp = ue.sp_id == self._bs_owner_map(ctx.network)[bs_id]
        footprint = ctx.rrbs_required(ue_id, bs_id) + ue.cru_demand
        return (0 if same_sp else 1, footprint)

    def bs_rank_key_from_static(
        self, ue_id: int, bs_id: int, static: tuple, ctx: MatchingContext
    ) -> tuple:
        f_u = ctx.feasible_bs_count(ue_id)
        if self.same_sp_priority:
            return (static[0], f_u, static[1])
        return (f_u, static[1])


class DMRAAllocator(Allocator):
    """Decentralized Multi-SP Resource Allocation (Alg. 1).

    Parameters
    ----------
    pricing:
        The BS pricing policy (Eqs. 9--10); defaults to the paper's
        parameters with ``iota = 2``.
    rho:
        The Eq. 17 weight trading price against BS slack.
    same_sp_priority:
        Ablation switch; see the module docstring.
    max_rounds:
        Safety bound on matching rounds.
    kernel:
        Matching kernel choice — ``"object"`` (the bit-parity reference
        engine, the default), ``"soa"`` (the structure-of-arrays
        kernel), or ``"auto"`` (SoA for plain DMRA, object otherwise);
        see :func:`repro.core.soa.make_matching_engine`.
    """

    def __init__(
        self,
        pricing: PricingPolicy | None = None,
        rho: float = 10.0,
        same_sp_priority: bool = True,
        max_rounds: int = 100_000,
        kernel: str = "object",
    ) -> None:
        if rho < 0:
            raise ConfigurationError(f"rho must be >= 0, got {rho}")
        self.pricing = pricing if pricing is not None else PaperPricing()
        self.rho = rho
        self.same_sp_priority = same_sp_priority
        self.max_rounds = max_rounds
        self.kernel = kernel
        self.name = "dmra"

    def allocate(self, network: MECNetwork, radio_map: RadioMap) -> Assignment:
        policy = DMRAPolicy(
            pricing=self.pricing,
            rho=self.rho,
            same_sp_priority=self.same_sp_priority,
        )
        engine = make_matching_engine(
            policy, kernel=self.kernel, max_rounds=self.max_rounds
        )
        return engine.run(network, radio_map)
