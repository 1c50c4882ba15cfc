"""Scenario construction in two steps: the skeleton, then UE chunks.

:func:`repro.sim.scenario.build_scenario` materializes one monolithic
:class:`~repro.model.network.MECNetwork` plus its radio map, and the
stream's tapes (:mod:`repro.stream.tape`) and the online simulator
(:mod:`repro.dynamics.online`) materialize UEs as they arrive.  All
share this module's split of the construction:

1. :func:`build_scenario_frame` draws everything *except* the UE
   demands — providers, BS placement and hosting, the UE position
   scatter (one float ``(n, 2)`` array) — in that order from the seed's
   RNG;
2. the UE demands are then drawn with the *same continuing generator*:
   all at once as columns (:meth:`ScenarioFrame.ue_columns`, the static
   path) or as UE entities chunk by chunk
   (:meth:`ScenarioFrame.iter_ue_chunks`).

``draw_ue_columns`` leaves the generator exactly where per-UE draws
would, so generating ``[0, c)`` then ``[c, 2c)`` with one generator is
bit-identical to one ``[0, n)`` call — the streamed population equals
the monolithic one entity for entity, pinned by the streaming parity
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.econ.pricing import PaperPricing
from repro.econ.tariffs import validate_tariffs
from repro.errors import ConfigurationError
from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UEColumns,
    UserEquipment,
)
from repro.model.geometry import Point, Rectangle
from repro.model.placement import make_placement
from repro.model.workload import draw_ue_columns
from repro.radio.ofdma import rrb_budget
from repro.sim.config import ScenarioConfig

__all__ = ["ScenarioFrame", "build_scenario_frame"]

#: Default number of UEs materialized per chunk.
DEFAULT_CHUNK_SIZE = 10_000


@dataclass
class ScenarioFrame:
    """Everything of a scenario except the UE demands.

    Holds the continuing RNG, so the UE demands must be drawn exactly
    once, either by :meth:`ue_columns` or by :meth:`iter_ue_chunks`;
    both enforce that.
    """

    config: ScenarioConfig
    seed: int
    ue_count: int
    region: Rectangle
    providers: tuple[ServiceProvider, ...]
    base_stations: tuple[BaseStation, ...]
    services: tuple[Service, ...]
    #: UE positions as one float ``(ue_count, 2)`` array, in ``ue_id`` order.
    ue_xy: np.ndarray
    _rng: np.random.Generator
    _consumed: bool = False

    @property
    def pricing(self) -> PaperPricing:
        """The Eq. 9--10 pricing implied by the config."""
        return PaperPricing(
            base_price=self.config.base_price,
            cross_sp_markup=self.config.cross_sp_markup,
            distance_weight=self.config.distance_weight,
        )

    @property
    def ue_positions(self) -> tuple[Point, ...]:
        """The UE positions as points (built on each access)."""
        xs, ys = self.ue_xy.T.tolist()
        return tuple(map(Point, xs, ys))

    def ue_columns(self) -> UEColumns:
        """Draw every UE's demands at once, as columns (one-shot).

        Equal, row for row, to the concatenated :meth:`iter_ue_chunks`
        of any chunk size, and leaves the RNG where they do.
        """
        self._claim()
        return self._draw(0, self.ue_count)

    def iter_ue_chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[list[UserEquipment]]:
        """Yield UE entities in ``ue_id`` order, ``chunk_size`` at a time.

        The concatenation of all chunks is bit-identical to the UE list
        ``build_scenario`` would produce for the same triple.  One-shot:
        the generator advances the frame's RNG, so a second iteration
        would silently diverge — it raises instead.
        """
        if chunk_size <= 0:
            raise ConfigurationError(
                f"chunk_size must be > 0, got {chunk_size}"
            )
        self._claim()
        for start in range(0, self.ue_count, chunk_size):
            stop = min(start + chunk_size, self.ue_count)
            yield self._draw(start, stop).materialize()

    def _claim(self) -> None:
        if self._consumed:
            raise ConfigurationError(
                "scenario frame already streamed; build a new frame to "
                "re-generate its UEs"
            )
        self._consumed = True

    def _draw(self, start: int, stop: int) -> UEColumns:
        return draw_ue_columns(
            self.ue_xy[start:stop],
            sp_count=self.config.sp_count,
            service_count=self.config.service_count,
            workload=self.config.workload_model(),
            rng=self._rng,
            start_ue_id=start,
        )


def build_scenario_frame(
    config: ScenarioConfig, ue_count: int, seed: int
) -> ScenarioFrame:
    """Draw a scenario's skeleton, leaving UE entities to be streamed.

    RNG consumption is fixed — SPs, BS placement, per-BS hosting, the
    one-shot UE position scatter (drawn as ``scatter_ues`` draws it, all
    x then all y) — and
    :func:`repro.sim.scenario.build_scenario` builds on this frame, so
    the frame plus its streamed chunks reproduce the monolithic
    scenario's entity populations exactly.  Tariffs are validated here
    against Eq. 16.
    """
    rng = np.random.default_rng(seed)
    region = Rectangle.square(config.region_side_m)

    providers = tuple(
        ServiceProvider(
            sp_id=k,
            name=f"SP-{k}",
            cru_price=config.cru_price_of_sp(k),
            other_cost=config.sp_other_cost,
        )
        for k in range(config.sp_count)
    )

    placement_kwargs: dict[str, float] = {}
    if config.placement == "regular":
        placement_kwargs["inter_site_distance_m"] = config.inter_site_distance_m
    strategy = make_placement(config.placement, **placement_kwargs)
    positions = strategy.place(region, config.bs_count, rng)

    catalog = config.service_catalog()
    services = tuple(catalog.build_services())
    rrbs = rrb_budget(config.uplink_bandwidth_hz, config.rrb_bandwidth_hz)
    ownership = config.bs_ownership()
    base_stations = tuple(
        BaseStation(
            bs_id=index,
            sp_id=ownership[index],  # interleaved for spatial mixing
            position=position,
            cru_capacity=catalog.sample_hosting(rng),
            rrb_capacity=rrbs,
            uplink_bandwidth_hz=config.uplink_bandwidth_hz,
        )
        for index, position in enumerate(positions)
    )

    ue_xy = region.sample_uniform_xy(rng, ue_count)

    pricing = PaperPricing(
        base_price=config.base_price,
        cross_sp_markup=config.cross_sp_markup,
        distance_weight=config.distance_weight,
    )
    validate_tariffs(list(providers), pricing, config.coverage_radius_m)

    return ScenarioFrame(
        config=config,
        seed=seed,
        ue_count=ue_count,
        region=region,
        providers=providers,
        base_stations=base_stations,
        services=services,
        ue_xy=ue_xy,
        _rng=rng,
    )
