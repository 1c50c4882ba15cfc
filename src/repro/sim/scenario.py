"""Scenario construction: config + seed -> network + radio map.

A :class:`Scenario` is the unit every allocator run consumes.  Building
one is deterministic: the same ``(config, ue_count, seed)`` triple always
yields byte-identical entity populations, which is what makes sweeps and
cross-algorithm comparisons paired (all schemes see the same draw).

Determinism also makes scenarios **shareable**: DMRA, DCSP, and every
baseline evaluated on the same grid cell consume the same immutable
:class:`Scenario`, so :func:`build_scenario_cached` keeps a small LRU
keyed by ``(config, ue_count, seed)`` (the config is a frozen, hashable
dataclass) and multi-scheme comparisons, repeated sweeps, and rho grids
pay for each build exactly once per process.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

from repro.econ.pricing import PaperPricing
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap, build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.frame import build_scenario_frame

__all__ = [
    "Scenario",
    "build_scenario",
    "build_scenario_cached",
    "clear_scenario_cache",
    "estimate_scenario_bytes",
    "scenario_cache_info",
]


@dataclass(frozen=True)
class Scenario:
    """A fully materialized simulation instance."""

    config: ScenarioConfig
    network: MECNetwork
    radio_map: RadioMap
    seed: int

    @property
    def pricing(self) -> PaperPricing:
        """The Eq. 9--10 pricing implied by the config."""
        return PaperPricing(
            base_price=self.config.base_price,
            cross_sp_markup=self.config.cross_sp_markup,
            distance_weight=self.config.distance_weight,
        )

    @property
    def ue_count(self) -> int:
        return self.network.ue_count


def build_scenario(
    config: ScenarioConfig, ue_count: int, seed: int
) -> Scenario:
    """Materialize a scenario from a config, UE population size, and seed.

    Construction order (fixed, so seeds stay comparable across configs):
    SPs, BS positions, per-BS service hosting, UE positions, UE demands.
    The skeleton comes from
    :func:`~repro.sim.frame.build_scenario_frame` (which also
    validates the tariffs against Eq. 16) and the UEs from its
    :meth:`~repro.sim.frame.ScenarioFrame.ue_columns`, so the
    monolithic and the streamed builds share one draw order.  The UEs
    stay columns: :class:`~repro.model.network.MECNetwork` validates and
    indexes them as arrays, the radio map reads them as arrays, and
    :class:`~repro.model.entities.UserEquipment` objects are built only
    when something asks for them.
    """
    frame = build_scenario_frame(config, ue_count, seed)
    user_equipments = frame.ue_columns()

    network = MECNetwork(
        providers=frame.providers,
        base_stations=frame.base_stations,
        user_equipments=user_equipments,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=config.coverage_radius_m,
    )

    radio_map = build_radio_map(
        network, config.link_budget(), rate_model=config.rate_model_fn()
    )

    return Scenario(
        config=config, network=network, radio_map=radio_map, seed=seed
    )


# ----------------------------------------------------------------------
# Shared scenario cache
# ----------------------------------------------------------------------

_CacheKey = tuple[ScenarioConfig, int, int]
# Each entry keeps the scenario plus its estimated byte footprint, so
# eviction can bound total *memory*, not just the entry count.
_SCENARIO_CACHE: OrderedDict[_CacheKey, tuple[Scenario, int]] = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}
_CACHE_BYTES = {"total": 0}

#: Default memory bound of the scenario cache, in megabytes.
_DEFAULT_CACHE_MB = 1024

#: Fixed per-entity byte estimates (Python object + dataclass overhead)
#: used when sizing a scenario; deliberately coarse but monotone in the
#: population sizes, which is what bounding needs.
_UE_BYTES = 200
_BS_BYTES = 600


def _cache_capacity() -> int:
    """Max cached scenarios (``DMRA_SCENARIO_CACHE``, default 32, 0 = off)."""
    raw = os.environ.get("DMRA_SCENARIO_CACHE", "")
    try:
        return int(raw) if raw else 32
    except ValueError:
        return 32


def _cache_byte_capacity() -> int:
    """Max total estimated bytes (``DMRA_SCENARIO_CACHE_MB``).

    Defaults to 1024 MB; ``0`` (or a negative value) disables the byte
    bound, leaving only the entry-count bound.  Invalid values fall
    back to the default.
    """
    raw = os.environ.get("DMRA_SCENARIO_CACHE_MB", "")
    try:
        mb = int(raw) if raw else _DEFAULT_CACHE_MB
    except ValueError:
        mb = _DEFAULT_CACHE_MB
    return mb * 1024 * 1024 if mb > 0 else 0


def estimate_scenario_bytes(scenario: Scenario) -> int:
    """Estimated resident bytes of one scenario.

    Dominated by the network's coverage and candidate pairs and the
    radio map's per-link columns; entity objects are charged a flat
    per-UE/per-BS overhead.  At 100k UEs a scenario is tens of
    megabytes, which is why the cache bounds bytes rather than entry
    count alone.
    """
    network = scenario.network
    return int(
        network.estimated_geometry_bytes()
        + scenario.radio_map.estimated_bytes()
        + network.ue_count * _UE_BYTES
        + network.bs_count * _BS_BYTES
    )


def build_scenario_cached(
    config: ScenarioConfig, ue_count: int, seed: int
) -> Scenario:
    """Like :func:`build_scenario`, but memoized per process.

    Scenarios are immutable, so every caller of the same
    ``(config, ue_count, seed)`` triple — e.g. all allocators of one
    sweep cell, or every rho grid point of one seed — can share one
    instance.  The LRU is bounded two ways: by entry count
    (``DMRA_SCENARIO_CACHE``, default 32) and by total *estimated
    bytes* (``DMRA_SCENARIO_CACHE_MB``, default 1024 MB), so a handful
    of 100k-UE scenarios cannot pin gigabytes the way a pure
    entry-count bound would.  A single scenario larger than the whole
    byte budget is returned uncached.  Forked sweep workers inherit a
    snapshot and fill their own copies independently.
    """
    capacity = _cache_capacity()
    if capacity <= 0:
        return build_scenario(config, ue_count, seed)
    key = (config, int(ue_count), int(seed))
    cached = _SCENARIO_CACHE.get(key)
    if cached is not None:
        _SCENARIO_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        return cached[0]
    _CACHE_STATS["misses"] += 1
    scenario = build_scenario(config, ue_count, seed)
    size = estimate_scenario_bytes(scenario)
    byte_capacity = _cache_byte_capacity()
    if byte_capacity and size > byte_capacity:
        # Larger than the entire budget: caching it would just evict
        # everything else and still bust the bound.
        return scenario
    _SCENARIO_CACHE[key] = (scenario, size)
    _CACHE_BYTES["total"] += size
    while len(_SCENARIO_CACHE) > capacity or (
        byte_capacity
        and _CACHE_BYTES["total"] > byte_capacity
        and len(_SCENARIO_CACHE) > 1
    ):
        _, (_, evicted_size) = _SCENARIO_CACHE.popitem(last=False)
        _CACHE_BYTES["total"] -= evicted_size
    return scenario


def clear_scenario_cache() -> None:
    """Drop all cached scenarios and reset the hit/miss counters."""
    _SCENARIO_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0
    _CACHE_BYTES["total"] = 0


def scenario_cache_info() -> dict[str, int]:
    """Current cache occupancy, byte footprint, and hit/miss counters."""
    return {
        "size": len(_SCENARIO_CACHE),
        "capacity": _cache_capacity(),
        "bytes": _CACHE_BYTES["total"],
        "byte_capacity": _cache_byte_capacity(),
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
    }
