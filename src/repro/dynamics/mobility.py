"""Mobility: moving UEs, re-association, and handovers.

The paper distinguishes its matching from the classic stable-marriage
problem precisely because "the preference list of UEs and BSs vary over
time" (§V).  This module makes that concrete: UEs move, link qualities
and prices change, and each epoch the allocation is repaired — kept
where it still holds, re-matched where it broke.

Epoch semantics (deterministic given a seed):

1. every UE moves per the mobility model;
2. the network and radio map are brought up to date at the new
   positions — by default *incrementally*: only the distance rows,
   candidate sets, and radio-map columns of UEs that actually moved
   (beyond ``position_epsilon_m``) are recomputed, instead of
   reconstructing :class:`MECNetwork` and the full map from scratch
   (``incremental=False`` keeps the full-rebuild path, which produces
   identical assignments — pinned by the parity tests);
3. each previously served UE keeps its BS if the BS still covers it and
   its (possibly changed) RRB demand still fits — otherwise it joins
   the re-match pool, together with every previously cloud-bound UE;
4. the incremental DMRA engine matches the pool against the remaining
   capacity.

A *handover* is a UE that was edge-served and ends the epoch on a
different BS; a *drop to cloud* is a previously served UE the edge can
no longer hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine, MatchingPolicy
from repro.errors import ConfigurationError
from repro.model.geometry import Point, Rectangle
from repro.model.network import MECNetwork
from repro.obs.telemetry import get_telemetry
from repro.radio import channel
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import Scenario, build_scenario

__all__ = [
    "MobilityModel",
    "RandomWalk",
    "RandomWaypoint",
    "EpochRecord",
    "MobilityOutcome",
    "run_mobility",
]


class MobilityModel(Protocol):
    """Moves one UE for one epoch."""

    def step(
        self,
        ue_id: int,
        position: Point,
        dt_s: float,
        region: Rectangle,
        rng: np.random.Generator,
    ) -> Point:
        """The UE's position after one epoch of duration ``dt_s``."""
        ...


@dataclass(frozen=True, slots=True)
class RandomWalk:
    """Each epoch: a uniformly random direction at a fixed speed."""

    speed_mps: float = 1.5  # pedestrian

    def __post_init__(self) -> None:
        if self.speed_mps < 0:
            raise ConfigurationError(
                f"speed must be >= 0, got {self.speed_mps}"
            )

    def step(
        self,
        ue_id: int,
        position: Point,
        dt_s: float,
        region: Rectangle,
        rng: np.random.Generator,
    ) -> Point:
        """Move ``speed * dt`` in a fresh random direction, clipped."""
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        distance = self.speed_mps * dt_s
        x = float(np.clip(
            position.x + distance * math.cos(angle),
            region.x_min, region.x_max,
        ))
        y = float(np.clip(
            position.y + distance * math.sin(angle),
            region.y_min, region.y_max,
        ))
        return Point(x, y)


class RandomWaypoint:
    """Classic random-waypoint: walk toward a target, then pick a new one.

    Stateful per UE (current target and speed), reproducible because all
    draws come from the simulation's generator in a fixed UE order.
    """

    def __init__(
        self, speed_min_mps: float = 0.5, speed_max_mps: float = 3.0
    ) -> None:
        if speed_min_mps <= 0 or speed_max_mps < speed_min_mps:
            raise ConfigurationError(
                f"invalid speed range [{speed_min_mps}, {speed_max_mps}]"
            )
        self.speed_min_mps = speed_min_mps
        self.speed_max_mps = speed_max_mps
        self._targets: dict[int, tuple[Point, float]] = {}

    def step(
        self,
        ue_id: int,
        position: Point,
        dt_s: float,
        region: Rectangle,
        rng: np.random.Generator,
    ) -> Point:
        """Advance toward the current waypoint, re-rolling on arrival."""
        target, speed = self._targets.get(ue_id, (None, 0.0))
        if target is None or position.distance_to(target) < 1.0:
            (target,) = region.sample_uniform(rng, 1)
            speed = float(rng.uniform(self.speed_min_mps, self.speed_max_mps))
            self._targets[ue_id] = (target, speed)
        remaining = position.distance_to(target)
        travel = min(speed * dt_s, remaining)
        if remaining == 0.0:
            return position
        fraction = travel / remaining
        return Point(
            position.x + (target.x - position.x) * fraction,
            position.y + (target.y - position.y) * fraction,
        )


@dataclass(frozen=True, slots=True)
class EpochRecord:
    """What happened in one mobility epoch."""

    epoch: int
    edge_served: int
    cloud: int
    handovers: int
    drops_to_cloud: int
    recovered_from_cloud: int
    total_profit: float


@dataclass(frozen=True)
class MobilityOutcome:
    """All epochs of one mobility run."""

    records: tuple[EpochRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ConfigurationError("mobility run produced no epochs")

    @property
    def epoch_count(self) -> int:
        return len(self.records)

    @property
    def total_handovers(self) -> int:
        return sum(r.handovers for r in self.records)

    @property
    def handover_rate(self) -> float:
        """Handovers per UE per epoch."""
        ue_count = self.records[0].edge_served + self.records[0].cloud
        if ue_count == 0:
            return 0.0
        return self.total_handovers / (ue_count * self.epoch_count)

    @property
    def mean_profit(self) -> float:
        return sum(r.total_profit for r in self.records) / self.epoch_count

    @property
    def mean_edge_served(self) -> float:
        return sum(r.edge_served for r in self.records) / self.epoch_count


def run_mobility(
    config: ScenarioConfig,
    ue_count: int,
    epochs: int,
    epoch_duration_s: float,
    seed: int,
    mobility: MobilityModel | None = None,
    policy_factory=None,
    sticky: bool = True,
    incremental: bool = True,
    position_epsilon_m: float = 1e-9,
) -> MobilityOutcome:
    """Run an epoch-based mobility simulation.

    ``policy_factory(scenario) -> MatchingPolicy`` lets callers swap the
    repair policy; the default is DMRA with the config's pricing/rho.

    ``sticky=True`` (default) keeps a feasible association across epochs
    and only re-matches broken ones — few handovers, but profit decays
    as UEs drift from their once-optimal BSs.  ``sticky=False``
    re-optimizes everyone every epoch — maximal profit, maximal
    handovers.  The pair quantifies the re-association trade-off the
    paper's "best association changes over time" remark alludes to.

    ``incremental=True`` (default) patches the network and radio map in
    place of a full rebuild: only UEs displaced by more than
    ``position_epsilon_m`` get their distance rows, candidate sets, and
    link columns recomputed.  Both modes consume the RNG identically
    and yield identical assignments; ``incremental=False`` keeps the
    full-rebuild path as the executable specification.

    :data:`repro.radio.channel.REBUILD_FRACTION` is the displaced-
    fraction crossover: once more than that fraction of UEs moved in an
    epoch, incremental patching cannot win (it re-does most of the work
    *plus* the stitching), so the epoch takes the full-rebuild route
    directly.  Models where everyone moves every epoch (random walk)
    therefore no longer pay an incremental penalty; models with mostly
    idle UEs still patch.
    """
    if epochs <= 0:
        raise ConfigurationError(f"epochs must be > 0, got {epochs}")
    if epoch_duration_s <= 0:
        raise ConfigurationError(
            f"epoch duration must be > 0, got {epoch_duration_s}"
        )
    if position_epsilon_m < 0:
        raise ConfigurationError(
            f"position_epsilon_m must be >= 0, got {position_epsilon_m}"
        )
    if mobility is None:
        mobility = RandomWalk()
    rng = np.random.default_rng(seed)
    scenario = build_scenario(config, ue_count, seed)
    budget = config.link_budget()

    def make_policy(current: Scenario) -> MatchingPolicy:
        if policy_factory is not None:
            return policy_factory(current)
        return DMRAPolicy(pricing=current.pricing, rho=config.rho)

    # Epoch 0: the initial (static) allocation.
    engine = IterativeMatchingEngine(make_policy(scenario))
    assignment = engine.run(scenario.network, scenario.radio_map)
    serving: dict[int, int] = {
        g.ue_id: g.bs_id for g in assignment.grants
    }
    records = [
        EpochRecord(
            epoch=0,
            edge_served=assignment.edge_served_count,
            cloud=assignment.cloud_count,
            handovers=0,
            drops_to_cloud=0,
            recovered_from_cloud=0,
            total_profit=_profit_of(scenario, serving),
        )
    ]
    network = scenario.network
    radio_map = scenario.radio_map
    rate_model = config.rate_model_fn()

    tel = get_telemetry()
    for epoch in range(1, epochs + 1):
        # One mobility draw per UE in fixed order: both update modes
        # consume the RNG identically, keeping traces comparable.
        ues = network.user_equipments
        stepped = [
            mobility.step(
                ue.ue_id, ue.position, epoch_duration_s, network.region, rng
            )
            for ue in ues
        ]
        patch = incremental
        displaced_rows: np.ndarray | None = None
        if incremental:
            # Vectorized displacement test: one array pass instead of a
            # Python-level distance call per UE.
            old_xy = np.array(
                [(ue.position.x, ue.position.y) for ue in ues]
            )
            new_xy = np.array([(p.x, p.y) for p in stepped])
            delta = new_xy - old_xy
            moved_mask = (
                delta[:, 0] ** 2 + delta[:, 1] ** 2
                > position_epsilon_m * position_epsilon_m
            )
            displaced_count = int(moved_mask.sum())
            tel.gauge(
                "mobility.displaced_fraction",
                displaced_count / len(ues) if ues else 0.0,
            )
            if displaced_count > channel.REBUILD_FRACTION * len(ues):
                # Crossover: patching would redo most of the work plus
                # the stitching — take the full-rebuild route.
                patch = False
            else:
                displaced_rows = np.flatnonzero(moved_mask)
        if patch:
            assert displaced_rows is not None
            displaced = {
                ues[row].ue_id: stepped[row] for row in displaced_rows
            }
            network = network.with_moved_ues(displaced)
            radio_map = radio_map.with_updated_ues(
                network, budget, displaced.keys(), rate_model=rate_model,
            )
        else:
            moved = [
                replace(ue, position=stepped[row])
                for row, ue in enumerate(ues)
            ]
            network = MECNetwork(
                providers=network.providers,
                base_stations=network.base_stations,
                user_equipments=moved,
                services=network.services,
                region=network.region,
                coverage_radius_m=network.coverage_radius_m,
            )
            radio_map = build_radio_map(
                network, budget, rate_model=rate_model
            )
        current = Scenario(
            config=config, network=network, radio_map=radio_map, seed=seed
        )

        ledgers = LedgerPool(network.base_stations)
        rematch_pool: list[int] = []
        kept: dict[int, int] = {}
        for ue in network.user_equipments:
            prev_bs = serving.get(ue.ue_id)
            if prev_bs is None or not sticky:
                rematch_pool.append(ue.ue_id)
                continue
            still_candidate = prev_bs in network.candidate_base_stations(
                ue.ue_id
            )
            if still_candidate:
                rrbs = radio_map.link(ue.ue_id, prev_bs).rrbs_required
                ledger = ledgers.ledger(prev_bs)
                if ledger.can_grant(
                    ue.ue_id, ue.service_id, ue.cru_demand, rrbs
                ):
                    ledger.grant(ue.ue_id, ue.service_id, ue.cru_demand, rrbs)
                    kept[ue.ue_id] = prev_bs
                    continue
            rematch_pool.append(ue.ue_id)

        engine = IterativeMatchingEngine(make_policy(current))
        repair = engine.run(
            network, radio_map, ledgers=ledgers, ue_ids=rematch_pool
        )

        new_serving = dict(kept)
        handovers = 0
        drops = 0
        recovered = 0
        for grant in repair.grants:
            new_serving[grant.ue_id] = grant.bs_id
            prev = serving.get(grant.ue_id)
            if prev is None:
                recovered += 1
            elif prev != grant.bs_id:
                handovers += 1
        for ue_id in repair.cloud_ue_ids:
            if serving.get(ue_id) is not None:
                drops += 1

        serving = new_serving
        records.append(
            EpochRecord(
                epoch=epoch,
                edge_served=len(serving),
                cloud=network.ue_count - len(serving),
                handovers=handovers,
                drops_to_cloud=drops,
                recovered_from_cloud=recovered,
                total_profit=_profit_of(current, serving),
            )
        )

    return MobilityOutcome(records=tuple(records))


def _profit_of(scenario: Scenario, serving: dict[int, int]) -> float:
    from repro.econ.accounting import marginal_profit

    return sum(
        marginal_profit(scenario.network, ue_id, bs_id, scenario.pricing)
        for ue_id, bs_id in serving.items()
    )
