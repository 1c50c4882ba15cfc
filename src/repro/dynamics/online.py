"""The online (event-driven) DMRA simulation.

Static DMRA answers "given this batch of UEs, who goes where?".  The
online simulation answers the operational question behind §V's
motivation: tasks *arrive over time*, hold their resources for a task
duration, and depart — and the matching must keep adapting.  On every
arrival batch the incremental engine matches just the new tasks against
the remaining capacity (departures having returned resources to the
ledgers), exactly the "recalculate the preference relationship ...
during each iteration" behaviour the paper describes.

Memory stays bounded by the *active* set, not total arrivals: UE
entities are materialized lazily in arrival order through
:class:`~repro.sim.frame.ScenarioFrame` chunks, and each arrival
batch is matched on a cheap per-batch network stamped out by
:class:`~repro.model.batchnet.BatchNetworkBuilder` (bit-identical
candidates/links to the monolithic construction).  Ledger conservation
is an O(1) tripwire per event (:class:`LedgerMonitor`); the full
O(#BS) scan runs on a cadence, or on every event under
``DMRA_DEBUG_LEDGER=1``.

Outputs are operator metrics the static figures cannot express:
blocking probability, time-averaged edge occupancy and RRB utilization,
and profit throughput per second.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.compute.cru import LedgerPool
from repro.core.matching import MatchingPolicy
from repro.core.dmra import DMRAPolicy
from repro.core.soa import make_matching_engine
from repro.dynamics.arrivals import (
    ArrivalProcess,
    ExponentialHolding,
    HoldingTimeModel,
    PoissonArrivals,
)
from repro.dynamics.events import Event, EventKind, EventQueue
from repro.dynamics.timeseries import StepSeries
from repro.econ.accounting import marginal_profit
from repro.errors import AllocationError, ConfigurationError
from repro.model.batchnet import BatchNetworkBuilder
from repro.obs.telemetry import get_telemetry
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.frame import build_scenario_frame
from repro.sim.scenario import Scenario

__all__ = [
    "DEFAULT_LEDGER_SCAN_CADENCE",
    "LedgerMonitor",
    "OnlineConfig",
    "OnlineOutcome",
    "run_online",
]

#: Events between full O(#BS) ledger-conservation scans; the O(1)
#: in-flight comparison still runs on every event.
DEFAULT_LEDGER_SCAN_CADENCE = 1024


def _debug_ledger() -> bool:
    return os.environ.get("DMRA_DEBUG_LEDGER", "") not in ("", "0")


class LedgerMonitor:
    """O(1) per-event ledger-conservation tripwire.

    Tracks granted and freed RRBs as they happen (the incremental
    counterpart of summing every ledger's remainder), so the steady-state
    check is one integer comparison.  The full
    :func:`_check_ledger_conservation` scan — which audits the actual
    ledger objects — still runs every ``cadence`` checks, and on *every*
    check when ``DMRA_DEBUG_LEDGER=1``.
    """

    __slots__ = ("_ledgers", "_total_rrbs", "_cadence", "_in_flight",
                 "_since_scan")

    def __init__(
        self,
        ledgers: LedgerPool,
        total_rrbs: int,
        cadence: int = DEFAULT_LEDGER_SCAN_CADENCE,
    ) -> None:
        if cadence <= 0:
            raise ConfigurationError(
                f"scan cadence must be > 0, got {cadence}"
            )
        self._ledgers = ledgers
        self._total_rrbs = total_rrbs
        self._cadence = cadence
        self._in_flight = sum(
            grant.rrbs for grant in ledgers.all_grants()
        )
        self._since_scan = 0

    def on_grant(self, rrbs: int) -> None:
        """Record ``rrbs`` RRBs granted to an admitted task."""
        self._in_flight += rrbs

    def on_release(self, rrbs: int) -> None:
        """Record ``rrbs`` RRBs freed by a departing task."""
        self._in_flight -= rrbs

    def check(self, used_rrbs: int, force: bool = False) -> None:
        """O(1) comparison; full scan on cadence / debug / ``force``."""
        if self._in_flight != used_rrbs:
            raise AllocationError(
                f"ledger conservation violated: ledgers hold "
                f"{self._in_flight} granted RRBs but the run tracks "
                f"{used_rrbs} in flight"
            )
        self._since_scan += 1
        if force or _debug_ledger() or self._since_scan >= self._cadence:
            self._since_scan = 0
            _check_ledger_conservation(
                self._ledgers, self._total_rrbs, used_rrbs
            )


@dataclass(frozen=True)
class OnlineConfig:
    """Dynamics knobs layered on top of a static :class:`ScenarioConfig`."""

    horizon_s: float = 600.0
    arrivals: ArrivalProcess = field(
        default_factory=lambda: PoissonArrivals(rate_per_s=2.0)
    )
    holding: HoldingTimeModel = field(
        default_factory=lambda: ExponentialHolding(mean_s=120.0)
    )

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {self.horizon_s}"
            )


@dataclass(frozen=True)
class OnlineOutcome:
    """Everything measured over one online run.

    ``scenario`` is ``None`` since the lazy-arrival rewrite: the run
    never materializes a monolithic :class:`Scenario`, which is what
    bounds its memory by the active set.
    """

    scenario: Scenario | None
    events_processed: int
    admitted_edge: int
    admitted_cloud: int
    total_admitted_profit: float
    profit_by_sp: Mapping[int, float]
    edge_active: StepSeries
    cloud_active: StepSeries
    rrb_utilization: StepSeries
    horizon_s: float

    @property
    def arrivals(self) -> int:
        return self.admitted_edge + self.admitted_cloud

    @property
    def blocking_probability(self) -> float:
        """Fraction of tasks the edge could not absorb."""
        total = self.arrivals
        return self.admitted_cloud / total if total else 0.0

    @property
    def profit_rate_per_s(self) -> float:
        return self.total_admitted_profit / self.horizon_s

    @property
    def mean_edge_active(self) -> float:
        return self.edge_active.time_average(self.horizon_s)

    @property
    def mean_rrb_utilization(self) -> float:
        return self.rrb_utilization.time_average(self.horizon_s)


def run_online(
    config: ScenarioConfig,
    online: OnlineConfig,
    seed: int,
    policy: MatchingPolicy | None = None,
    kernel: str = "object",
) -> OnlineOutcome:
    """Run one event-driven simulation.

    The static population (SPs, BSs, service catalog) comes from
    ``config``; arrival timestamps, task demands, and positions are
    drawn from ``seed``; each arriving UE is matched on arrival by the
    incremental engine under ``policy`` (DMRA by default) and departs
    after its holding time, returning its resources.

    ``kernel`` selects the matching implementation per
    :func:`~repro.core.soa.make_matching_engine` — ``"object"`` (the
    default, and the bit-parity reference), ``"soa"``, or ``"auto"``.
    """
    rng = np.random.default_rng(seed)
    arrival_times = online.arrivals.arrival_times(online.horizon_s, rng)
    frame = build_scenario_frame(
        config, ue_count=len(arrival_times), seed=seed + 1
    )
    if policy is None:
        policy = DMRAPolicy(pricing=frame.pricing, rho=config.rho)
    # One engine for the whole run, matching each batch on its own
    # per-batch network.
    engine = make_matching_engine(policy, kernel=kernel)
    builder = BatchNetworkBuilder(
        providers=frame.providers,
        base_stations=frame.base_stations,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=config.coverage_radius_m,
    )
    budget = config.link_budget()
    rate_model = config.rate_model_fn()
    pricing = frame.pricing
    ledgers = LedgerPool(frame.base_stations)
    total_rrbs = sum(bs.rrb_capacity for bs in frame.base_stations)
    monitor = LedgerMonitor(ledgers, total_rrbs)

    # Departures only; arrivals are merged in lazily from the sorted
    # timestamp array, so the queue holds O(active set) events.
    queue = EventQueue()
    chunks = frame.iter_ue_chunks()
    buffer: deque = deque()
    arrival_index = 0
    n_arrivals = len(arrival_times)

    edge_active = StepSeries("edge_active")
    cloud_active = StepSeries("cloud_active")
    rrb_utilization = StepSeries("rrb_utilization")
    edge_active.record(0.0, 0.0)
    cloud_active.record(0.0, 0.0)
    rrb_utilization.record(0.0, 0.0)

    active_edge: set[int] = set()
    active_cloud: set[int] = set()
    serving_bs: dict[int, int] = {}
    rrbs_of_ue: dict[int, int] = {}
    used_rrbs = 0
    admitted_edge = 0
    admitted_cloud = 0
    total_profit = 0.0
    profit_by_sp: dict[int, float] = {
        sp.sp_id: 0.0 for sp in frame.providers
    }
    events_processed = 0
    tel = get_telemetry()

    with tel.span(
        "online.run",
        horizon_s=online.horizon_s,
        arrivals=n_arrivals,
    ) as run_span:
        while arrival_index < n_arrivals or queue:
            if arrival_index < n_arrivals:
                next_arrival = arrival_times[arrival_index]
                queue_time = queue.peek_time()
                now = (
                    next_arrival
                    if queue_time is None or next_arrival <= queue_time
                    else queue_time
                )
            else:
                now = queue.peek_time()
            # Drain every event sharing this timestamp; arrivals in the
            # same instant are matched as one batch (BatchArrivals
            # semantics) and precede same-instant departures, matching
            # the historical queue order.
            batch: list = []
            with tel.timer("online.batch"):
                while (
                    arrival_index < n_arrivals
                    and arrival_times[arrival_index] == now
                ):
                    if not buffer:
                        buffer.extend(next(chunks))
                    batch.append(buffer.popleft())
                    arrival_index += 1
                    events_processed += 1
                while queue and queue.peek_time() == now:
                    event = queue.pop()
                    events_processed += 1
                    freed = _process_departure(
                        event.ue_id, ledgers, active_edge, active_cloud,
                        serving_bs, rrbs_of_ue,
                    )
                    used_rrbs -= freed
                    monitor.on_release(freed)
                    tel.count("online.departures")
                    monitor.check(used_rrbs)

                if batch:
                    tel.gauge("online.batch_size", len(batch))
                    network = builder.network_for(batch)
                    radio_map = build_radio_map(
                        network, budget, rate_model=rate_model
                    )
                    assignment = engine.run(
                        network,
                        radio_map,
                        ledgers=ledgers,
                        ue_ids=[ue.ue_id for ue in batch],
                    )
                    sp_of = {ue.ue_id: ue.sp_id for ue in batch}
                    for grant in assignment.grants:
                        active_edge.add(grant.ue_id)
                        serving_bs[grant.ue_id] = grant.bs_id
                        rrbs_of_ue[grant.ue_id] = grant.rrbs
                        used_rrbs += grant.rrbs
                        monitor.on_grant(grant.rrbs)
                        admitted_edge += 1
                        profit = marginal_profit(
                            network, grant.ue_id, grant.bs_id, pricing
                        )
                        total_profit += profit
                        profit_by_sp[sp_of[grant.ue_id]] += profit
                        _schedule_departure(
                            queue, grant.ue_id, now, online.holding, rng
                        )
                    for ue_id in assignment.cloud_ue_ids:
                        active_cloud.add(ue_id)
                        admitted_cloud += 1
                        _schedule_departure(
                            queue, ue_id, now, online.holding, rng
                        )
                    monitor.check(used_rrbs)

            edge_active.record(now, float(len(active_edge)))
            cloud_active.record(now, float(len(active_cloud)))
            rrb_utilization.record(now, used_rrbs / total_rrbs)
            tel.gauge("online.rrb_utilization", used_rrbs / total_rrbs)
            tel.gauge("online.edge_active", len(active_edge))
            tel.gauge("online.cloud_active", len(active_cloud))

        run_span.set(
            events=events_processed,
            admitted_edge=admitted_edge,
            admitted_cloud=admitted_cloud,
        )
        tel.count("online.events", events_processed)
        tel.count("online.admitted_edge", admitted_edge)
        tel.count("online.admitted_cloud", admitted_cloud)
        # Flat per-SP counters (entity id as last dot-segment); the
        # metrics layer folds them into one labeled family.
        for sp_id in sorted(profit_by_sp):
            tel.count(f"online.sp_profit.{sp_id}", profit_by_sp[sp_id])

    return OnlineOutcome(
        scenario=None,
        events_processed=events_processed,
        admitted_edge=admitted_edge,
        admitted_cloud=admitted_cloud,
        total_admitted_profit=total_profit,
        profit_by_sp=profit_by_sp,
        edge_active=edge_active,
        cloud_active=cloud_active,
        rrb_utilization=rrb_utilization,
        horizon_s=online.horizon_s,
    )


def _schedule_departure(
    queue: EventQueue,
    ue_id: int,
    now: float,
    holding: HoldingTimeModel,
    rng: np.random.Generator,
) -> None:
    queue.push(Event(
        time_s=now + holding.holding_time_s(rng),
        kind=EventKind.DEPARTURE,
        ue_id=ue_id,
    ))


def _process_departure(
    ue_id: int,
    ledgers: LedgerPool,
    active_edge: set[int],
    active_cloud: set[int],
    serving_bs: dict[int, int],
    rrbs_of_ue: dict[int, int],
) -> int:
    """Release one departing UE's resources; returns the edge RRBs freed.

    A departure for a UE that is active nowhere, an edge departure with
    no recorded RRB grant, or a released grant whose size disagrees with
    the run's record, means the run's bookkeeping has drifted from the
    ledgers — raise instead of silently absorbing it.
    """
    if ue_id in active_edge:
        active_edge.remove(ue_id)
        grant = ledgers.ledger(serving_bs.pop(ue_id)).release(ue_id)
        try:
            recorded = rrbs_of_ue.pop(ue_id)
        except KeyError:
            raise AllocationError(
                f"edge departure for UE {ue_id} with no recorded RRB "
                f"grant (ledger drift)"
            ) from None
        if grant.rrbs != recorded:
            raise AllocationError(
                f"ledger drift: UE {ue_id} released {grant.rrbs} RRBs "
                f"but the run recorded {recorded}"
            )
        return grant.rrbs
    if ue_id in active_cloud:
        active_cloud.remove(ue_id)
        return 0
    raise AllocationError(
        f"departure event for UE {ue_id}, which is active on neither "
        f"edge nor cloud (ledger drift)"
    )


def _check_ledger_conservation(
    ledgers: LedgerPool, total_rrbs: int, used_rrbs: int
) -> None:
    """Edge RRBs tracked in flight must equal the sum of live grants."""
    in_flight = total_rrbs - sum(
        ledger.remaining_rrbs for ledger in ledgers
    )
    if in_flight != used_rrbs:
        raise AllocationError(
            f"ledger conservation violated: ledgers hold {in_flight} "
            f"granted RRBs but the run tracks {used_rrbs} in flight"
        )
