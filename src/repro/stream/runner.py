"""Replay a churn tape through the streaming engine.

The dispatcher groups tape events by exact timestamp — arrivals staged,
departures and moves applied immediately, one re-match per distinct
timestamp — drives one :class:`~repro.stream.engine.IncrementalShardEngine`
over every BS, and accumulates the outcome counters, occupancy series,
and telemetry.  The stream is not tiled: docs/streaming.md measures
why (a per-tile split bought no memory and lost profit).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.dmra import DMRAPolicy
from repro.core.matching import MatchingPolicy
from repro.dynamics.events import EventKind
from repro.dynamics.timeseries import StepSeries
from repro.errors import AllocationError, ConfigurationError
from repro.obs import get_telemetry
from repro.sim.config import ScenarioConfig
from repro.stream.engine import IncrementalShardEngine
from repro.stream.events import StreamEvent
from repro.stream.tape import ChurnTape, StreamConfig, open_tape

__all__ = ["StreamOutcome", "StreamDispatcher", "replay_tape", "run_stream"]


@dataclass(frozen=True)
class StreamOutcome:
    """Everything measured over one tape replay."""

    kernel: str
    horizon_s: float
    events_processed: int
    arrivals: int
    departures: int
    moves: int
    cancelled: int
    admitted_edge: int
    admitted_cloud: int
    readmitted: int
    displaced: int
    total_profit: float
    profit_by_sp: Mapping[int, float]
    edge_active: StepSeries
    cloud_active: StepSeries
    rrb_utilization: StepSeries
    peak_edge_active: int
    peak_active: int
    wall_s: float
    #: SHA-256 over the final grants, cloud set, profits, and admission
    #: counters — two replays agree bit-for-bit iff digests match.
    digest: str

    @property
    def admissions(self) -> int:
        """Initial admissions (edge + cloud) — cancelled arrivals excluded."""
        return self.admitted_edge + self.admitted_cloud

    @property
    def blocking_probability(self) -> float:
        total = self.admissions
        return self.admitted_cloud / total if total else 0.0

    @property
    def profit_rate_per_s(self) -> float:
        return self.total_profit / self.horizon_s

    @property
    def events_per_s(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s else 0.0

    @property
    def mean_edge_active(self) -> float:
        return self.edge_active.time_average(self.horizon_s)

    @property
    def mean_rrb_utilization(self) -> float:
        return self.rrb_utilization.time_average(self.horizon_s)


class StreamDispatcher:
    """Event router shared by :func:`run_stream` and the asyncio service.

    Feed it the tape's events (via :meth:`events`) one at a time
    through :meth:`dispatch`, then call :meth:`finish` for the outcome.
    ``mode`` and ``shards`` accept only ``"incremental"`` and ``1``:
    the stream has one engine and is not tiled.
    """

    def __init__(
        self,
        tape: ChurnTape,
        *,
        mode: str = "incremental",
        shards: int = 1,
        kernel: str = "auto",
        policy: MatchingPolicy | None = None,
        series_stride: int = 1,
    ) -> None:
        if mode != "incremental":
            raise ConfigurationError(
                f"unknown stream mode {mode!r}; the stream has one "
                f"engine, 'incremental'"
            )
        if shards != 1:
            raise ConfigurationError(
                f"shards must be 1 (the stream is not tiled), got {shards}"
            )
        if series_stride <= 0:
            raise ConfigurationError(
                f"series_stride must be > 0, got {series_stride}"
            )
        self.kernel = kernel
        self._tape = tape
        self._series_stride = series_stride
        frame = tape.frame
        config = frame.config
        if policy is None:
            policy = DMRAPolicy(pricing=frame.pricing, rho=config.rho)
        self._engine = IncrementalShardEngine(
            providers=frame.providers,
            base_stations=frame.base_stations,
            services=frame.services,
            region=frame.region,
            coverage_radius_m=config.coverage_radius_m,
            budget=config.link_budget(),
            rate_model=config.rate_model_fn(),
            pricing=frame.pricing,
            policy=policy,
            kernel=kernel,
        )
        self._event_source: Iterator[StreamEvent] | None = tape.events()

        self._now: float | None = None
        self._timestamps = 0
        self.events_processed = 0
        self.arrivals = 0
        self.departures = 0
        self.moves = 0
        self.peak_edge_active = 0
        self.peak_active = 0
        self._edge_series = StepSeries("edge_active")
        self._cloud_series = StepSeries("cloud_active")
        self._util_series = StepSeries("rrb_utilization")
        self._edge_series.record(0.0, 0.0)
        self._cloud_series.record(0.0, 0.0)
        self._util_series.record(0.0, 0.0)
        self._finished = False

    # ------------------------------------------------------------------

    def events(self) -> Iterator[StreamEvent]:
        """The tape's events, exactly once, in tape order."""
        source = self._event_source
        if source is None:
            raise ConfigurationError("dispatcher events already consumed")
        self._event_source = None
        return source

    def dispatch(self, event: StreamEvent) -> None:
        """Apply one tape event (events must arrive in tape order)."""
        time_s = event.time_s
        if self._now is not None and time_s < self._now:
            raise AllocationError(
                f"event at {time_s} after timestamp {self._now}: the "
                f"tape must be non-decreasing in time"
            )
        if self._now is None:
            self._now = time_s
        elif time_s > self._now:
            self._flush_group()
            self._now = time_s
        self.events_processed += 1
        kind = event.kind
        if kind is EventKind.ARRIVAL:
            self.arrivals += 1
            self._engine.stage(event.ue)
        elif kind is EventKind.DEPARTURE:
            self._engine.depart(event.ue_id)
            self.departures += 1
        else:
            self._engine.move(event.ue_id, event.position)
            self.moves += 1

    def finish(self, wall_s: float = 0.0) -> StreamOutcome:
        """Flush the final group and assemble the outcome."""
        if self._finished:
            raise ConfigurationError("dispatcher already finished")
        self._finished = True
        if self._now is not None:
            self._flush_group()
        engine = self._engine
        profit_by_sp = dict(engine.profit_by_sp)

        digest = hashlib.sha256()
        for item in sorted(engine.grant_items()):
            digest.update(f"g:{item[0]}:{item[1]}:{item[2]};".encode())
        for ue_id in sorted(engine.cloud_ids):
            digest.update(f"c:{ue_id};".encode())
        digest.update(
            f"p:{engine.total_profit:.17g};ae:{engine.admitted_edge};"
            f"ac:{engine.admitted_cloud};r:{engine.readmitted};".encode()
        )

        tel = get_telemetry()
        tel.count("stream.events", self.events_processed)
        tel.count("stream.arrivals", self.arrivals)
        tel.count("stream.departures", self.departures)
        tel.count("stream.moves", self.moves)
        tel.count("stream.cancelled", engine.cancelled)
        tel.count("stream.admitted_edge", engine.admitted_edge)
        tel.count("stream.admitted_cloud", engine.admitted_cloud)
        tel.count("stream.readmitted", engine.readmitted)
        tel.count("stream.displaced", engine.displaced)
        # Flat entity-id counters; the metrics layer folds each family
        # into labeled samples.
        for sp_id in sorted(profit_by_sp):
            tel.count(f"stream.sp_profit.{sp_id}", profit_by_sp[sp_id])

        return StreamOutcome(
            kernel=self.kernel,
            horizon_s=self._tape.stream.horizon_s,
            events_processed=self.events_processed,
            arrivals=self.arrivals,
            departures=self.departures,
            moves=self.moves,
            cancelled=engine.cancelled,
            admitted_edge=engine.admitted_edge,
            admitted_cloud=engine.admitted_cloud,
            readmitted=engine.readmitted,
            displaced=engine.displaced,
            total_profit=engine.total_profit,
            profit_by_sp=profit_by_sp,
            edge_active=self._edge_series,
            cloud_active=self._cloud_series,
            rrb_utilization=self._util_series,
            peak_edge_active=self.peak_edge_active,
            peak_active=self.peak_active,
            wall_s=wall_s,
            digest=digest.hexdigest(),
        )

    # ------------------------------------------------------------------

    def _flush_group(self) -> None:
        now = self._now
        engine = self._engine
        engine.flush(now)
        self._timestamps += 1
        edge = engine.edge_active
        cloud = engine.cloud_active
        total_rrbs = engine.total_rrbs
        util = engine.used_rrbs / total_rrbs if total_rrbs else 0.0
        if edge > self.peak_edge_active:
            self.peak_edge_active = edge
        if edge + cloud > self.peak_active:
            self.peak_active = edge + cloud
        if self._timestamps % self._series_stride == 0:
            self._edge_series.record(now, float(edge))
            self._cloud_series.record(now, float(cloud))
            self._util_series.record(now, util)
        tel = get_telemetry()
        tel.gauge("stream.edge_active", edge)
        tel.gauge("stream.cloud_active", cloud)
        tel.gauge("stream.rrb_utilization", util)


def run_stream(
    config: ScenarioConfig,
    stream: StreamConfig,
    seed: int,
    *,
    kernel: str = "auto",
    policy: MatchingPolicy | None = None,
    series_stride: int = 1,
) -> StreamOutcome:
    """Replay one churn tape synchronously and return the outcome.

    Deterministic given ``(config, stream, seed)`` and the allocation
    options; the asyncio service (:func:`repro.stream.service.serve_stream`)
    produces the identical outcome for the identical inputs.
    """
    tape = open_tape(config, stream, seed)
    return replay_tape(
        tape, kernel=kernel, policy=policy, series_stride=series_stride
    )


def replay_tape(
    tape: ChurnTape,
    *,
    kernel: str = "auto",
    policy: MatchingPolicy | None = None,
    series_stride: int = 1,
) -> StreamOutcome:
    """Drive one already-open tape through a dispatcher."""
    tel = get_telemetry()
    with tel.span(
        "stream.run", kernel=kernel, arrivals=tape.arrival_count,
    ) as run_span:
        dispatcher = StreamDispatcher(
            tape, kernel=kernel, policy=policy, series_stride=series_stride
        )
        start = time.perf_counter()
        if tel.enabled:
            # Per-event latency histogram, same families the asyncio
            # service records, so replay and serve traces compare.
            clock = time.perf_counter
            for event in dispatcher.events():
                t0 = clock()
                dispatcher.dispatch(event)
                tel.observe(
                    f"stream.event_latency_s.{event.kind.name.lower()}",
                    clock() - t0,
                )
        else:
            for event in dispatcher.events():
                dispatcher.dispatch(event)
        outcome = dispatcher.finish(wall_s=time.perf_counter() - start)
        run_span.set(
            events=outcome.events_processed,
            admitted_edge=outcome.admitted_edge,
            admitted_cloud=outcome.admitted_cloud,
            readmitted=outcome.readmitted,
        )
    return outcome
