"""Replay a churn tape through per-shard streaming engines.

The dispatcher is the *shared* half of both allocation modes: it groups
tape events by exact timestamp (arrivals staged, departures and moves
applied immediately, one re-match per timestamp per touched shard),
routes every UE to the shard owning its **arrival** position, and
accumulates the outcome counters, occupancy series, and telemetry.
Because modes differ only inside the engines, every gated metric —
admissions, profits, blocking, occupancy — is recorded by identical
code, which is what lets ``dmra trace diff`` compare an incremental run
against the from-scratch reference without mode-specific noise.

Sharding trades borders for memory: BSs are tiled by
:func:`repro.scale.partition.plan_tiles`, and a UE whose arrival
position lands in one tile never proposes to another tile's BSs (no
halo — unlike the static :mod:`repro.scale` path).  ``shards=1`` is
lossless; larger counts drop cross-border candidates symmetrically in
both modes, so the equivalence gate holds at any shard count.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.core.dmra import DMRAPolicy
from repro.core.matching import MatchingPolicy
from repro.core.soa import KERNELS
from repro.dynamics.events import EventKind
from repro.dynamics.timeseries import StepSeries
from repro.errors import AllocationError, ConfigurationError
from repro.obs import get_telemetry
from repro.scale.partition import assign_shards, plan_tiles
from repro.sim.config import ScenarioConfig
from repro.stream.engine import (
    IncrementalShardEngine,
    RescratchShardEngine,
    _ShardEngineBase,
)
from repro.stream.events import StreamEvent
from repro.stream.tape import ChurnTape, StreamConfig, open_tape

__all__ = ["MODES", "StreamOutcome", "StreamDispatcher", "run_stream"]

MODES = ("incremental", "rescratch")


@dataclass(frozen=True)
class StreamOutcome:
    """Everything measured over one tape replay."""

    mode: str
    shards: int
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
    shard_events: tuple[int, ...]
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

    Feed it the tape's events (via :meth:`events` so the rescratch mode
    can pre-buffer them) one at a time through :meth:`dispatch`, then
    call :meth:`finish` for the outcome.
    """

    def __init__(
        self,
        tape: ChurnTape,
        *,
        mode: str = "incremental",
        shards: int = 1,
        kernel: str = "auto",
        policy: MatchingPolicy | None = None,
        scan_cadence: int = 1024,
        series_stride: int = 1,
    ) -> None:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown stream mode {mode!r}; choose one of {MODES}"
            )
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown matching kernel {kernel!r}; "
                f"choose one of {KERNELS}"
            )
        if shards <= 0:
            raise ConfigurationError(f"shards must be > 0, got {shards}")
        if series_stride <= 0:
            raise ConfigurationError(
                f"series_stride must be > 0, got {series_stride}"
            )
        self.mode = mode
        self.shards = shards
        self.kernel = kernel
        self._tape = tape
        self._series_stride = series_stride
        frame = tape.frame
        config = frame.config
        if policy is None:
            policy = DMRAPolicy(pricing=frame.pricing, rho=config.rho)

        # Route by arrival position: the shard index per arrival ue_id,
        # vectorized once over the frame's position scatter.
        if shards > 1:
            nx, ny, _bounds = plan_tiles(frame.region, shards)
            bs_xy = np.asarray(
                [bs.position.as_tuple() for bs in frame.base_stations]
            ).reshape(-1, 2)
            bs_shard = assign_shards(bs_xy, frame.region, nx, ny)
            self._arrival_shard = assign_shards(
                frame.ue_xy, frame.region, nx, ny
            )
        else:
            bs_shard = np.zeros(len(frame.base_stations), dtype=np.int64)
            self._arrival_shard = None

        self._event_source: Iterator[StreamEvent] | None = None
        populations: list[list] = [[] for _ in range(shards)]
        if mode == "rescratch":
            # The oracle needs each shard's full tape population up
            # front (its monolithic network) — deliberately O(arrivals)
            # in memory, unlike the engine under test.
            buffered = list(tape.events())
            for event in buffered:
                if event.kind is EventKind.ARRIVAL:
                    populations[self._shard_of_arrival(event.ue_id)].append(
                        event.ue
                    )
            self._event_source = iter(buffered)
        else:
            self._event_source = tape.events()

        budget = config.link_budget()
        rate_model = config.rate_model_fn()
        pricing = frame.pricing
        self._engines: list[_ShardEngineBase] = []
        for shard_id in range(shards):
            shard_bs = tuple(
                bs
                for bs, owner in zip(frame.base_stations, bs_shard)
                if owner == shard_id
            )
            common = dict(
                shard_id=shard_id,
                providers=frame.providers,
                base_stations=shard_bs,
                services=frame.services,
                region=frame.region,
                coverage_radius_m=config.coverage_radius_m,
                budget=budget,
                rate_model=rate_model,
                pricing=pricing,
                policy=policy,
            )
            if mode == "incremental":
                self._engines.append(IncrementalShardEngine(
                    kernel=kernel, scan_cadence=scan_cadence, **common
                ))
            else:
                # Full O(#BS) conservation scans on every event: the
                # reference trades speed for maximum auditability.
                self._engines.append(RescratchShardEngine(
                    population=populations[shard_id], scan_cadence=1,
                    **common,
                ))
        self.total_rrbs = sum(e.total_rrbs for e in self._engines)

        self._now: float | None = None
        self._touched: set[int] = set()
        self._shard_of: dict[int, int] = {}
        self._timestamps = 0
        self.events_processed = 0
        self.arrivals = 0
        self.departures = 0
        self.moves = 0
        self.shard_events = [0] * shards
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
            shard = self._shard_of_arrival(event.ue_id)
            self.arrivals += 1
            self._shard_of[event.ue_id] = shard
            self._engines[shard].stage(event.ue)
        elif kind is EventKind.DEPARTURE:
            shard = self._shard_of.pop(event.ue_id, None)
            if shard is None:
                raise AllocationError(
                    f"departure for UE {event.ue_id} which never arrived"
                )
            self.departures += 1
            self._engines[shard].depart(event.ue_id)
        else:
            shard = self._shard_of.get(event.ue_id)
            if shard is None:
                raise AllocationError(
                    f"move for UE {event.ue_id} which never arrived"
                )
            self.moves += 1
            self._engines[shard].move(event.ue_id, event.position)
        self.shard_events[shard] += 1
        self._touched.add(shard)

    def finish(self, wall_s: float = 0.0) -> StreamOutcome:
        """Flush the final group and assemble the outcome."""
        if self._finished:
            raise ConfigurationError("dispatcher already finished")
        self._finished = True
        if self._now is not None:
            self._flush_group()
        engines = self._engines
        cancelled = sum(e.cancelled for e in engines)
        displaced = sum(e.displaced for e in engines)
        admitted_edge = sum(e.admitted_edge for e in engines)
        admitted_cloud = sum(e.admitted_cloud for e in engines)
        readmitted = sum(e.readmitted for e in engines)
        total_profit = sum(e.total_profit for e in engines)
        profit_by_sp: dict[int, float] = {}
        for engine in engines:
            for sp_id, profit in engine.profit_by_sp.items():
                profit_by_sp[sp_id] = profit_by_sp.get(sp_id, 0.0) + profit

        digest = hashlib.sha256()
        for engine in engines:
            for item in sorted(engine.grant_items()):
                digest.update(f"g:{item[0]}:{item[1]}:{item[2]};".encode())
            for ue_id in sorted(engine.cloud_ids):
                digest.update(f"c:{ue_id};".encode())
        digest.update(
            f"p:{total_profit:.17g};ae:{admitted_edge};"
            f"ac:{admitted_cloud};r:{readmitted};".encode()
        )

        tel = get_telemetry()
        tel.count("stream.events", self.events_processed)
        tel.count("stream.arrivals", self.arrivals)
        tel.count("stream.departures", self.departures)
        tel.count("stream.moves", self.moves)
        tel.count("stream.cancelled", cancelled)
        tel.count("stream.admitted_edge", admitted_edge)
        tel.count("stream.admitted_cloud", admitted_cloud)
        tel.count("stream.readmitted", readmitted)
        tel.count("stream.displaced", displaced)
        # Flat entity-id counters; the metrics layer folds each family
        # into labeled samples.
        for sp_id in sorted(profit_by_sp):
            tel.count(f"stream.sp_profit.{sp_id}", profit_by_sp[sp_id])
        for shard_id, count in enumerate(self.shard_events):
            tel.count(f"stream.shard_events.{shard_id}", count)

        return StreamOutcome(
            mode=self.mode,
            shards=self.shards,
            kernel=self.kernel,
            horizon_s=self._tape.stream.horizon_s,
            events_processed=self.events_processed,
            arrivals=self.arrivals,
            departures=self.departures,
            moves=self.moves,
            cancelled=cancelled,
            admitted_edge=admitted_edge,
            admitted_cloud=admitted_cloud,
            readmitted=readmitted,
            displaced=displaced,
            total_profit=total_profit,
            profit_by_sp=profit_by_sp,
            edge_active=self._edge_series,
            cloud_active=self._cloud_series,
            rrb_utilization=self._util_series,
            shard_events=tuple(self.shard_events),
            peak_edge_active=self.peak_edge_active,
            peak_active=self.peak_active,
            wall_s=wall_s,
            digest=digest.hexdigest(),
        )

    # ------------------------------------------------------------------

    def _shard_of_arrival(self, ue_id: int) -> int:
        if self._arrival_shard is None:
            return 0
        return int(self._arrival_shard[ue_id])

    def _flush_group(self) -> None:
        now = self._now
        for shard in sorted(self._touched):
            self._engines[shard].flush(now)
        self._touched.clear()
        self._timestamps += 1
        edge = sum(e.edge_active for e in self._engines)
        cloud = sum(e.cloud_active for e in self._engines)
        used = sum(e.used_rrbs for e in self._engines)
        util = used / self.total_rrbs if self.total_rrbs else 0.0
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
    mode: str = "incremental",
    shards: int = 1,
    kernel: str = "auto",
    policy: MatchingPolicy | None = None,
    scan_cadence: int = 1024,
    series_stride: int = 1,
) -> StreamOutcome:
    """Replay one churn tape synchronously and return the outcome.

    Deterministic given ``(config, stream, seed)`` and the allocation
    options; the asyncio service (:func:`repro.stream.service.serve_stream`)
    produces the identical outcome for the identical inputs.
    """
    tape = open_tape(config, stream, seed)
    return replay_tape(
        tape,
        mode=mode,
        shards=shards,
        kernel=kernel,
        policy=policy,
        scan_cadence=scan_cadence,
        series_stride=series_stride,
    )


def replay_tape(
    tape: ChurnTape,
    *,
    mode: str = "incremental",
    shards: int = 1,
    kernel: str = "auto",
    policy: MatchingPolicy | None = None,
    scan_cadence: int = 1024,
    series_stride: int = 1,
) -> StreamOutcome:
    """Drive one already-open tape through a dispatcher."""
    tel = get_telemetry()
    with tel.span(
        "stream.run", mode=mode, shards=shards, kernel=kernel,
        arrivals=tape.arrival_count,
    ) as run_span:
        dispatcher = StreamDispatcher(
            tape,
            mode=mode,
            shards=shards,
            kernel=kernel,
            policy=policy,
            scan_cadence=scan_cadence,
            series_stride=series_stride,
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
