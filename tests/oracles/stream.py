"""A from-scratch replay of a churn tape.

:func:`replay_from_scratch` is what the streaming engine
(:class:`~repro.stream.engine.IncrementalShardEngine`) would do with no
incremental machinery at all.  It shares with the stream only the tape
and the :class:`~repro.stream.runner.StreamOutcome` it returns:

* it groups the tape by exact timestamp itself: arrivals are staged,
  departures and moves applied at once, one re-match per distinct
  timestamp;
* it matches against one monolithic network over the tape's whole
  population, built at arrival positions and patched on each move with
  :meth:`~repro.model.network.MECNetwork.with_moved_ues` /
  :meth:`~repro.radio.channel.RadioMap.with_updated_ues`;
* each flush runs a fresh :class:`~repro.core.matching.IterativeMatchingEngine`
  over the staged arrivals, the displaced UEs and **every** cloud UE —
  no dirty set, no blocked-candidate index, no batch network;
* after every event and every flush it scans the whole ledger pool:
  every ledger's invariants, and its grants against the replay's own
  record of who holds what.

The outcome's fields and digest are computed the way
:meth:`~repro.stream.runner.StreamDispatcher.finish` computes them, so
the engine and this replay agree field for field exactly when the
engine's dirty rule loses nothing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine, MatchingPolicy
from repro.dynamics.events import EventKind
from repro.dynamics.timeseries import StepSeries
from repro.econ.accounting import marginal_profit
from repro.model.network import MECNetwork
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.stream.runner import StreamOutcome
from repro.stream.tape import ChurnTape, StreamConfig, open_tape

__all__ = ["replay_from_scratch", "run_from_scratch"]


def run_from_scratch(
    config: ScenarioConfig, stream: StreamConfig, seed: int
) -> StreamOutcome:
    """Open the tape of ``(config, stream, seed)`` and replay it."""
    return replay_from_scratch(open_tape(config, stream, seed))


def replay_from_scratch(
    tape: ChurnTape, policy: MatchingPolicy | None = None
) -> StreamOutcome:
    """Replay ``tape`` re-solving every cloud UE at every timestamp."""
    start = time.perf_counter()
    events = list(tape.events())
    replay = _Replay(tape, events, policy)
    now = None
    for event in events:
        if now is not None and event.time_s > now:
            replay.flush(now)
        now = event.time_s
        replay.apply(event)
    if now is not None:
        replay.flush(now)
    return replay.outcome(wall_s=time.perf_counter() - start)


class _Replay:
    def __init__(
        self, tape: ChurnTape, events: list, policy: MatchingPolicy | None
    ) -> None:
        frame = tape.frame
        config = frame.config
        self._tape = tape
        self._policy = policy or DMRAPolicy(
            pricing=frame.pricing, rho=config.rho
        )
        self._pricing = frame.pricing
        self._budget = config.link_budget()
        self._rate_model = config.rate_model_fn()
        population = tuple(
            event.ue for event in events if event.kind is EventKind.ARRIVAL
        )
        self._network = MECNetwork(
            providers=frame.providers,
            base_stations=frame.base_stations,
            user_equipments=population,
            services=frame.services,
            region=frame.region,
            coverage_radius_m=config.coverage_radius_m,
        )
        self._radio = build_radio_map(
            self._network, self._budget, rate_model=self._rate_model
        )
        self._ledgers = LedgerPool(frame.base_stations)
        self._total_rrbs = sum(bs.rrb_capacity for bs in frame.base_stations)

        self._staged: dict = {}
        self._entities: dict = {}
        self._edge: dict[int, tuple[int, int]] = {}  # ue -> (bs, rrbs)
        self._cloud: set[int] = set()
        self._displaced: set[int] = set()

        self.events = self.arrivals = self.departures = self.moves = 0
        self.cancelled = self.displaced = 0
        self.admitted_edge = self.admitted_cloud = self.readmitted = 0
        self.total_profit = 0.0
        self.profit_by_sp = {sp.sp_id: 0.0 for sp in frame.providers}
        self.peak_edge_active = self.peak_active = 0
        self._edge_series = StepSeries("edge_active")
        self._cloud_series = StepSeries("cloud_active")
        self._util_series = StepSeries("rrb_utilization")
        for series in (
            self._edge_series, self._cloud_series, self._util_series
        ):
            series.record(0.0, 0.0)

    # -- events -------------------------------------------------------

    def apply(self, event) -> None:
        self.events += 1
        ue_id = event.ue_id
        if event.kind is EventKind.ARRIVAL:
            self.arrivals += 1
            self._staged[ue_id] = event.ue
        elif event.kind is EventKind.DEPARTURE:
            self.departures += 1
            if ue_id in self._staged:
                del self._staged[ue_id]
                self.cancelled += 1
            else:
                del self._entities[ue_id]  # KeyError: UE not active
                if ue_id in self._edge:
                    self._release(ue_id)
                self._cloud.discard(ue_id)
                self._displaced.discard(ue_id)
        else:
            self.moves += 1
            self._network = self._network.with_moved_ues(
                {ue_id: event.position}
            )
            self._radio = self._radio.with_updated_ues(
                self._network, self._budget, [ue_id],
                rate_model=self._rate_model,
            )
            if ue_id in self._staged:
                self._staged[ue_id] = replace(
                    self._staged[ue_id], position=event.position
                )
            else:
                self._entities[ue_id] = replace(
                    self._entities[ue_id], position=event.position
                )
                if ue_id in self._edge or ue_id in self._cloud:
                    if ue_id in self._edge:
                        self._release(ue_id)
                    self._cloud.discard(ue_id)
                    self._displaced.add(ue_id)
                    self.displaced += 1
        self._scan_ledgers()

    def flush(self, now: float) -> None:
        propose = {
            ue_id: self._entities[ue_id] for ue_id in sorted(self._cloud)
        }
        for ue_id in self._displaced:
            propose[ue_id] = self._entities[ue_id]
        propose.update(self._staged)
        was_cloud = set(self._cloud)
        was_displaced = self._displaced
        self._staged = {}
        self._displaced = set()
        if propose:
            self._rematch(propose, was_cloud, was_displaced)
        self._scan_ledgers()
        edge, cloud = len(self._edge), len(self._cloud)
        used = sum(rrbs for _, rrbs in self._edge.values())
        self.peak_edge_active = max(self.peak_edge_active, edge)
        self.peak_active = max(self.peak_active, edge + cloud)
        self._edge_series.record(now, float(edge))
        self._cloud_series.record(now, float(cloud))
        self._util_series.record(now, used / self._total_rrbs)

    def _rematch(self, propose, was_cloud, was_displaced) -> None:
        assignment = IterativeMatchingEngine(self._policy).run(
            self._network, self._radio, ledgers=self._ledgers,
            ue_ids=list(propose),
        )
        for grant in sorted(assignment.grants, key=lambda g: g.ue_id):
            ue = propose[grant.ue_id]
            self._entities[grant.ue_id] = ue
            self._edge[grant.ue_id] = (grant.bs_id, grant.rrbs)
            profit = marginal_profit(
                self._network, grant.ue_id, grant.bs_id, self._pricing
            )
            self.total_profit += profit
            self.profit_by_sp[ue.sp_id] = (
                self.profit_by_sp.get(ue.sp_id, 0.0) + profit
            )
            if grant.ue_id in was_cloud:
                self._cloud.discard(grant.ue_id)
                self.readmitted += 1
            elif grant.ue_id in was_displaced:
                self.readmitted += 1
            else:
                self.admitted_edge += 1
        for ue_id in sorted(assignment.cloud_ue_ids):
            self._entities[ue_id] = propose[ue_id]
            if ue_id not in was_cloud:
                if ue_id not in was_displaced:
                    self.admitted_cloud += 1
                self._cloud.add(ue_id)

    def _release(self, ue_id: int) -> None:
        bs_id, rrbs = self._edge.pop(ue_id)
        grant = self._ledgers.ledger(bs_id).release(ue_id)
        assert grant.rrbs == rrbs, (ue_id, bs_id, grant.rrbs, rrbs)

    def _scan_ledgers(self) -> None:
        self._ledgers.check_invariants()
        held = {
            grant.ue_id: (grant.bs_id, grant.rrbs)
            for grant in self._ledgers.all_grants()
        }
        assert held == self._edge, "ledgers disagree with the replay"

    # -- outcome ------------------------------------------------------

    def outcome(self, wall_s: float) -> StreamOutcome:
        digest = hashlib.sha256()
        for ue_id, (bs_id, rrbs) in sorted(self._edge.items()):
            digest.update(f"g:{ue_id}:{bs_id}:{rrbs};".encode())
        for ue_id in sorted(self._cloud):
            digest.update(f"c:{ue_id};".encode())
        digest.update(
            f"p:{self.total_profit:.17g};ae:{self.admitted_edge};"
            f"ac:{self.admitted_cloud};r:{self.readmitted};".encode()
        )
        return StreamOutcome(
            kernel="object",
            horizon_s=self._tape.stream.horizon_s,
            events_processed=self.events,
            arrivals=self.arrivals,
            departures=self.departures,
            moves=self.moves,
            cancelled=self.cancelled,
            admitted_edge=self.admitted_edge,
            admitted_cloud=self.admitted_cloud,
            readmitted=self.readmitted,
            displaced=self.displaced,
            total_profit=self.total_profit,
            profit_by_sp=dict(self.profit_by_sp),
            edge_active=self._edge_series,
            cloud_active=self._cloud_series,
            rrb_utilization=self._util_series,
            peak_edge_active=self.peak_edge_active,
            peak_active=self.peak_active,
            wall_s=wall_s,
            digest=digest.hexdigest(),
        )
