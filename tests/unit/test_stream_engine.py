"""Unit tests for the streaming stack: tapes, engines, dispatcher."""

import numpy as np
import pytest
from oracles.stream import run_from_scratch

from repro.dynamics.arrivals import (
    ExponentialHolding,
    PoissonArrivals,
)
from repro.dynamics.events import EventKind
from repro.errors import AllocationError, ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.stream import (
    StreamConfig,
    StreamDispatcher,
    open_tape,
    run_stream,
)

CONFIG = ScenarioConfig.paper()

#: One BS with tight CRU capacity: arrivals saturate it quickly, so the
#: cloud set, the blocked-candidate index, and readmissions after
#: departures are all exercised.
SATURATED = ScenarioConfig(
    sp_count=1,
    bs_per_sp=1,
    region_side_m=300.0,
    cru_capacity_min=20,
    cru_capacity_max=20,
)


def light_stream(horizon=120.0, move_fraction=0.0):
    return StreamConfig(
        horizon_s=horizon,
        arrivals=PoissonArrivals(rate_per_s=1.5),
        holding=ExponentialHolding(mean_s=40.0),
        move_fraction=move_fraction,
    )


def saturating_stream(horizon=300.0, move_fraction=0.1):
    return StreamConfig(
        horizon_s=horizon,
        arrivals=PoissonArrivals(rate_per_s=0.5),
        holding=ExponentialHolding(mean_s=120.0),
        move_fraction=move_fraction,
    )


class TestChurnTape:
    def test_deterministic(self):
        a = open_tape(CONFIG, light_stream(move_fraction=0.3), seed=11)
        b = open_tape(CONFIG, light_stream(move_fraction=0.3), seed=11)
        assert np.array_equal(a.arrival_times, b.arrival_times)
        assert np.array_equal(a.holding_times, b.holding_times)
        assert a.move_times == b.move_times
        assert a.move_positions == b.move_positions

    def test_event_count_and_order(self):
        tape = open_tape(CONFIG, light_stream(move_fraction=0.3), seed=3)
        events = list(tape.events())
        assert len(events) == tape.event_count
        assert tape.event_count == 2 * tape.arrival_count + len(
            tape.move_times
        )
        times = [event.time_s for event in events]
        assert times == sorted(times)

    def test_every_arrival_departs(self):
        tape = open_tape(CONFIG, light_stream(), seed=4)
        arrived, departed = set(), set()
        for event in tape.events():
            if event.kind is EventKind.ARRIVAL:
                assert event.ue is not None
                assert event.ue.ue_id == event.ue_id
                arrived.add(event.ue_id)
            elif event.kind is EventKind.DEPARTURE:
                assert event.ue_id in arrived
                departed.add(event.ue_id)
        assert arrived == departed

    def test_moves_fall_inside_lifetime(self):
        tape = open_tape(CONFIG, light_stream(move_fraction=0.5), seed=5)
        for ue_id, move_s in tape.move_times.items():
            arrival = tape.arrival_times[ue_id]
            departure = arrival + tape.holding_times[ue_id]
            # The tape only emits the move when it lands strictly
            # inside the lifetime; the schedule must be drawn there.
            assert arrival <= move_s
            if arrival < move_s < departure:
                assert ue_id in tape.move_positions

    def test_arrival_ids_are_dense(self):
        tape = open_tape(CONFIG, light_stream(), seed=6)
        ids = [
            event.ue_id
            for event in tape.events()
            if event.kind is EventKind.ARRIVAL
        ]
        assert ids == list(range(tape.arrival_count))


class TestModeEquivalence:
    """The incremental engine must match the from-scratch replay."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_saturated_parity_bit_exact(self, seed, monkeypatch):
        monkeypatch.setenv("DMRA_DEBUG_STREAM", "1")
        stream = saturating_stream()
        inc = run_stream(SATURATED, stream, seed=seed)
        res = run_from_scratch(SATURATED, stream, seed=seed)
        assert inc.digest == res.digest
        assert inc.admitted_edge == res.admitted_edge
        assert inc.admitted_cloud == res.admitted_cloud
        assert inc.readmitted == res.readmitted
        assert inc.cancelled == res.cancelled
        assert inc.displaced == res.displaced
        assert inc.total_profit == res.total_profit
        assert inc.profit_by_sp == res.profit_by_sp
        assert inc.edge_active.samples == res.edge_active.samples
        # The saturated config must actually exercise blocking and
        # readmission, otherwise this parity test proves nothing.
        assert inc.admitted_cloud > 0
        assert inc.readmitted > 0

    def test_paper_config_parity_with_moves(self, monkeypatch):
        monkeypatch.setenv("DMRA_DEBUG_STREAM", "1")
        # A light tape with 20% movers, and 10 arrivals/s for 240 s with
        # 5% movers (2,429 arrivals and 4,973 events at seed 1).
        busy = StreamConfig(
            horizon_s=240.0,
            arrivals=PoissonArrivals(rate_per_s=10.0),
            holding=ExponentialHolding(mean_s=20.0),
            move_fraction=0.05,
        )
        for stream, seed in ((light_stream(move_fraction=0.2), 7), (busy, 1)):
            inc = run_stream(CONFIG, stream, seed=seed)
            res = run_from_scratch(CONFIG, stream, seed=seed)
            assert inc.digest == res.digest, seed
            assert inc.moves > 0

    def test_kernel_parity(self):
        stream = light_stream()
        obj = run_stream(CONFIG, stream, seed=2, kernel="object")
        soa = run_stream(CONFIG, stream, seed=2, kernel="soa")
        auto = run_stream(CONFIG, stream, seed=2, kernel="auto")
        assert obj.digest == soa.digest == auto.digest

    def test_replay_deterministic(self):
        stream = light_stream(move_fraction=0.1)
        a = run_stream(CONFIG, stream, seed=9)
        b = run_stream(CONFIG, stream, seed=9)
        assert a.digest == b.digest
        assert a.total_profit == b.total_profit


class TestStreamOutcome:
    def test_counters_consistent(self):
        outcome = run_stream(CONFIG, light_stream(), seed=1)
        assert outcome.events_processed == (
            outcome.arrivals + outcome.departures + outcome.moves
        )
        assert outcome.admissions == (
            outcome.admitted_edge + outcome.admitted_cloud
        )
        assert outcome.admissions + outcome.cancelled == outcome.arrivals
        assert outcome.arrivals == outcome.departures
        assert 0.0 <= outcome.blocking_probability <= 1.0
        assert outcome.peak_active >= outcome.peak_edge_active

    def test_everything_drains_by_tape_end(self):
        outcome = run_stream(CONFIG, light_stream(), seed=2)
        assert outcome.edge_active.last_value == 0.0
        assert outcome.cloud_active.last_value == 0.0
        assert outcome.rrb_utilization.last_value == 0.0

    def test_series_stride_decimates_but_keeps_peaks(self):
        stream = light_stream()
        dense = run_stream(CONFIG, stream, seed=3, series_stride=1)
        sparse = run_stream(CONFIG, stream, seed=3, series_stride=8)
        assert len(sparse.edge_active) < len(dense.edge_active)
        assert sparse.peak_edge_active == dense.peak_edge_active
        assert sparse.peak_active == dense.peak_active
        assert sparse.digest == dense.digest


class TestDispatcherInternals:
    def test_blocked_index_drains_with_population(self):
        tape = open_tape(SATURATED, saturating_stream(), seed=2)
        dispatcher = StreamDispatcher(tape)
        for event in dispatcher.events():
            dispatcher.dispatch(event)
        outcome = dispatcher.finish()
        assert outcome.admitted_cloud > 0
        # Every UE departed, so the blocked-candidate index and the
        # dirty set must have emptied themselves back out.
        engine = dispatcher._engine
        assert engine.blocked_index_size == 0
        assert not engine.dirty_ids
        assert engine.edge_active == 0
        assert engine.cloud_active == 0
        assert engine.used_rrbs == 0

    def test_out_of_order_event_rejected(self):
        tape = open_tape(CONFIG, light_stream(), seed=1)
        dispatcher = StreamDispatcher(tape)
        events = list(dispatcher.events())
        dispatcher.dispatch(events[1])
        with pytest.raises(AllocationError, match="non-decreasing"):
            dispatcher.dispatch(events[0])

    def test_departure_before_arrival_rejected(self):
        tape = open_tape(CONFIG, light_stream(), seed=1)
        dispatcher = StreamDispatcher(tape)
        departure = next(
            event for event in dispatcher.events()
            if event.kind is EventKind.DEPARTURE
        )
        with pytest.raises(AllocationError, match="never arrived"):
            dispatcher.dispatch(departure)


class TestValidation:
    def test_unknown_mode_rejected(self):
        tape = open_tape(CONFIG, light_stream(), seed=1)
        with pytest.raises(ConfigurationError, match="mode"):
            StreamDispatcher(tape, mode="oracle")

    def test_unknown_kernel_rejected(self):
        tape = open_tape(CONFIG, light_stream(), seed=1)
        with pytest.raises(ConfigurationError, match="kernel"):
            StreamDispatcher(tape, kernel="simd")

    def test_bad_shards_rejected(self):
        tape = open_tape(CONFIG, light_stream(), seed=1)
        with pytest.raises(ConfigurationError, match="shards"):
            StreamDispatcher(tape, shards=0)

    def test_only_the_untiled_incremental_stream_constructs(self):
        tape = open_tape(CONFIG, light_stream(), seed=1)
        StreamDispatcher(tape, mode="incremental", shards=1, kernel="auto")
        with pytest.raises(ConfigurationError, match="shards"):
            StreamDispatcher(tape, shards=4)
        with pytest.raises(ConfigurationError, match="mode"):
            StreamDispatcher(tape, mode="rescratch")

    def test_bad_stream_config_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(horizon_s=0.0)
        with pytest.raises(ConfigurationError):
            StreamConfig(move_fraction=1.5)
