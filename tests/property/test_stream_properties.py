"""Property tests: incremental re-matching equals the from-scratch replay
(``oracles.stream``), and event processing stays deterministic and
ledger-conserving under adversarial tapes — simultaneous timestamps,
zero-length holdings.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.stream import run_from_scratch

from repro.dynamics.arrivals import BatchArrivals, PoissonArrivals
from repro.dynamics.online import OnlineConfig, run_online
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

#: Small deployment so each Hypothesis example solves in milliseconds;
#: tight CRU capacity so random tapes actually hit the cloud path.
SMALL = ScenarioConfig(
    sp_count=2,
    bs_per_sp=1,
    region_side_m=400.0,
    cru_capacity_min=25,
    cru_capacity_max=25,
)


@dataclass(frozen=True)
class MixedHolding:
    """Deterministic durations with a coin-flipped zero-length fraction.

    Zero-length holdings make departures land on the *same timestamp*
    as their arrival — the adversarial case for event grouping (the
    library's :class:`DeterministicHolding` rejects zero on purpose).
    """

    duration_s: float
    zero_fraction: float

    def holding_time_s(self, rng: np.random.Generator) -> float:
        if self.zero_fraction and rng.random() < self.zero_fraction:
            return 0.0
        return self.duration_s


@contextmanager
def debug_checks():
    """Turn on the quiescence probe and full ledger scans for one run.

    Hypothesis reuses function-scoped fixtures across examples, so env
    toggling lives in a plain context manager instead of monkeypatch.
    """
    saved = {
        key: os.environ.get(key)
        for key in ("DMRA_DEBUG_STREAM", "DMRA_DEBUG_LEDGER")
    }
    os.environ["DMRA_DEBUG_STREAM"] = "1"
    os.environ["DMRA_DEBUG_LEDGER"] = "1"
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@st.composite
def tapes(draw):
    return StreamConfig(
        horizon_s=draw(st.sampled_from([40.0, 80.0])),
        arrivals=PoissonArrivals(
            rate_per_s=draw(st.sampled_from([0.3, 0.8, 1.5]))
        ),
        holding=MixedHolding(
            duration_s=draw(st.sampled_from([5.0, 30.0, 90.0])),
            zero_fraction=draw(st.sampled_from([0.0, 0.3])),
        ),
        move_fraction=draw(st.sampled_from([0.0, 0.25])),
    )


class TestIncrementalEqualsRescratch:
    @settings(max_examples=20, deadline=None)
    @given(stream=tapes(), seed=st.integers(min_value=0, max_value=2**16))
    def test_random_tapes_bit_exact(self, stream, seed):
        with debug_checks():
            inc = run_stream(SMALL, stream, seed=seed)
            res = run_from_scratch(SMALL, stream, seed=seed)
        assert inc.digest == res.digest
        assert inc.admitted_edge == res.admitted_edge
        assert inc.admitted_cloud == res.admitted_cloud
        assert inc.readmitted == res.readmitted
        assert inc.cancelled == res.cancelled
        assert inc.total_profit == res.total_profit

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_simultaneous_timestamps(self, seed):
        """Batch arrivals share exact timestamps; zero holdings put the
        matching departures on those same instants."""
        stream = StreamConfig(
            horizon_s=50.0,
            arrivals=BatchArrivals(interval_s=10.0, batch_size=6),
            holding=MixedHolding(duration_s=10.0, zero_fraction=0.4),
        )
        with debug_checks():
            inc = run_stream(SMALL, stream, seed=seed)
            res = run_from_scratch(SMALL, stream, seed=seed)
        assert inc.digest == res.digest
        assert inc.cancelled == res.cancelled


class TestStreamDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(stream=tapes(), seed=st.integers(min_value=0, max_value=2**16))
    def test_replay_reproducible(self, stream, seed):
        a = run_stream(SMALL, stream, seed=seed)
        b = run_stream(SMALL, stream, seed=seed)
        assert a.digest == b.digest
        assert a.events_processed == b.events_processed
        assert a.edge_active.samples == b.edge_active.samples

    @settings(max_examples=10, deadline=None)
    @given(stream=tapes(), seed=st.integers(min_value=0, max_value=2**16))
    def test_occupancy_conserved(self, stream, seed):
        outcome = run_stream(SMALL, stream, seed=seed)
        assert outcome.arrivals == outcome.departures
        assert outcome.admissions + outcome.cancelled == outcome.arrivals
        # Everyone departs by tape end, so state drains to zero.
        assert outcome.edge_active.last_value == 0.0
        assert outcome.cloud_active.last_value == 0.0
        assert outcome.rrb_utilization.last_value == 0.0


class TestOnlineAdversarialTapes:
    """The run_online event loop under the same adversarial schedules.

    Ledger conservation is enforced *inside* the run on every event
    (``DMRA_DEBUG_LEDGER=1`` forces the full scan), so surviving the
    run is itself the conservation assertion.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_batch_arrivals_with_zero_holdings(self, seed, zero_fraction):
        online = OnlineConfig(
            horizon_s=50.0,
            arrivals=BatchArrivals(interval_s=10.0, batch_size=5),
            holding=MixedHolding(
                duration_s=15.0, zero_fraction=zero_fraction
            ),
        )
        with debug_checks():
            a = run_online(SMALL, online, seed=seed)
            b = run_online(SMALL, online, seed=seed)
        assert a.events_processed == b.events_processed
        assert a.total_admitted_profit == b.total_admitted_profit
        assert a.edge_active.samples == b.edge_active.samples
        assert a.events_processed == 2 * a.arrivals
        assert a.edge_active.last_value == 0.0

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_kernels_agree_on_adversarial_tapes(self, seed):
        online = OnlineConfig(
            horizon_s=40.0,
            arrivals=BatchArrivals(interval_s=8.0, batch_size=6),
            holding=MixedHolding(duration_s=12.0, zero_fraction=0.3),
        )
        obj = run_online(SMALL, online, seed=seed, kernel="object")
        soa = run_online(SMALL, online, seed=seed, kernel="soa")
        assert obj.admitted_edge == soa.admitted_edge
        assert obj.admitted_cloud == soa.admitted_cloud
        assert obj.profit_by_sp == soa.profit_by_sp
