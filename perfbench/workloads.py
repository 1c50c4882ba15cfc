"""The three workloads: what one op is, how it is set up, how it is checked.

Each workload calls only public entry points of ``repro``.  ``unit``
runs one unit of measured work -- one op for the static and certify
workloads, one full tape replay (one op per event) for the stream --
and returns its op latencies plus the outcome digest and exact counts
that must repeat in every unit.  With a recorder it also opens the
benchmark's ``bench.op`` span around every op; :meth:`patches` names the
public callees the traced run wraps (see ``layers.py``).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from layers import Patch

clock = time.perf_counter


class CheckFailed(Exception):
    """An op's output broke the workload's correctness contract."""


class OpsFailed(Exception):
    """A unit raised after ``attempted`` ops had been started."""

    def __init__(self, attempted: int, cause: BaseException) -> None:
        super().__init__(f"{attempted} ops: {cause!r}")
        self.attempted = attempted


@dataclass
class Unit:
    latencies: list[float]
    ops_per_s: float
    digest: str
    counts: dict[str, int]
    info: dict[str, float] = field(default_factory=dict)


def _spans(recorder):
    """``span(name)`` factory: the recorder's, or a no-op."""
    if recorder is None:
        return lambda name: nullcontext()
    return recorder.span


def _links(result, args, kwargs) -> dict:
    return {"links": len(result)}


# The paper's deployment scaled to 2500 BSs over 15 km x 15 km, as
# ``dmra run --ues 100000 --region-m 15000 --bs-per-sp 500`` builds it.
_LARGE = {"region_side_m": 15000.0, "bs_per_sp": 500}
_LARGE_UES = 100_000


class Static100k:
    """One op is ``dmra run --ues 100000``: build, match, validate, account."""

    name = "static-100k"
    setup_repeats = 2
    min_units = 3

    def __init__(self, seed: int) -> None:
        from repro.core.dmra import DMRAAllocator
        from repro.sim.config import ScenarioConfig
        from repro.sim.runner import run_allocation
        from repro.sim.scenario import build_scenario

        self.seed = seed
        self.config = ScenarioConfig.paper(**_LARGE)
        self._build = build_scenario
        self._allocator = DMRAAllocator
        self._run = run_allocation

    def set_up(self) -> Unit:
        return self.unit()  # the warm-up op

    def unit(self, recorder=None) -> Unit:
        span = _spans(recorder)
        start = clock()
        try:
            with span("bench.op"):
                with span("sim.scenario"):
                    scenario = self._build(self.config, _LARGE_UES, self.seed)
                allocator = self._allocator(
                    pricing=scenario.pricing, rho=scenario.config.rho,
                    kernel="auto",
                )
                outcome = self._run(scenario, allocator)
            latency = clock() - start
            digest, counts = allocation_digest(scenario, outcome)
        except Exception as exc:
            raise OpsFailed(1, exc) from exc
        return Unit([latency], 1.0 / latency, digest, counts)

    def patches(self) -> list[Patch]:
        from repro.core.assignment import Assignment
        from repro.core.matching import IterativeMatchingEngine
        from repro.core.soa import SoAMatchingEngine
        import repro.sim.metrics as metrics
        import repro.sim.runner as runner
        import repro.sim.scenario as scenario

        return [
            Patch(scenario, "MECNetwork", "model.network"),
            Patch(scenario, "build_radio_map", "radio", _links),
            Patch(SoAMatchingEngine, "run", "core.soa"),
            Patch(IterativeMatchingEngine, "run", "core.match.object"),
            Patch(Assignment, "validate", "core.assignment.validate"),
            Patch(runner, "compute_metrics", "sim.metrics"),
            Patch(metrics, "compute_profit", "econ.accounting"),
        ]


def allocation_digest(scenario, outcome) -> tuple[str, dict[str, int]]:
    """Check one static outcome; return its digest and exact counts.

    ``run_allocation`` has already run ``Assignment.validate`` (Eqs.
    12--15).  On top of that every UE must be granted or sent to the
    cloud exactly once.  The digest covers the sorted grants, the cloud
    set and the profit.
    """
    assignment = outcome.assignment
    grants = np.array(
        sorted(
            (g.ue_id, g.bs_id, g.service_id, g.crus, g.rrbs)
            for g in assignment.grants
        ),
        dtype=np.int64,
    ).reshape(-1, 5)
    cloud = np.array(sorted(assignment.cloud_ue_ids), dtype=np.int64)
    placed = np.concatenate((grants[:, 0], cloud))
    placed.sort()
    if not np.array_equal(placed, np.arange(scenario.ue_count)):
        raise CheckFailed("a UE is unplaced or placed more than once")
    profit = outcome.metrics.total_profit
    digest = hashlib.sha256()
    digest.update(grants.tobytes())
    digest.update(cloud.tobytes())
    digest.update(repr(profit).encode())
    counts = {
        "ues": scenario.ue_count,
        "radio_links": len(scenario.radio_map),
        "edge": len(grants),
        "cloud": len(cloud),
        "rounds": outcome.metrics.rounds,
    }
    return digest.hexdigest(), counts


class Certify100k:
    """One op is ``certify_gap(..., method="lagrangian")`` at 150 iterations."""

    name = "certify-100k"
    setup_repeats = 2
    min_units = 3

    def __init__(self, seed: int) -> None:
        from repro.bound import certify_gap
        from repro.core.dmra import DMRAAllocator
        from repro.sim.config import ScenarioConfig
        from repro.sim.runner import run_allocation
        from repro.sim.scenario import build_scenario

        self.seed = seed
        self.config = ScenarioConfig.paper(**_LARGE)
        self._build = build_scenario
        self._allocator = DMRAAllocator
        self._run = run_allocation
        self._certify = certify_gap
        self.scenario = None
        self.incumbent = 0.0

    def set_up(self) -> Unit:
        self.scenario = None  # drop the previous instance first
        scenario = self._build(self.config, _LARGE_UES, self.seed)
        allocator = self._allocator(
            pricing=scenario.pricing, rho=scenario.config.rho, kernel="auto"
        )
        self.incumbent = self._run(scenario, allocator).metrics.total_profit
        self.scenario = scenario
        return self.unit()  # the warm-up op

    def unit(self, recorder=None) -> Unit:
        span = _spans(recorder)
        scenario = self.scenario
        start = clock()
        try:
            with span("bench.op"):
                cert = self._certify(
                    scenario.network,
                    scenario.radio_map,
                    scenario.pricing,
                    incumbent_profit=self.incumbent,
                    method="lagrangian",
                )
            latency = clock() - start
            if not cert.upper_bound >= self.incumbent:
                raise CheckFailed(
                    f"upper bound {cert.upper_bound!r} below incumbent "
                    f"{self.incumbent!r}"
                )
            if not 0.0 <= cert.gap_fraction < 1.0:
                raise CheckFailed(f"gap fraction {cert.gap_fraction!r}")
        except Exception as exc:
            raise OpsFailed(1, exc) from exc
        digest = hashlib.sha256(
            f"{self.incumbent!r}|{cert.upper_bound!r}|{cert.iterations}|"
            f"{cert.converged}".encode()
        ).hexdigest()
        counts = {"iterations": cert.iterations}
        return Unit(
            [latency], 1.0 / latency, digest, counts,
            {"gap_fraction": cert.gap_fraction},
        )

    def patches(self) -> list[Patch]:
        import repro.bound.certificate as certificate

        return [
            Patch(certificate, "compile_bound_problem", "bound.compile",
                  lambda r, a, k: {"pairs": r.n_pairs}),
            Patch(certificate, "lagrangian_bound", "bound.iterate",
                  lambda r, a, k: {
                      "iterations": r.iterations,
                      "converged": int(r.converged),
                  }),
        ]


class StreamSaturated:
    """A closed-loop replay of one saturated churn tape; one op per event.

    Paper deployment (25 BSs, 1200 m), Poisson arrivals at 55/s with
    exponential holding times of mean 26 s and 5% mid-life moves over a
    40 s horizon: about 1400 UEs offered at once, which blocks about a
    third of arrivals and sends about 40 dirty batches of 64 UEs or more
    per replay through the SoA kernel.  At 45/s, blocking jumps from
    about 2% to a quarter as the mean holding time goes from 20 s to
    22 s; this load sits well past that edge.  Every replay must block
    at least ``MIN_BLOCKING`` of its arrivals, so the re-proposal path
    and the blocked-candidate index run.
    """

    name = "stream-saturated"
    setup_repeats = 5
    min_units = 2
    RATE_PER_S = 55.0
    HOLDING_S = 26.0
    HORIZON_S = 40.0
    MOVE_FRACTION = 0.05
    MIN_BLOCKING = 0.1
    #: The warm-up replays the first seconds of the same process.
    PREFIX_HORIZON_S = 25.0

    def __init__(self, seed: int) -> None:
        from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
        from repro.sim.config import ScenarioConfig
        from repro.stream import StreamConfig, StreamDispatcher, open_tape

        self.seed = seed
        self.config = ScenarioConfig.paper()

        def stream(horizon_s: float):
            return StreamConfig(
                horizon_s=horizon_s,
                arrivals=PoissonArrivals(rate_per_s=self.RATE_PER_S),
                holding=ExponentialHolding(mean_s=self.HOLDING_S),
                move_fraction=self.MOVE_FRACTION,
            )

        self._stream = stream(self.HORIZON_S)
        self._prefix = stream(self.PREFIX_HORIZON_S)
        self._open = open_tape
        self._dispatcher = StreamDispatcher
        self._tape = None
        self._seen: set[int] = set()

    def set_up(self) -> Unit:
        self._tape = self._open(self.config, self._stream, self.seed)
        self._replay(self._open(self.config, self._prefix, self.seed), None)
        return None

    def unit(self, recorder=None) -> Unit:
        tape, self._tape = self._tape, None
        if tape is None:
            tape = self._open(self.config, self._stream, self.seed)
        unit = self._replay(tape, recorder)
        blocking = unit.info["blocking"]
        if blocking < self.MIN_BLOCKING:
            raise OpsFailed(len(unit.latencies), CheckFailed(
                f"blocking {blocking!r} is below {self.MIN_BLOCKING}: "
                f"the tape is not saturated"
            ))
        return unit

    def _replay(self, tape, recorder) -> Unit:
        self._seen = set()
        dispatcher = self._dispatcher(
            tape, mode="incremental", shards=1, kernel="auto"
        )
        latencies: list[float] = []
        record = latencies.append
        start = clock()
        replayed = False
        try:
            if recorder is None:
                for event in dispatcher.events():
                    t0 = clock()
                    dispatcher.dispatch(event)
                    record(clock() - t0)
            else:
                span = recorder.span
                for event in dispatcher.events():
                    t0 = clock()
                    with span("bench.op"), span("stream.dispatch"):
                        dispatcher.dispatch(event)
                    record(clock() - t0)
            replayed = True
            outcome = dispatcher.finish(wall_s=clock() - start)
            wall = clock() - start
            counts = {
                "events": outcome.events_processed,
                "arrivals": outcome.arrivals,
                "departures": outcome.departures,
                "moves": outcome.moves,
                "cancelled": outcome.cancelled,
                "admitted_edge": outcome.admitted_edge,
                "admitted_cloud": outcome.admitted_cloud,
                "readmitted": outcome.readmitted,
                "displaced": outcome.displaced,
            }
            if counts["events"] != len(latencies) or counts["events"] != (
                counts["arrivals"] + counts["departures"] + counts["moves"]
            ):
                raise CheckFailed(f"event counts do not add up: {counts}")
            if counts["departures"] != counts["arrivals"] or (
                counts["arrivals"] != outcome.admissions + outcome.cancelled
            ):
                raise CheckFailed(f"admissions do not add up: {counts}")
        except Exception as exc:
            # The replay's outcome is void: every event started failed.
            raise OpsFailed(len(latencies) + (not replayed), exc) from exc
        return Unit(
            latencies, len(latencies) / wall, outcome.digest, counts,
            {"blocking": outcome.blocking_probability},
        )

    def _annotate_batch(self, result, args, kwargs) -> dict:
        ue_ids = kwargs.get("ue_ids")
        if ue_ids is None:
            return {}
        seen = self._seen
        fresh = [u for u in ue_ids if u not in seen]
        seen.update(fresh)
        return {"ues": len(ue_ids), "reproposed": len(ue_ids) - len(fresh)}

    def patches(self) -> list[Patch]:
        from repro.core.matching import IterativeMatchingEngine
        from repro.core.soa import SoAMatchingEngine
        from repro.model.batchnet import BatchNetworkBuilder
        import repro.stream.engine as engine

        batch = self._annotate_batch
        return [
            Patch(engine.IncrementalShardEngine, "flush", "stream.flush"),
            Patch(BatchNetworkBuilder, "network_for", "model.batchnet"),
            Patch(engine, "build_radio_map", "radio", _links),
            Patch(SoAMatchingEngine, "run", "core.soa", batch),
            Patch(IterativeMatchingEngine, "run", "core.match.object", batch),
            Patch(engine, "marginal_profit", "econ.accounting"),
        ]


WORKLOADS = {w.name: w for w in (Static100k, Certify100k, StreamSaturated)}
