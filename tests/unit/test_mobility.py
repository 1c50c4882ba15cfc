"""Unit tests for the mobility simulation."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.dynamics.mobility import (
    RandomWalk,
    RandomWaypoint,
    run_mobility,
)
from repro.errors import ConfigurationError
from repro.model.geometry import Point, Rectangle
from repro.radio import channel
from repro.sim.config import ScenarioConfig

CONFIG = ScenarioConfig.paper()
REGION = Rectangle.square(1200.0)


class TestMobilityModels:
    def test_random_walk_distance_bounded_by_speed(self):
        model = RandomWalk(speed_mps=2.0)
        rng = np.random.default_rng(1)
        start = Point(600.0, 600.0)
        end = model.step(0, start, dt_s=10.0, region=REGION, rng=rng)
        assert start.distance_to(end) <= 20.0 + 1e-9

    def test_random_walk_stays_in_region(self):
        model = RandomWalk(speed_mps=100.0)
        rng = np.random.default_rng(2)
        position = Point(0.0, 0.0)  # on a corner
        for _ in range(50):
            position = model.step(0, position, 10.0, REGION, rng)
            assert REGION.contains(position)

    def test_random_walk_zero_speed_is_static(self):
        model = RandomWalk(speed_mps=0.0)
        rng = np.random.default_rng(3)
        start = Point(100.0, 100.0)
        assert model.step(0, start, 10.0, REGION, rng) == start

    def test_random_walk_invalid_speed(self):
        with pytest.raises(ConfigurationError):
            RandomWalk(speed_mps=-1.0)

    def test_waypoint_moves_toward_target(self):
        model = RandomWaypoint(speed_min_mps=1.0, speed_max_mps=1.0)
        rng = np.random.default_rng(4)
        start = Point(600.0, 600.0)
        first = model.step(0, start, 5.0, REGION, rng)
        target, _ = model._targets[0]
        # After the first step the UE is strictly closer to its target.
        assert first.distance_to(target) < start.distance_to(target)

    def test_waypoint_speed_bounds(self):
        model = RandomWaypoint(speed_min_mps=2.0, speed_max_mps=3.0)
        rng = np.random.default_rng(5)
        position = Point(600.0, 600.0)
        moved = model.step(0, position, dt_s=4.0, region=REGION, rng=rng)
        assert 0 < position.distance_to(moved) <= 12.0 + 1e-9

    def test_waypoint_invalid_speeds(self):
        with pytest.raises(ConfigurationError):
            RandomWaypoint(speed_min_mps=0.0)
        with pytest.raises(ConfigurationError):
            RandomWaypoint(speed_min_mps=3.0, speed_max_mps=1.0)

    def test_waypoint_per_ue_state_is_independent(self):
        model = RandomWaypoint()
        rng = np.random.default_rng(6)
        model.step(0, Point(10, 10), 1.0, REGION, rng)
        model.step(1, Point(20, 20), 1.0, REGION, rng)
        assert set(model._targets) == {0, 1}


class TestRunMobility:
    def run(self, **overrides):
        kwargs = dict(
            config=CONFIG,
            ue_count=200,
            epochs=5,
            epoch_duration_s=30.0,
            seed=1,
            mobility=RandomWalk(speed_mps=5.0),
        )
        kwargs.update(overrides)
        return run_mobility(**kwargs)

    def test_epoch_structure(self):
        outcome = self.run()
        assert outcome.epoch_count == 6  # epoch 0 + 5 mobility epochs
        assert [r.epoch for r in outcome.records] == list(range(6))
        assert outcome.records[0].handovers == 0

    def test_population_conserved_per_epoch(self):
        outcome = self.run()
        for record in outcome.records:
            assert record.edge_served + record.cloud == 200

    def test_seed_determinism(self):
        a = self.run()
        b = self.run()
        assert a.records == b.records

    def test_faster_ues_cause_more_handovers(self):
        slow = self.run(mobility=RandomWalk(speed_mps=1.0), epochs=8)
        fast = self.run(mobility=RandomWalk(speed_mps=30.0), epochs=8)
        assert fast.total_handovers >= slow.total_handovers

    def test_static_ues_never_hand_over(self):
        outcome = self.run(mobility=RandomWalk(speed_mps=0.0))
        assert outcome.total_handovers == 0
        profits = [r.total_profit for r in outcome.records]
        assert all(p == pytest.approx(profits[0]) for p in profits)

    def test_reoptimization_beats_sticky_profit(self):
        sticky = self.run(epochs=8, mobility=RandomWalk(speed_mps=20.0))
        fresh = self.run(
            epochs=8, mobility=RandomWalk(speed_mps=20.0), sticky=False
        )
        assert fresh.mean_profit >= sticky.mean_profit
        assert fresh.total_handovers >= sticky.total_handovers

    def test_profit_positive_throughout(self):
        outcome = self.run()
        assert all(r.total_profit > 0 for r in outcome.records)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            self.run(epochs=0)
        with pytest.raises(ConfigurationError):
            self.run(epoch_duration_s=0.0)

    def test_handover_rate_definition(self):
        outcome = self.run()
        expected = outcome.total_handovers / (200 * outcome.epoch_count)
        assert outcome.handover_rate == pytest.approx(expected)


@dataclass(frozen=True)
class SparseWalk:
    """A walk where only every ``movers_mod``-th UE moves.

    Exercises the partial-move incremental path: the other UEs keep
    their positions (and cached radio-map columns).  The RNG is still
    drawn for every UE, matching the run loop's one-draw-per-UE
    contract.
    """

    movers_mod: int
    speed_mps: float = 5.0

    def step(self, ue_id, position, dt_s, region, rng):
        """Move every ``movers_mod``-th UE like a random walk; pin the
        rest in place."""
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        if ue_id % self.movers_mod:
            return position
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


class TestIncrementalParity:
    """`incremental=True` must replay full-rebuild runs exactly."""

    def run_pair(self, **overrides):
        kwargs = dict(
            config=CONFIG,
            ue_count=150,
            epochs=4,
            epoch_duration_s=30.0,
            seed=3,
            mobility=RandomWalk(speed_mps=5.0),
        )
        kwargs.update(overrides)
        incremental = run_mobility(**kwargs, incremental=True)
        full = run_mobility(**kwargs, incremental=False)
        return incremental, full

    def test_random_walk_records_identical(self):
        incremental, full = self.run_pair()
        assert incremental.records == full.records

    def test_partial_moves_records_identical(self):
        incremental, full = self.run_pair(mobility=SparseWalk(movers_mod=2))
        assert incremental.records == full.records

    def test_non_sticky_records_identical(self):
        incremental, full = self.run_pair(sticky=False)
        assert incremental.records == full.records

    def test_waypoint_records_identical(self):
        # Stateful model: fresh instances per run so targets don't leak.
        incremental = run_mobility(
            CONFIG, 100, 3, 30.0, 4,
            mobility=RandomWaypoint(), incremental=True,
        )
        full = run_mobility(
            CONFIG, 100, 3, 30.0, 4,
            mobility=RandomWaypoint(), incremental=False,
        )
        assert incremental.records == full.records

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            run_mobility(
                CONFIG, 10, 1, 30.0, 0, position_epsilon_m=-1.0
            )

    def test_mcs_rate_model_records_identical(self):
        config = ScenarioConfig.paper(rate_model="mcs")
        incremental, full = self.run_pair(config=config)
        assert incremental.records == full.records


class TestRebuildCrossover:
    """The displaced-fraction crossover must not change results, ever."""

    def test_crossover_settings_all_agree(self, monkeypatch):
        # Half the UEs move each epoch (even ids): fraction 0.25
        # forces the rebuild route, 0.75 the patch route, and the
        # default sits at the boundary.  All must match the
        # full-rebuild reference exactly.
        kwargs = dict(
            config=CONFIG,
            ue_count=120,
            epochs=3,
            epoch_duration_s=30.0,
            seed=7,
            mobility=SparseWalk(movers_mod=2),
        )
        reference = run_mobility(**kwargs, incremental=False)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            monkeypatch.setattr(channel, "REBUILD_FRACTION", fraction)
            outcome = run_mobility(**kwargs, incremental=True)
            assert outcome.records == reference.records, fraction

    def test_random_walk_takes_rebuild_route(self):
        # Everyone moves: the crossover must route to the full rebuild
        # (no incremental radio.build spans), and still match.
        from repro.obs import Recorder, telemetry_session

        kwargs = dict(
            config=CONFIG,
            ue_count=60,
            epochs=2,
            epoch_duration_s=30.0,
            seed=5,
            mobility=RandomWalk(speed_mps=5.0),
        )
        recorder = Recorder()
        with telemetry_session(recorder):
            incremental = run_mobility(**kwargs, incremental=True)
        full = run_mobility(**kwargs, incremental=False)
        assert incremental.records == full.records
        incremental_builds = [
            span
            for span in _walk_spans(recorder.roots)
            if span.name == "radio.build"
            and span.attrs.get("path") == "incremental"
        ]
        assert not incremental_builds
        # Boundary clipping can pin the odd UE, so "everyone" is >= 90%.
        displaced = recorder.gauges["mobility.displaced_fraction"]
        assert displaced.min >= 0.9

    def test_sparse_movers_take_patch_route(self):
        # Every 10th UE moves: one batched build for epoch 0, then each
        # epoch patches exactly the 50 movers' links, and still matches.
        from repro.obs import Recorder, telemetry_session

        kwargs = dict(
            config=CONFIG,
            ue_count=500,
            epochs=5,
            epoch_duration_s=30.0,
            seed=2,
            mobility=SparseWalk(movers_mod=10),
        )
        recorder = Recorder()
        with telemetry_session(recorder):
            incremental = run_mobility(**kwargs, incremental=True)
        full = run_mobility(**kwargs, incremental=False)
        assert incremental.records == full.records
        builds = [
            (span.attrs.get("path"), span.attrs.get("moved"))
            for span in _walk_spans(recorder.roots)
            if span.name == "radio.build"
        ]
        assert builds == [("batched", None)] + [("incremental", 50)] * 5
        displaced = recorder.gauges["mobility.displaced_fraction"]
        assert (displaced.count, displaced.min, displaced.max) == (
            5, 0.1, 0.1
        )


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.children)
