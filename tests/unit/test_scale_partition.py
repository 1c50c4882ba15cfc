"""Unit tests for the region tiling and the streaming builder."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.model.geometry import Rectangle
from repro.scale import build_scenario_frame, plan_tiles
from repro.scale.partition import assign_shards
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario


class TestPlanTiles:
    def test_square_count_gives_square_grid(self):
        nx, ny, bounds = plan_tiles(Rectangle.square(1200.0), 4)
        assert (nx, ny) == (2, 2)
        assert len(bounds) == 4

    def test_prime_count_degenerates_to_strips(self):
        nx, ny, _ = plan_tiles(Rectangle.square(1200.0), 5)
        assert sorted((nx, ny)) == [1, 5]

    def test_larger_factor_follows_longer_side(self):
        wide = Rectangle(0.0, 0.0, 2000.0, 500.0)
        nx, ny, _ = plan_tiles(wide, 6)
        assert nx >= ny
        tall = Rectangle(0.0, 0.0, 500.0, 2000.0)
        nx, ny, _ = plan_tiles(tall, 6)
        assert ny >= nx

    def test_tiles_exactly_cover_the_region(self):
        region = Rectangle(10.0, -5.0, 1210.0, 595.0)
        _, _, bounds = plan_tiles(region, 6)
        assert sum(b.area for b in bounds) == pytest.approx(region.area)
        assert min(b.x_min for b in bounds) == region.x_min
        assert max(b.x_max for b in bounds) == pytest.approx(region.x_max)

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_tiles(Rectangle.square(100.0), 0)


class TestAssignShards:
    def test_every_point_gets_exactly_one_shard(self):
        region = Rectangle.square(1000.0)
        rng = np.random.default_rng(0)
        xy = rng.uniform(0.0, 1000.0, size=(500, 2))
        owners = assign_shards(xy, region, 3, 2)
        assert owners.shape == (500,)
        assert owners.min() >= 0 and owners.max() < 6

    def test_far_edge_points_clip_into_last_tile(self):
        region = Rectangle.square(1000.0)
        xy = np.array([[1000.0, 1000.0], [0.0, 0.0], [1500.0, -3.0]])
        owners = assign_shards(xy, region, 2, 2)
        assert owners.tolist() == [3, 0, 1]


class TestScenarioFrame:
    def test_chunked_ues_bit_identical_to_monolithic(self):
        config = ScenarioConfig.paper()
        scenario = build_scenario(config, ue_count=123, seed=9)
        frame = build_scenario_frame(config, ue_count=123, seed=9)
        assert frame.providers == scenario.network.providers
        assert frame.base_stations == scenario.network.base_stations
        assert frame.services == scenario.network.services
        streamed = [
            ue
            for chunk in frame.iter_ue_chunks(chunk_size=40)
            for ue in chunk
        ]
        assert tuple(streamed) == scenario.network.user_equipments

    def test_frame_is_one_shot(self):
        frame = build_scenario_frame(
            ScenarioConfig.paper(), ue_count=10, seed=0
        )
        list(frame.iter_ue_chunks(chunk_size=4))
        with pytest.raises(ConfigurationError):
            next(iter(frame.iter_ue_chunks(chunk_size=4)))

    def test_invalid_chunk_size_rejected(self):
        frame = build_scenario_frame(
            ScenarioConfig.paper(), ue_count=10, seed=0
        )
        with pytest.raises(ConfigurationError):
            next(iter(frame.iter_ue_chunks(chunk_size=0)))
