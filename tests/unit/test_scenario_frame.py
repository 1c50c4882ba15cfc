"""Unit tests for the two-step scenario builder (``repro.sim.frame``)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.frame import build_scenario_frame
from repro.sim.scenario import build_scenario


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
