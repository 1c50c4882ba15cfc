"""Unit tests for the byte-bounded scenario cache (satellite of the
scale subsystem: sweeps must not pin gigabytes of large scenarios)."""

import pytest

from repro.sim.config import ScenarioConfig
from repro.sim.scenario import (
    build_scenario_cached,
    clear_scenario_cache,
    estimate_scenario_bytes,
    scenario_cache_info,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


CONFIG = ScenarioConfig.paper()


class TestEstimateScenarioBytes:
    def test_positive_and_monotone_in_population(self):
        small = build_scenario_cached(CONFIG, ue_count=30, seed=0)
        large = build_scenario_cached(CONFIG, ue_count=120, seed=0)
        assert estimate_scenario_bytes(small) > 0
        assert estimate_scenario_bytes(large) > estimate_scenario_bytes(
            small
        )

    def test_accounts_geometry_and_radio_map(self):
        scenario = build_scenario_cached(CONFIG, ue_count=50, seed=1)
        floor = (
            scenario.network.estimated_geometry_bytes()
            + scenario.radio_map.estimated_bytes()
        )
        assert estimate_scenario_bytes(scenario) >= floor


class TestByteBound:
    def test_tracked_bytes_match_entries(self):
        build_scenario_cached(CONFIG, ue_count=30, seed=0)
        build_scenario_cached(CONFIG, ue_count=40, seed=0)
        info = scenario_cache_info()
        assert info["size"] == 2
        assert info["bytes"] > 0

    def test_byte_cap_evicts_lru(self, monkeypatch):
        # Cap the cache at 1 MB; each paper-config scenario at these
        # sizes is a few hundred KB, so the third insert must evict.
        monkeypatch.setenv("DMRA_SCENARIO_CACHE_MB", "1")
        first = build_scenario_cached(CONFIG, ue_count=600, seed=0)
        size = estimate_scenario_bytes(first)
        assert size > 1024 * 1024 / 3, "fixture scenario too small"
        for seed in (1, 2):
            build_scenario_cached(CONFIG, ue_count=600, seed=seed)
        info = scenario_cache_info()
        assert info["byte_capacity"] == 1024 * 1024
        assert info["bytes"] <= info["byte_capacity"] or info["size"] == 1
        # The oldest entry was evicted: re-requesting it is a miss.
        before = scenario_cache_info()["misses"]
        build_scenario_cached(CONFIG, ue_count=600, seed=0)
        assert scenario_cache_info()["misses"] == before + 1

    def test_oversized_scenario_returned_uncached(self, monkeypatch):
        monkeypatch.setenv("DMRA_SCENARIO_CACHE_MB", "1")
        # 2000 UEs x 25 BSs is over a MB of geometry + radio map.
        scenario = build_scenario_cached(CONFIG, ue_count=2000, seed=5)
        assert estimate_scenario_bytes(scenario) > 1024 * 1024
        assert scenario_cache_info()["size"] == 0

    def test_zero_disables_byte_bound(self, monkeypatch):
        monkeypatch.setenv("DMRA_SCENARIO_CACHE_MB", "0")
        assert scenario_cache_info()["byte_capacity"] == 0
        for seed in range(4):
            build_scenario_cached(CONFIG, ue_count=200, seed=seed)
        assert scenario_cache_info()["size"] == 4

    def test_invalid_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("DMRA_SCENARIO_CACHE_MB", "many")
        assert scenario_cache_info()["byte_capacity"] == 1024 * 1024 * 1024

    def test_hits_do_not_grow_bytes(self):
        build_scenario_cached(CONFIG, ue_count=30, seed=0)
        bytes_before = scenario_cache_info()["bytes"]
        build_scenario_cached(CONFIG, ue_count=30, seed=0)
        info = scenario_cache_info()
        assert info["bytes"] == bytes_before
        assert info["hits"] == 1
