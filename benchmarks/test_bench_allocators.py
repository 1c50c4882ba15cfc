"""Micro-benchmarks: raw allocator runtime on one paper-sized scenario.

Not a paper figure — this measures the cost of each scheme (and of the
message-passing DMRA variant) at 600 UEs so regressions in the matching
engine show up as timing changes.
"""

import pytest

from repro.baselines.dcsp import DCSPAllocator
from repro.baselines.greedy import GreedyProfitAllocator
from repro.baselines.nonco import NonCoAllocator
from repro.baselines.random_alloc import RandomAllocator
from repro.core.dmra import DMRAAllocator
from repro.dist import DistributedDMRAAllocator
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioConfig.paper(), ue_count=600, seed=1)


def _bench(benchmark, scenario, allocator):
    assignment = benchmark(
        lambda: allocator.allocate(scenario.network, scenario.radio_map)
    )
    assignment.validate(scenario.network, scenario.radio_map)


def test_dmra_runtime(benchmark, scenario):
    _bench(benchmark, scenario, DMRAAllocator(pricing=scenario.pricing))


def test_dmra_agents_runtime(benchmark, scenario):
    _bench(
        benchmark,
        scenario,
        DistributedDMRAAllocator(transport="inproc", pricing=scenario.pricing),
    )


def test_dcsp_runtime(benchmark, scenario):
    _bench(benchmark, scenario, DCSPAllocator())


def test_nonco_runtime(benchmark, scenario):
    _bench(benchmark, scenario, NonCoAllocator())


def test_greedy_runtime(benchmark, scenario):
    _bench(benchmark, scenario, GreedyProfitAllocator(pricing=scenario.pricing))


def test_random_runtime(benchmark, scenario):
    _bench(benchmark, scenario, RandomAllocator(seed=1))


def test_scenario_build_runtime(benchmark):
    benchmark(lambda: build_scenario(ScenarioConfig.paper(), 600, 1))
