"""Golden parity: the optimized engine must replay the reference bit for bit.

The hot-path engine (cached preference statics, watermark-tracked
``f_u``, cursor-based candidate walks) promises *identical* results to
the straightforward reference implementation preserved in
``tests/oracles/matching.py`` — same grants in the same order,
same cloud set, same round count.  These tests pin that promise across
seeded scenarios for both matching-based schemes; NonCo (which bypasses
the engine entirely) is pinned against a recorded digest so drift in
shared plumbing cannot hide.
"""

import hashlib
import json
from pathlib import Path

import pytest
from oracles.matching import ReferenceMatchingEngine
from oracles.radio_map import assert_link_parity, build_radio_map_reference

from repro.baselines.dcsp import DCSPPolicy
from repro.baselines.nonco import NonCoAllocator
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine
from repro.econ.pricing import PaperPricing
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

SCENARIOS = [
    (120, 3, "regular"),
    (250, 5, "random"),
    (400, 11, "regular"),
]


def _build(ue_count, seed, placement):
    config = ScenarioConfig.paper(placement=placement)
    return build_scenario(config, ue_count, seed)


def _policies():
    return {
        "dmra": lambda sc: DMRAPolicy(pricing=sc.pricing),
        "dmra-rho0": lambda sc: DMRAPolicy(pricing=sc.pricing, rho=0.0),
        "dcsp": lambda sc: DCSPPolicy(),
    }


@pytest.mark.parametrize("ue_count,seed,placement", SCENARIOS)
@pytest.mark.parametrize("policy_name", sorted(_policies()))
def test_optimized_engine_matches_reference(
    ue_count, seed, placement, policy_name
):
    scenario = _build(ue_count, seed, placement)
    factory = _policies()[policy_name]
    reference = ReferenceMatchingEngine(factory(scenario)).run(
        scenario.network, scenario.radio_map
    )
    optimized = IterativeMatchingEngine(factory(scenario)).run(
        scenario.network, scenario.radio_map
    )
    assert optimized.grants == reference.grants  # includes order
    assert optimized.cloud_ue_ids == reference.cloud_ue_ids
    assert optimized.rounds == reference.rounds


def test_parity_survives_engine_reuse_across_runs():
    """A warm static cache (second run on the same network) must not
    change results — the online simulation depends on this."""
    scenario = _build(250, 5, "random")
    engine = IterativeMatchingEngine(DMRAPolicy(pricing=scenario.pricing))
    first = engine.run(scenario.network, scenario.radio_map)
    second = engine.run(scenario.network, scenario.radio_map)
    assert first.grants == second.grants
    assert first.cloud_ue_ids == second.cloud_ue_ids
    assert first.rounds == second.rounds


def _digest(assignment) -> str:
    payload = repr((
        tuple(
            (g.bs_id, g.ue_id, g.service_id, g.crus, g.rrbs)
            for g in assignment.grants
        ),
        tuple(sorted(assignment.cloud_ue_ids)),
    )).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# Recorded from the seed implementation; NonCo shares scenario plumbing
# (radio map, ledgers, candidate sets) with the engine, so a digest
# change here flags an unintended behavioural change in that plumbing.
NONCO_DIGESTS = {
    (120, 3, "regular"): "5931acbcbd55e654",
    (250, 5, "random"): "915674623c71508a",
    (400, 11, "regular"): "11084bc33d491b25",
}


@pytest.mark.parametrize("ue_count,seed,placement", SCENARIOS)
def test_nonco_assignment_digest_is_stable(ue_count, seed, placement):
    scenario = _build(ue_count, seed, placement)
    assignment = NonCoAllocator().allocate(
        scenario.network, scenario.radio_map
    )
    assert _digest(assignment) == NONCO_DIGESTS[(ue_count, seed, placement)]


# The outcome digest recorded when the hot-path engine replaced the
# reference: its DMRA assignment on the paper deployment with 2000 UEs
# at seed 1.
PARITY_FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "parity_pr1.json"
)


def test_paper_scale_digest_and_oracle_parity():
    """At 2000 UEs the object engine reproduces the recorded digest and
    the reference engine's assignment, and the vectorized radio map
    equals the scalar reference loop link for link."""
    fixture = json.loads(PARITY_FIXTURE.read_text())
    config = ScenarioConfig.paper()
    scenario = build_scenario(config, fixture["ue_count"], fixture["seed"])
    optimized = IterativeMatchingEngine(
        DMRAPolicy(pricing=scenario.pricing)
    ).run(scenario.network, scenario.radio_map)
    digest = _digest(optimized)
    assert digest == fixture["digest"], (
        f"outcome digest is now {digest}; update {PARITY_FIXTURE.name} "
        f"only for a deliberate behaviour change"
    )
    reference = ReferenceMatchingEngine(
        DMRAPolicy(pricing=scenario.pricing)
    ).run(scenario.network, scenario.radio_map)
    assert optimized.grants == reference.grants  # includes order
    assert optimized.cloud_ue_ids == reference.cloud_ue_ids
    assert optimized.rounds == reference.rounds

    budget, rate_model = config.link_budget(), config.rate_model_fn()
    assert_link_parity(
        build_radio_map(scenario.network, budget, rate_model=rate_model),
        build_radio_map_reference(
            scenario.network, budget, rate_model=rate_model
        ),
    )
