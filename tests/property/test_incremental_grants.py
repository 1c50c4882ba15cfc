"""Incremental object-engine runs report exactly the grants they booked.

``IterativeMatchingEngine.run(..., ledgers=pool, ue_ids=batch)`` collects
the grants it books and orders them by ledger-pool position, then by
booking order, instead of diffing the whole pool before and after the run
(:mod:`oracles.grant_diff`).  Hypothesis pre-loads a pool the way a stream
does (a first run books grants across the region, some of them are
released, one is released and re-granted on the same BS), then matches a
batch of UEs from one corner of the region and checks:

* ``assignment.grants`` equals the oracle's diff, order included;
* grants, cloud set and round count equal those of the reference engine
  (:class:`oracles.matching.ReferenceMatchingEngine`) run
  on an identical pool, and both pools end in the same state.

Draws cover pools whose ledger order differs from BS id order, exact
score ties (``PaperPricing(distance_weight=0)``), contention that evicts,
and every policy the object engine runs: DMRA with and without SP
priority, DCSP, and the congestion-steered policy at β=0 (DMRA's term
table) and β=1 (no term table).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import grant_diff as oracle
from oracles.matching import ReferenceMatchingEngine

from repro.baselines.dcsp import DCSPPolicy
from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine
from repro.core.steering import CongestionSteeredPolicy
from repro.econ.pricing import PaperPricing
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = {
    "dmra": lambda pricing, rho: DMRAPolicy(pricing=pricing, rho=rho),
    "dmra-no-sp-priority": lambda pricing, rho: DMRAPolicy(
        pricing=pricing, rho=rho, same_sp_priority=False
    ),
    "dcsp": lambda pricing, rho: DCSPPolicy(),
    "steered-beta0": lambda pricing, rho: CongestionSteeredPolicy(
        pricing=pricing, rho=rho, beta=0.0
    ),
    "steered-beta1": lambda pricing, rho: CongestionSteeredPolicy(
        pricing=pricing, rho=rho, beta=1.0
    ),
}


@dataclass(frozen=True)
class Case:
    ue_count: int
    seed: int
    region_side_m: float
    bs_per_sp: int
    policy: str
    rho: float
    flat_distance: bool
    batch_fraction: float
    release_every: int
    reverse_pool: bool


@dataclass(frozen=True)
class Facts:
    """What one case exercised."""

    evictions: int
    preloaded_outside_candidates: bool
    regranted_on_candidate: bool
    booked: int


def _scenario(case: Case):
    config = ScenarioConfig.paper(
        region_side_m=case.region_side_m,
        bs_per_sp=case.bs_per_sp,
        placement="random",
    )
    return build_scenario(config, case.ue_count, case.seed)


def _pricing(case: Case, scenario):
    if case.flat_distance:
        return PaperPricing(distance_weight=0.0)
    return scenario.pricing


def _split(case: Case, network) -> tuple[list[int], list[int]]:
    """The batch (the UEs nearest the region's left edge) and the rest."""
    by_x = sorted(
        network.user_equipments, key=lambda ue: (ue.position.x, ue.ue_id)
    )
    size = max(1, int(case.batch_fraction * len(by_x)))
    batch = sorted(ue.ue_id for ue in by_x[:size])
    rest = sorted(ue.ue_id for ue in by_x[size:])
    return batch, rest


def _loaded_pool(case: Case, scenario, rest: list[int], candidates: set[int]):
    """A pool pre-loaded by matching ``rest``, then thinned: every
    ``release_every``-th grant leaves, and one grant (on a candidate BS
    when there is one) is released and re-granted on the same BS, which
    moves it to the end of its ledger."""
    network = scenario.network
    base_stations = list(network.base_stations)
    if case.reverse_pool:
        base_stations.reverse()
    pool = LedgerPool(base_stations)
    policy = POLICIES[case.policy](_pricing(case, scenario), case.rho)
    IterativeMatchingEngine(policy).run(
        network, scenario.radio_map, ledgers=pool, ue_ids=rest
    )
    held = pool.all_grants()
    for grant in held[::case.release_every]:
        pool.ledger(grant.bs_id).release(grant.ue_id)
    kept = pool.all_grants()
    regranted = None
    if kept:
        on_candidate = [g for g in kept if g.bs_id in candidates]
        regranted = (on_candidate or kept)[0]
        ledger = pool.ledger(regranted.bs_id)
        ledger.release(regranted.ue_id)
        ledger.grant(
            regranted.ue_id, regranted.service_id, regranted.crus,
            regranted.rrbs,
        )
    return pool, regranted


def _check(case: Case) -> Facts:
    scenario = _scenario(case)
    network, radio_map = scenario.network, scenario.radio_map
    batch, rest = _split(case, network)
    candidates = {
        bs_id for ue_id in batch
        for bs_id in network.candidate_base_stations(ue_id)
    }
    pool, regranted = _loaded_pool(case, scenario, rest, candidates)
    twin, _ = _loaded_pool(case, scenario, rest, candidates)
    factory = POLICIES[case.policy]
    pricing = _pricing(case, scenario)

    before = oracle.held_keys(pool)
    evictions = []
    outcome = IterativeMatchingEngine(factory(pricing, case.rho)).run(
        network, radio_map, ledgers=pool, ue_ids=batch,
        observer=lambda stats: evictions.append(stats.evictions),
    )
    assert outcome.grants == oracle.new_grants(pool, before)  # order too

    reference = ReferenceMatchingEngine(factory(pricing, case.rho)).run(
        network, radio_map, ledgers=twin, ue_ids=batch
    )
    assert outcome.grants == reference.grants
    assert outcome.cloud_ue_ids == reference.cloud_ue_ids
    assert outcome.rounds == reference.rounds
    assert pool.all_grants() == twin.all_grants()
    pool.check_invariants()
    return Facts(
        evictions=sum(evictions),
        preloaded_outside_candidates=any(
            grant.bs_id not in candidates for grant in pool.all_grants()
        ),
        regranted_on_candidate=(
            regranted is not None and regranted.bs_id in candidates
        ),
        booked=len(outcome.grants),
    )


@RELAXED
@given(
    ue_count=st.integers(min_value=2, max_value=300),
    seed=st.integers(min_value=0, max_value=1000),
    region_side_m=st.sampled_from([900.0, 1200.0, 2400.0]),
    bs_per_sp=st.sampled_from([1, 2, 5]),
    policy=st.sampled_from(sorted(POLICIES)),
    rho=st.sampled_from([0.0, 10.0]),
    flat_distance=st.booleans(),
    batch_fraction=st.sampled_from([0.05, 0.25, 0.5]),
    release_every=st.integers(min_value=2, max_value=6),
    reverse_pool=st.booleans(),
)
def test_booked_grants_equal_the_pool_diff(
    ue_count, seed, region_side_m, bs_per_sp, policy, rho, flat_distance,
    batch_fraction, release_every, reverse_pool,
):
    _check(Case(
        ue_count, seed, region_side_m, bs_per_sp, policy, rho,
        flat_distance, batch_fraction, release_every, reverse_pool,
    ))


#: Fixed cases, each of which evicts, pre-loads grants on BSs outside
#: the batch's candidates, and re-grants a held booking on a candidate
#: BS; the second of each pair also ties scores exactly (flat prices and
#: ``rho=0``) on a pool in reverse BS order.
CATALOGUE = [
    Case(600, 3, 2400.0, 1, policy, rho, flat, 0.25, 3, flat)
    for policy in sorted(POLICIES)
    for flat, rho in ((False, 10.0), (True, 0.0))
]


@pytest.mark.parametrize(
    "case", CATALOGUE, ids=lambda c: f"{c.policy}-flat{int(c.flat_distance)}"
)
def test_fixed_cases_reach_every_situation(case):
    facts = _check(case)
    assert facts.evictions
    assert facts.preloaded_outside_candidates
    assert facts.regranted_on_candidate
    assert facts.booked
