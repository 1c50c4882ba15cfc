"""The object engine's columnar set-up equals the per-pair one.

``IterativeMatchingEngine`` builds a run's pair states from the radio
map's columns: one slice of BS ids, RRB demands and distances per UE
(one conversion per column for a batch map), sorted by ``bs_id``, with
the static prices computed from the map's distances.  The oracle
(:func:`oracles.matching.per_pair_states`) is the set-up it replaced:
``radio_map.link()`` and one scalar ``static_ue_score`` per pair, DMRA's
reading ``network.distance_m``.  Every pair state must match it: same
order, ``static`` bit for bit, same ``rrbs``, same ``alive``.

Runs are drawn on batch networks (``BatchNetworkBuilder.network_for``
plus their own radio map) and on whole networks with a target subset,
both against pools pre-loaded by matching the other UEs, under every
policy of ``test_incremental_grants.POLICIES``.  Deployments may number
their BSs so that ids do not ascend with column, host services on only
part of the BSs, price with ``PaperPricing(distance_weight=0)`` (exact
ties), and hold a UE that no BS covers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.matching import per_pair_states
from test_incremental_grants import POLICIES

from repro.compute.cru import LedgerPool
from repro.core.matching import IterativeMatchingEngine
from repro.econ.pricing import PaperPricing
from repro.model.batchnet import BatchNetworkBuilder
from repro.model.geometry import Point
from repro.model.network import MECNetwork
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@dataclass(frozen=True)
class Case:
    ue_count: int
    seed: int
    bs_per_sp: int
    hosted_fraction: float
    policy: str
    flat_distance: bool
    #: BS id of each column is ``2 * bs_ids[col] + 5``; ``None`` keeps
    #: the scenario's ids, which ascend with column.
    bs_ids: tuple[int, ...] | None
    batch_network: bool
    #: The batch is every ``batch_every``-th UE in id order, plus the
    #: UE beyond coverage; the other UEs pre-load the pool.
    batch_every: int


@dataclass(frozen=True)
class Facts:
    """What one case exercised."""

    unsorted_slice: bool
    no_candidate: bool
    #: Some pairs start alive and some born retired.
    mixed_alive: bool
    tied_statics: bool


def _deployment(case: Case):
    """The case's network and radio map, with one UE beyond coverage."""
    config = ScenarioConfig.paper(
        bs_per_sp=case.bs_per_sp,
        placement="random",
        hosted_fraction=case.hosted_fraction,
    )
    scenario = build_scenario(config, case.ue_count, case.seed)
    network = scenario.network
    base_stations = list(network.base_stations)
    if case.bs_ids is not None:
        base_stations = [
            replace(bs, bs_id=2 * new_id + 5)
            for bs, new_id in zip(base_stations, case.bs_ids)
        ]
    region, radius = network.region, network.coverage_radius_m
    ues = list(network.user_equipments)
    far = replace(
        ues[0],
        ue_id=max(ue.ue_id for ue in ues) + 1,
        position=Point(region.x_max + 3 * radius, region.y_min),
    )
    network = MECNetwork(
        providers=network.providers,
        base_stations=base_stations,
        user_equipments=[*ues, far],
        services=network.services,
        region=region,
        coverage_radius_m=radius,
    )
    budget, rate_model = config.link_budget(), config.rate_model_fn()
    radio_map = build_radio_map(network, budget, rate_model=rate_model)
    pricing = (
        PaperPricing(distance_weight=0.0) if case.flat_distance
        else scenario.pricing
    )
    return network, radio_map, pricing, far.ue_id, (budget, rate_model)


def _check(case: Case) -> Facts:
    network, radio_map, pricing, far_id, radio = _deployment(case)
    factory = POLICIES[case.policy]
    ue_ids = sorted(ue.ue_id for ue in network.user_equipments)
    batch = sorted({*ue_ids[::case.batch_every], far_id})
    rest = sorted(set(ue_ids) - set(batch))
    pool = LedgerPool(network.base_stations)
    IterativeMatchingEngine(factory(pricing, 10.0)).run(
        network, radio_map, ledgers=pool, ue_ids=rest
    )
    # Free room on the BSs first in pool order only: the others stay
    # as full as the pre-load left them.
    held = pool.all_grants()
    for grant in held[:len(held) // 2:4]:
        pool.ledger(grant.bs_id).release(grant.ue_id)

    if case.batch_network:
        builder = BatchNetworkBuilder(
            providers=network.providers,
            base_stations=network.base_stations,
            services=network.services,
            region=network.region,
            coverage_radius_m=network.coverage_radius_m,
        )
        network = builder.network_for(
            [network.user_equipment(ue_id) for ue_id in batch]
        )
        budget, rate_model = radio
        radio_map = build_radio_map(network, budget, rate_model=rate_model)

    engine = IterativeMatchingEngine(factory(pricing, 10.0))
    ctx, _, cands, _ = engine._set_up(network, radio_map, pool, batch)
    columnar = {
        ue_id: [
            (pair.bs_id, _bits(pair.static), pair.rrbs, pair.alive)
            for pair in cands[ue_id]
        ]
        for ue_id in batch
    }
    expected = per_pair_states(
        factory(pricing, 10.0), network, radio_map, pool, batch
    )
    assert columnar == {
        ue_id: [
            (bs_id, _bits(static), rrbs, alive)
            for bs_id, static, rrbs, alive in rows
        ]
        for ue_id, rows in expected.items()
    }
    assert ctx.candidate_sets == {
        ue_id: [row[0] for row in rows] for ue_id, rows in expected.items()
    }
    assert ctx.candidate_bs_ids == tuple(sorted({
        row[0] for rows in expected.values() for row in rows
    }))

    statics = [row[1] for rows in expected.values() for row in rows]
    return Facts(
        unsorted_slice=any(
            list(bs_ids) != sorted(bs_ids)
            for bs_ids, _, _ in radio_map.ue_link_columns(batch)
        ),
        no_candidate=not expected[far_id],
        mixed_alive={
            row[3] for rows in expected.values() for row in rows
        } == {True, False},
        tied_statics=len(set(statics)) < len(statics),
    )


def _bits(static: float | None) -> str | None:
    """A static score's exact bits (``float.hex``), or ``None``."""
    return None if static is None else static.hex()


@RELAXED
@given(
    ue_count=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=1000),
    bs_per_sp=st.sampled_from([1, 2, 5]),
    hosted_fraction=st.sampled_from([1.0, 0.5]),
    policy=st.sampled_from(sorted(POLICIES)),
    flat_distance=st.booleans(),
    batch_network=st.booleans(),
    batch_every=st.sampled_from([1, 4, 25, 1000]),
    data=st.data(),
)
def test_columnar_pair_states_equal_the_per_pair_set_up(
    ue_count, seed, bs_per_sp, hosted_fraction, policy, flat_distance,
    batch_network, batch_every, data,
):
    bs_count = ScenarioConfig.paper(bs_per_sp=bs_per_sp).bs_count
    bs_ids = data.draw(st.one_of(
        st.none(), st.permutations(range(bs_count)).map(tuple)
    ))
    _check(Case(
        ue_count, seed, bs_per_sp, hosted_fraction, policy, flat_distance,
        bs_ids, batch_network, batch_every,
    ))


#: Fixed cases on BSs numbered against their columns, each of which
#: sorts a slice, holds a UE with no candidate, and starts some pairs
#: alive and some born retired; flat prices tie statics (DCSP's and
#: steered β=1's always tie at 0.0 or ``None``).
CATALOGUE = [
    Case(300, 3, 1, hosted, policy, flat, (4, 3, 2, 1, 0), batch, 4)
    for policy in sorted(POLICIES)
    for flat, hosted, batch in ((True, 1.0, True), (False, 0.5, False))
]


@pytest.mark.parametrize(
    "case", CATALOGUE,
    ids=lambda c: f"{c.policy}-flat{int(c.flat_distance)}"
    f"-batch{int(c.batch_network)}",
)
def test_fixed_cases_reach_every_situation(case):
    facts = _check(case)
    assert facts.unsorted_slice
    assert facts.no_candidate
    assert facts.mixed_alive
    if case.flat_distance:
        assert facts.tied_statics
