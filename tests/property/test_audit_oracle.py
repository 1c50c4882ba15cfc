"""The columnar allocation audit against its scalar oracle, by property.

``Assignment.validate``, ``compute_profit`` and ``compute_metrics`` run
as whole-array passes; ``tests/oracles/audit.py`` keeps the per-grant
loops they replaced.  Hypothesis draws small paper scenarios
(optionally with shuffled, non-contiguous entity ids
and a radio map out of key order), three pricing policies (the two
batched fast paths and one that takes the scalar fallback), and either
the DMRA assignment as is or with injected violations.  Both sides must
raise the same exception with the same message, or return equal
``ProfitStatement`` and ``OutcomeMetrics`` values, float for float.
The per-service CRU and per-SP forwarded-traffic breakdowns of the
``--metrics`` document are held to their per-grant and per-UE loops
the same way.
"""

import dataclasses
import math
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from oracles import audit as oracle

from repro.compute.cru import Grant
from repro.core.assignment import Assignment
from repro.core.dmra import DMRAAllocator
from repro.econ.accounting import compute_profit
from repro.econ.pricing import FlatPricing, PaperPricing
from repro.errors import ConfigurationError
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap, build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.metrics import (
    compute_metrics,
    per_service_cru_utilization,
    per_sp_forwarded_traffic,
)
from repro.sim.scenario import build_scenario

AUDIT = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@dataclasses.dataclass(frozen=True)
class RootDistancePricing:
    """A policy outside the batched fast paths: each price is a scalar call."""

    cross_sp_markup: float = 1.5

    def price_per_cru(self, distance_m: float, same_sp: bool) -> float:
        if distance_m < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance_m}")
        ownership = 1.0 if same_sp else self.cross_sp_markup
        return ownership + 0.05 * math.sqrt(distance_m)

    def max_price(self, max_distance_m: float) -> float:
        return self.price_per_cru(max_distance_m, same_sp=False)


PRICINGS = {
    "paper": PaperPricing(cross_sp_markup=1.5),
    "flat": FlatPricing(same_sp_price=1.25, cross_sp_price=2.75),
    "custom": RootDistancePricing(),
}

#: Violations confined to one grant, in the order validation checks them.
GRANT_VIOLATIONS = (
    "unknown_bs", "wrong_service", "unhosted", "uncovered", "crus", "rrbs",
)
VIOLATIONS = (
    ("none", "missing_ue", "unknown_ue")
    + GRANT_VIOLATIONS
    + ("eq12_overflow", "eq14_overflow", "two_at_once")
)


@lru_cache(maxsize=64)
def _instance(ue_count: int, seed: int, crowded: bool, relabel: bool):
    config = ScenarioConfig.paper()
    if crowded:
        # Ten BSs with small pools, each hosting half the services, send
        # many UEs to the cloud.
        config = config.with_(
            bs_per_sp=2, cru_capacity_min=8, cru_capacity_max=16,
            hosted_fraction=0.5,
        )
    network = build_scenario(config, ue_count, seed).network
    if relabel:
        network = _relabelled(network)
    radio_map = build_radio_map(
        network, config.link_budget(), rate_model=config.rate_model_fn()
    )
    if relabel:
        radio_map = _scrambled(radio_map)
    return network, radio_map


def _relabelled(network: MECNetwork) -> MECNetwork:
    """Sparse ids whose order differs from the entity order."""
    return dataclasses.replace(
        network,
        user_equipments=[
            dataclasses.replace(ue, ue_id=3 * ue.ue_id + 5)
            for ue in reversed(network.user_equipments)
        ],
        base_stations=[
            dataclasses.replace(bs, bs_id=2 * bs.bs_id + 11)
            for bs in reversed(network.base_stations)
        ],
    )


def _scrambled(radio_map: RadioMap) -> RadioMap:
    """The same links with the UE groups out of (ue, bs) key order."""
    groups: dict[int, list] = {}
    for link in radio_map:
        groups.setdefault(link.ue_id, []).append(link)
    order = sorted(groups, key=lambda ue_id: (ue_id * 7919) % 101)
    return RadioMap.from_links(
        (link for ue_id in order for link in groups[ue_id]), radio_map.network
    )


def _with_bs(network: MECNetwork, bs_id: int, **changes) -> MECNetwork:
    return dataclasses.replace(
        network,
        base_stations=[
            dataclasses.replace(bs, **changes) if bs.bs_id == bs_id else bs
            for bs in network.base_stations
        ],
    )


def _break_grant(network, grant: Grant, kind: str, data):
    """``(network, grant)`` with one per-grant violation of ``kind``.

    Returns ``None`` when the instance offers no way to inject it.
    """
    ue = network.user_equipment(grant.ue_id)
    bs_ids = {bs.bs_id for bs in network.base_stations}
    if kind == "unknown_bs":
        return network, dataclasses.replace(grant, bs_id=max(bs_ids) + 1000)
    if kind == "wrong_service":
        others = [
            s.service_id for s in network.services
            if s.service_id != ue.service_id
        ] + [max(s.service_id for s in network.services) + 7]
        return network, dataclasses.replace(
            grant, service_id=data.draw(st.sampled_from(others))
        )
    if kind == "unhosted":
        # The paper deployment hosts every service everywhere, so the
        # grant's BS stops hosting the grant's service instead.
        if grant.bs_id not in bs_ids:
            return None
        capacity = {
            service_id: crus
            for service_id, crus in
            network.base_station(grant.bs_id).cru_capacity.items()
            if service_id != grant.service_id
        }
        return _with_bs(network, grant.bs_id, cru_capacity=capacity), grant
    if kind == "uncovered":
        far = [
            bs.bs_id for bs in network.base_stations
            if bs.hosts_service(ue.service_id)
            and not network.covers(bs.bs_id, ue.ue_id)
        ]
        if not far:
            return None
        return network, dataclasses.replace(
            grant, bs_id=data.draw(st.sampled_from(far))
        )
    if kind == "crus":
        return network, dataclasses.replace(grant, crus=grant.crus + 1)
    return network, dataclasses.replace(grant, rrbs=grant.rrbs + 1)


def _inject(kind: str, network, assignment, data):
    """``(network, assignment)`` with the violation ``kind`` injected."""
    grants = list(assignment.grants)
    cloud = set(assignment.cloud_ue_ids)
    if kind == "none":
        return network, assignment
    if kind == "missing_ue":
        for _ in range(data.draw(st.integers(1, 3))):
            if grants and data.draw(st.booleans()):
                grants.pop(data.draw(st.integers(0, len(grants) - 1)))
            elif cloud:
                cloud.remove(data.draw(st.sampled_from(sorted(cloud))))
    elif kind == "unknown_ue":
        top = max(ue.ue_id for ue in network.user_equipments)
        cloud.add(top + 1000)
        if grants and data.draw(st.booleans()):
            grants.append(dataclasses.replace(grants[0], ue_id=top + 2000))
    else:
        assume(grants)
        index = data.draw(st.integers(0, len(grants) - 1))
        if kind in GRANT_VIOLATIONS:
            broken = _break_grant(network, grants[index], kind, data)
            assume(broken is not None)
            network, grants[index] = broken
        elif kind == "two_at_once":
            # Breaking one grant twice pins the order of the per-grant
            # checks; two grants pin lowest-index-first.
            other = (
                index if data.draw(st.booleans())
                else data.draw(st.integers(0, len(grants) - 1))
            )
            for at in (index, other):
                broken = _break_grant(
                    network, grants[at],
                    data.draw(st.sampled_from(GRANT_VIOLATIONS)), data,
                )
                assume(broken is not None)
                network, grants[at] = broken
        else:
            # Shrink the pools of one or two grants below their use, so
            # the first-appearance order of overflowing pools matters.
            for at in {index, data.draw(st.integers(0, len(grants) - 1))}:
                grant = grants[at]
                bs = network.base_station(grant.bs_id)
                if kind == "eq12_overflow":
                    used = sum(
                        g.crus for g in grants
                        if (g.bs_id, g.service_id)
                        == (grant.bs_id, grant.service_id)
                    )
                    assume(used >= 2)
                    capacity = {**bs.cru_capacity, grant.service_id: used - 1}
                    network = _with_bs(
                        network, bs.bs_id, cru_capacity=capacity
                    )
                else:  # eq14_overflow
                    used = sum(g.rrbs for g in grants if g.bs_id == bs.bs_id)
                    assume(used >= 2)
                    network = _with_bs(
                        network, bs.bs_id, rrb_capacity=used - 1
                    )
    return network, Assignment(
        grants=tuple(grants), cloud_ue_ids=frozenset(cloud),
        rounds=assignment.rounds,
    )


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # whatever it is, the oracle must match it
        return None, exc


@pytest.mark.parametrize("violation", VIOLATIONS)
@AUDIT
@given(
    ue_count=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=40),
    crowded=st.booleans(),
    relabel=st.booleans(),
    pricing=st.sampled_from(sorted(PRICINGS)),
    data=st.data(),
)
def test_audit_matches_scalar_oracle(
    violation, ue_count, seed, crowded, relabel, pricing, data
):
    network, radio_map = _instance(ue_count, seed, crowded, relabel)
    pricing = PRICINGS[pricing]
    solved = DMRAAllocator(pricing=pricing).allocate(network, radio_map)
    if data.draw(st.booleans()):
        # Validation and accounting must not lean on the engine's order.
        solved = dataclasses.replace(
            solved, grants=data.draw(st.permutations(solved.grants))
        )
    network, assignment = _inject(violation, network, solved, data)

    _, expected_error = _outcome(
        lambda: oracle.validate(assignment, network, radio_map)
    )
    _, error = _outcome(lambda: assignment.validate(network, radio_map))
    event(f"raises {type(expected_error).__name__}")
    assert type(error) is type(expected_error)
    assert str(error) == str(expected_error)
    if violation == "none":
        assert error is None

    for columnar, scalar in (
        (lambda: compute_profit(network, assignment.grants, pricing),
         lambda: oracle.compute_profit(network, assignment.grants, pricing)),
        (lambda: compute_metrics(network, assignment, pricing),
         lambda: oracle.compute_metrics(network, assignment, pricing)),
    ):
        expected, expected_error = _outcome(scalar)
        got, error = _outcome(columnar)
        # Unknown-entity messages name the lookup that failed, which
        # differs between the two; the exception type may not.
        assert type(error) is type(expected_error)
        assert got == expected


@pytest.mark.parametrize(
    "violation", ("none", "missing_ue", "unknown_ue", "wrong_service",
                  "unhosted", "eq12_overflow"),
)
@AUDIT
@given(
    ue_count=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=40),
    crowded=st.booleans(),
    relabel=st.booleans(),
    data=st.data(),
)
def test_metric_breakdowns_match_scalar_oracle(
    violation, ue_count, seed, crowded, relabel, data
):
    network, radio_map = _instance(ue_count, seed, crowded, relabel)
    solved = DMRAAllocator(pricing=PRICINGS["paper"]).allocate(
        network, radio_map
    )
    network, assignment = _inject(violation, network, solved, data)
    for columnar, scalar in (
        (per_service_cru_utilization, oracle.per_service_cru_utilization),
        (per_sp_forwarded_traffic, oracle.per_sp_forwarded_traffic),
    ):
        expected, expected_error = _outcome(
            lambda: scalar(network, assignment)
        )
        got, error = _outcome(lambda: columnar(network, assignment))
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        assert got == expected
        if got is not None:
            assert sorted(got) == sorted(expected)
