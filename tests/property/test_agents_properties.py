"""Agent-layer properties: termination, conservation, delay-0 parity.

Two claims about the agents on ``repro.dist``'s in-process transport
(:class:`~repro.dist.DistributedDMRAAllocator`) that the deterministic
suites sample only pointwise:

* for **any** broadcast delay in ``[0, 5]`` (the staleness ablation's
  fault plan, ``stale_broadcast_plan``) the agent exchange terminates
  and yields an assignment that passes full constraint validation
  (ledger conservation included) with every UE accounted for exactly
  once;
* at delay 0 it is **bit-identical** to the direct engine
  (:class:`~repro.core.dmra.DMRAAllocator`) on random scenarios —
  the decentralization equivalence, by property.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dmra import DMRAAllocator
from repro.dist import DistributedDMRAAllocator
from repro.experiments.extensions import stale_broadcast_plan
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

scenario_params = st.fixed_dictionaries(
    {
        "ue_count": st.integers(min_value=10, max_value=120),
        "seed": st.integers(min_value=0, max_value=2**16),
        "placement": st.sampled_from(["regular", "random", "clustered"]),
    }
)


def build(params):
    return build_scenario(
        ScenarioConfig.paper(placement=params["placement"]),
        params["ue_count"],
        params["seed"],
    )


@RELAXED
@given(
    params=scenario_params,
    delay=st.integers(min_value=0, max_value=5),
    rho=st.sampled_from([0.0, 10.0, 200.0]),
)
def test_terminates_and_conserves_for_any_delay(params, delay, rho):
    scenario = build(params)
    allocator = DistributedDMRAAllocator(
        transport="inproc",
        pricing=scenario.pricing,
        rho=rho,
        fault_plan=stale_broadcast_plan(delay),
    )
    assignment = allocator.allocate(scenario.network, scenario.radio_map)
    # validate() re-checks every constraint: per-BS CRU/RRB budgets
    # (ledger conservation), coverage, and grant/cloud disjointness.
    assignment.validate(scenario.network, scenario.radio_map)
    served = {grant.ue_id for grant in assignment.grants}
    assert served.isdisjoint(assignment.cloud_ue_ids)
    assert served | set(assignment.cloud_ue_ids) == {
        ue.ue_id for ue in scenario.network.user_equipments
    }
    assert 0 <= assignment.rounds <= allocator.max_rounds


@RELAXED
@given(params=scenario_params, rho=st.sampled_from([0.0, 10.0, 200.0]))
def test_delay_zero_is_bit_identical_to_direct_engine(params, rho):
    scenario = build(params)
    direct = DMRAAllocator(pricing=scenario.pricing, rho=rho).allocate(
        scenario.network, scenario.radio_map
    )
    agents = DistributedDMRAAllocator(
        transport="inproc", pricing=scenario.pricing, rho=rho
    ).allocate(scenario.network, scenario.radio_map)
    assert sorted(direct.association_pairs()) == sorted(
        agents.association_pairs()
    )
    assert direct.cloud_ue_ids == agents.cloud_ue_ids
    assert direct.rounds == agents.rounds
