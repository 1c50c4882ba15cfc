"""Property-based parity: the vectorized radio-map builder must agree
with the scalar reference loop link-for-link on random scenarios —
exact candidate sets and integer RRB demands, floats to <=1e-9
relative."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.radio_map import build_radio_map_reference

from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

REL_TOL = 1e-9

scenario_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "ue_count": st.integers(min_value=1, max_value=60),
        "placement": st.sampled_from(["regular", "random"]),
        "rate_model": st.sampled_from(["shannon", "mcs"]),
        "interference_floor_dbm": st.sampled_from([None, -110.0, -95.0]),
        "coverage": st.sampled_from([300.0, 500.0, 800.0]),
    }
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-30)


@RELAXED
@given(params=scenario_params)
def test_vectorized_map_matches_scalar_reference(params):
    # Scale m_k with the worst-case BS price so Eq. 16 stays satisfiable
    # at every generated coverage radius.
    worst_price = 1.0 * (2.0 + 0.01 * params["coverage"])
    config = ScenarioConfig.paper(
        placement=params["placement"],
        rate_model=params["rate_model"],
        interference_floor_dbm=params["interference_floor_dbm"],
        coverage_radius_m=params["coverage"],
        sp_cru_price=worst_price + 0.5 + 1.0,
    )
    scenario = build_scenario(config, params["ue_count"], params["seed"])
    budget = config.link_budget()
    rate_model = config.rate_model_fn()
    vectorized = build_radio_map(
        scenario.network, budget, rate_model=rate_model
    )
    reference = build_radio_map_reference(
        scenario.network, budget, rate_model=rate_model
    )

    assert len(vectorized) == len(reference)
    ref_links = {(m.ue_id, m.bs_id): m for m in reference}
    vec_links = {(m.ue_id, m.bs_id): m for m in vectorized}
    assert vec_links.keys() == ref_links.keys()
    for key, ref in ref_links.items():
        vec = vec_links[key]
        assert vec.rrbs_required == ref.rrbs_required
        assert _close(vec.distance_m, ref.distance_m)
        assert _close(vec.sinr_linear, ref.sinr_linear)
        assert _close(vec.per_rrb_rate_bps, ref.per_rrb_rate_bps)
        assert vec.feasible == ref.feasible
