"""SoA kernel parity: bit-identical to the object engine, by property.

The SoA kernel (:class:`repro.core.soa.SoAMatchingEngine`) promises a
**bit-identical** assignment to the object engine for any scenario the
object engine accepts under a plain DMRA policy — same grants tuple
(order included), same cloud set, same round count — and the same
telemetry: per-round ``match.round`` attributes, ``match.*`` counters,
the ``match.rounds`` gauge and the observer's :class:`RoundStats`
(phase times aside).  An unrecorded SoA run, which skips the
``fu_retired`` bookkeeping, must return the same assignment.
Hypothesis draws random small scenarios across placements, ``rho``
regimes, and the ``same_sp_priority`` ablation; two deterministic edge
cases ride along:
an exhaustion scenario where every candidate pair is *born retired*
(infeasible before round 1), and a NaN-returning pricing policy that
must raise the same :class:`~repro.errors.AllocationError` from both
kernels.
"""

from dataclasses import replace

import pytest
from conftest import make_tiny_network
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine
from repro.core.soa import SoAMatchingEngine
from repro.errors import AllocationError
from repro.obs.telemetry import telemetry_session
from repro.radio.channel import build_radio_map
from repro.radio.sinr import LinkBudget
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _recorded_run(engine_cls, network, radio_map, policy_kwargs):
    """One run under a fresh recorder: the assignment plus every
    telemetry signal the kernels promise to share."""
    stats = []
    with telemetry_session() as recorder:
        assignment = engine_cls(DMRAPolicy(**policy_kwargs)).run(
            network, radio_map, observer=stats.append
        )
    signals = dict(
        rounds=[
            span.attrs for span in recorder.all_spans()
            if span.name == "match.round"
        ],
        match=[
            span.attrs for span in recorder.all_spans()
            if span.name == "match"
        ],
        counters={
            name: value for name, value in recorder.counters.items()
            if name.startswith("match.")
        },
        gauge=recorder.gauges["match.rounds"],
        # Everything but the two phase wall times.
        stats=[
            replace(s, propose_time_s=0.0, accept_time_s=0.0) for s in stats
        ],
    )
    return assignment, signals


def _assert_bit_parity(network, radio_map, policy_kwargs):
    """Same assignment and same telemetry from both kernels, and the
    same assignment from an unrecorded SoA run."""
    obj, obj_signals = _recorded_run(
        IterativeMatchingEngine, network, radio_map, policy_kwargs
    )
    soa, soa_signals = _recorded_run(
        SoAMatchingEngine, network, radio_map, policy_kwargs
    )
    assert soa.grants == obj.grants  # includes order
    assert soa.cloud_ue_ids == obj.cloud_ue_ids
    assert soa.rounds == obj.rounds
    assert soa_signals == obj_signals
    untraced = SoAMatchingEngine(DMRAPolicy(**policy_kwargs)).run(
        network, radio_map
    )
    assert untraced == soa
    return obj


@RELAXED
@given(
    ue_count=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=1000),
    placement=st.sampled_from(["regular", "random", "clustered"]),
    rho=st.sampled_from([0.0, 10.0, 1e6]),
    same_sp_priority=st.booleans(),
)
def test_soa_matches_object_engine(
    ue_count, seed, placement, rho, same_sp_priority
):
    scenario = build_scenario(
        ScenarioConfig.paper(placement=placement), ue_count, seed
    )
    _assert_bit_parity(
        scenario.network,
        scenario.radio_map,
        dict(
            pricing=scenario.pricing,
            rho=rho,
            same_sp_priority=same_sp_priority,
        ),
    )


@RELAXED
@given(
    ue_count=st.integers(min_value=50, max_value=400),
    seed=st.integers(min_value=0, max_value=100),
)
def test_soa_matches_object_engine_under_contention(ue_count, seed):
    """A small dense region forces evictions and cloud fallbacks."""
    config = ScenarioConfig.paper(region_side_m=900.0, bs_per_sp=2)
    scenario = build_scenario(config, ue_count, seed)
    outcome = _assert_bit_parity(
        scenario.network,
        scenario.radio_map,
        dict(pricing=scenario.pricing, rho=config.rho),
    )
    # The draw range is chosen so contention is usually real; when it
    # is, parity above covered the eviction and exhaustion branches.
    assert len(outcome.grants) + len(outcome.cloud_ue_ids) == ue_count


def test_soa_matches_object_engine_at_12k_ues():
    """The mid-size duel: 12,000 UEs on 200 BSs, where the round loop
    dominates and evictions and cloud fallbacks are plentiful."""
    config = ScenarioConfig.paper(region_side_m=5000.0, bs_per_sp=40)
    scenario = build_scenario(config, 12_000, 2)
    outcome = _assert_bit_parity(
        scenario.network,
        scenario.radio_map,
        dict(pricing=scenario.pricing, rho=config.rho),
    )
    assert len(outcome.grants) + len(outcome.cloud_ue_ids) == 12_000
    assert outcome.cloud_ue_ids and outcome.rounds > 1


def test_every_candidate_born_retired_exhausts_identically():
    """UEs whose demand exceeds every BS's capacity from the start:
    all pairs are infeasible before round 1, so both kernels must
    cloud-forward everyone in the probe round (zero productive
    rounds, zero grants)."""
    network = make_tiny_network(
        ue_specs=[
            dict(ue_id=0, cru_demand=50),
            dict(ue_id=1, cru_demand=50),
        ],
        bs_specs=None,  # default BSs hold 20 CRUs per service
    )
    radio_map = build_radio_map(network, LinkBudget())
    from repro.econ.pricing import PaperPricing

    for engine_cls in (IterativeMatchingEngine, SoAMatchingEngine):
        assignment = engine_cls(DMRAPolicy(pricing=PaperPricing())).run(
            network, radio_map
        )
        assert assignment.grants == ()
        assert assignment.cloud_ue_ids == {0, 1}
        assert assignment.rounds == 0


class _NaNPricing:
    """Pricing stub whose Eq. 9--10 price is NaN for every pair."""

    def price_per_cru(self, distance_m: float, same_sp: bool) -> float:
        return float("nan")


def test_nan_policy_raises_identically_in_both_kernels():
    network = make_tiny_network(ue_specs=[dict(ue_id=0)])
    radio_map = build_radio_map(network, LinkBudget())
    for engine_cls in (IterativeMatchingEngine, SoAMatchingEngine):
        engine = engine_cls(DMRAPolicy(pricing=_NaNPricing()))
        with pytest.raises(AllocationError, match="NaN.*UE 0"):
            engine.run(network, radio_map)
