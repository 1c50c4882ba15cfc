"""Property tests: the bulk UE draws equal the UE-by-UE draws.

``generate_user_equipments`` decodes a whole population from one block
of raw PCG64 outputs.  Its contract is the per-UE loop below: the same
UEs, and the generator left exactly where the loop leaves it -- which
the next draw from it shows, including the buffered 32-bit half.  A
BS's hosting map draws its CRU capacities in one call under the same
contract: the per-service draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.catalog import ServiceCatalog
from repro.model.geometry import Point
from repro.model.workload import WorkloadModel, generate_user_equipments
from repro.sim.config import ScenarioConfig
from repro.sim.frame import build_scenario_frame

DRAWS = settings(max_examples=40, deadline=None)


def per_ue(positions, sp_count, service_count, workload, rng, start=0):
    """The definition: four per-call draws per UE, in field order."""
    from repro.model.entities import UserEquipment

    return [
        UserEquipment(
            ue_id=start + offset,
            sp_id=int(rng.integers(sp_count)),
            position=position,
            service_id=workload.draw_service(service_count, rng),
            cru_demand=workload.draw_cru_demand(rng),
            rate_demand_bps=workload.draw_rate_demand_bps(rng),
            tx_power_dbm=workload.tx_power_dbm,
        )
        for offset, position in enumerate(positions)
    ]


def positions(count):
    return [Point(float(i), float(-i)) for i in range(count)]


def twin_generators(seed, prefill, bit_generator=np.random.PCG64):
    """Two generators in the same state; ``prefill`` 32-bit draws leave
    the buffered half set (odd) or empty (even)."""
    twins = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(5, size=prefill)
        twins.append(rng)
    return twins


def same_state(a, b):
    """Bit generator states are nested dicts, some holding arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_draws(workload, count, sp_count, service_count, bulk, loop):
    got = generate_user_equipments(
        positions(count), sp_count, service_count, workload, bulk,
        start_ue_id=3,
    )
    expected = per_ue(
        positions(count), sp_count, service_count, workload, loop, start=3
    )
    assert got == expected
    assert same_state(bulk.bit_generator.state, loop.bit_generator.state)
    # The next draws see the same buffered half and the same stream.
    assert bulk.integers(1 << 20) == loop.integers(1 << 20)
    assert bulk.random() == loop.random()


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 400)),
    prefill=st.integers(min_value=0, max_value=3),
    sp_count=st.integers(min_value=2, max_value=9),
    service_count=st.integers(min_value=2, max_value=9),
    cru=st.tuples(st.integers(1, 6), st.integers(1, 4)),
    rate=st.tuples(
        st.floats(min_value=1.0, max_value=1e7), st.floats(0.0, 1e7)
    ),
)
def test_bulk_draws_equal_per_ue_draws(
    seed, count, prefill, sp_count, service_count, cru, rate
):
    workload = WorkloadModel(
        cru_demand_min=cru[0],
        cru_demand_max=cru[0] + cru[1],
        rate_demand_min_bps=rate[0],
        rate_demand_max_bps=rate[0] + rate[1],
    )
    bulk, loop = twin_generators(seed, prefill)
    assert_same_draws(workload, count, sp_count, service_count, bulk, loop)


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=60),
    prefill=st.integers(min_value=0, max_value=1),
    single=st.sampled_from(["sp", "service", "cru"]),
)
def test_one_value_ranges_draw_no_bits(seed, count, prefill, single):
    """A one-value integer range draws nothing from the generator."""
    sp_count = 1 if single == "sp" else 5
    service_count = 1 if single == "service" else 3
    workload = (
        WorkloadModel(cru_demand_min=4, cru_demand_max=4)
        if single == "cru"
        else WorkloadModel()
    )
    bulk, loop = twin_generators(seed, prefill)
    assert_same_draws(workload, count, sp_count, service_count, bulk, loop)


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=60),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=3
    ).filter(lambda w: sum(w) > 0),
)
def test_popularity_weights(seed, count, weights):
    workload = WorkloadModel(service_popularity=tuple(weights))
    bulk, loop = twin_generators(seed, 1)
    assert_same_draws(workload, count, 5, 3, bulk, loop)


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=0, max_value=60),
    prefill=st.integers(min_value=0, max_value=1),
)
def test_other_bit_generators(seed, count, prefill):
    bulk, loop = twin_generators(seed, prefill, np.random.Philox)
    assert_same_draws(WorkloadModel(), count, 5, 3, bulk, loop)


@pytest.mark.parametrize("count", [1, 2, 7])
def test_lemire_rejection_replays_per_ue(count):
    """A buffered zero half makes the first bounded draw take Lemire's
    rejection branch; the decode must give way to the per-UE draws."""
    bulk, loop = twin_generators(11, 0)
    for rng in (bulk, loop):
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    assert_same_draws(WorkloadModel(), count, 5, 3, bulk, loop)


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ue_count=st.integers(min_value=0, max_value=90),
    chunk_size=st.integers(min_value=1, max_value=40),
)
def test_odd_chunks_equal_one_per_ue_pass(seed, ue_count, chunk_size):
    """Streaming a frame in chunks of any size draws the population the
    per-UE loop draws in one pass from the same frame."""
    config = ScenarioConfig.paper()
    streamed = build_scenario_frame(config, ue_count, seed)
    reference = build_scenario_frame(config, ue_count, seed)
    got = [
        ue
        for chunk in streamed.iter_ue_chunks(chunk_size=chunk_size)
        for ue in chunk
    ]
    expected = per_ue(
        reference.ue_positions,
        config.sp_count,
        config.service_count,
        config.workload_model(),
        reference._rng,
    )
    assert got == expected
    assert streamed._rng.random() == reference._rng.random()


@pytest.mark.parametrize("prefill", [0, 1])
def test_common_path_makes_no_per_ue_calls(monkeypatch, prefill):
    """The paper's workload is decoded in bulk: no per-UE draw runs."""
    bulk, loop = twin_generators(5, prefill)
    expected = per_ue(positions(101), 5, 3, WorkloadModel(), loop)

    def per_ue_draw(*args, **kwargs):
        raise AssertionError("per-UE draw on the bulk path")

    for name in ("draw_service", "draw_cru_demand", "draw_rate_demand_bps"):
        monkeypatch.setattr(WorkloadModel, name, per_ue_draw)
    got = generate_user_equipments(positions(101), 5, 3, WorkloadModel(), bulk)
    assert got == expected
    assert same_state(bulk.bit_generator.state, loop.bit_generator.state)


def test_decoder_disagreement_falls_back(monkeypatch):
    """When the one-time probe finds a difference, every population is
    drawn UE by UE."""
    import repro.model.workload as workload_module

    assert workload_module._decoder_agrees()
    monkeypatch.setattr(workload_module, "_decoder_agrees", lambda: False)
    calls = []
    original = WorkloadModel.draw_cru_demand

    def counted(self, rng):
        calls.append(1)
        return original(self, rng)

    monkeypatch.setattr(WorkloadModel, "draw_cru_demand", counted)
    bulk, loop = twin_generators(9, 1)
    expected = per_ue(positions(13), 5, 3, WorkloadModel(), loop)
    calls.clear()
    assert generate_user_equipments(
        positions(13), 5, 3, WorkloadModel(), bulk
    ) == expected
    assert len(calls) == 13


def per_service_hosting(catalog, rng):
    """The definition: one capacity draw per hosted service, by id."""
    hosted_count = max(1, round(catalog.hosted_fraction * catalog.service_count))
    hosted = rng.choice(catalog.service_count, size=hosted_count, replace=False)
    return {
        int(service_id): int(
            rng.integers(catalog.cru_capacity_min, catalog.cru_capacity_max + 1)
        )
        for service_id in sorted(hosted)
    }


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    prefill=st.integers(min_value=0, max_value=3),
    service_count=st.integers(min_value=1, max_value=12),
    hosted_fraction=st.sampled_from([1.0, 0.5, 0.34, 0.01]),
    capacity=st.sampled_from([(10, 20), (1, 1), (1, 2**31), (5, 2**40)]),
    bs_count=st.integers(min_value=1, max_value=6),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.Philox]),
)
def test_bulk_hosting_draw_equals_per_service_draws(
    seed, prefill, service_count, hosted_fraction, capacity, bs_count,
    bit_generator,
):
    catalog = ServiceCatalog(
        service_count=service_count,
        cru_capacity_min=capacity[0],
        cru_capacity_max=capacity[1],
        hosted_fraction=hosted_fraction,
    )
    bulk, loop = twin_generators(seed, prefill, bit_generator)
    for _ in range(bs_count):
        got = catalog.sample_hosting(bulk)
        expected = per_service_hosting(catalog, loop)
        assert list(got.items()) == list(expected.items())
        assert all(type(k) is int and type(v) is int for k, v in got.items())
    assert same_state(bulk.bit_generator.state, loop.bit_generator.state)
    assert bulk.integers(1 << 20) == loop.integers(1 << 20)
