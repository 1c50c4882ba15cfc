"""Property tests: the columnar static instance equals the object one.

The static path draws UE demands as columns (``draw_ue_columns``) and
hands them to ``MECNetwork`` without building a ``UserEquipment``.  Its
contract is the object path: the same values and generator state as
the UE-by-UE draws, and a network that answers every query -- geometry,
columns, scalar lookups, validation errors -- exactly as one built from
the materialized objects.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.coverage import assert_pairs_are_dense_filter

import repro.model.workload as workload_module
from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.entities import UEColumns, UserEquipment
from repro.model.network import EntityColumns, MECNetwork
from repro.model.workload import WorkloadModel, draw_ue_columns
from repro.sim.config import ScenarioConfig
from repro.sim.frame import build_scenario_frame

DRAWS = settings(max_examples=40, deadline=None)
NETWORKS = settings(max_examples=25, deadline=None)


def per_ue_columns(xy, sp_count, service_count, workload, rng, start=0):
    """The definition: four per-call draws per UE, in field order."""
    rows = [
        (
            int(rng.integers(sp_count)),
            workload.draw_service(service_count, rng),
            workload.draw_cru_demand(rng),
            workload.draw_rate_demand_bps(rng),
        )
        for _ in range(len(xy))
    ]
    sps, services, crus, rates = zip(*rows) if rows else ((),) * 4
    return UEColumns(
        ue_ids=np.arange(start, start + len(xy)),
        sp_ids=sps,
        xy=xy,
        service_ids=services,
        cru_demand=crus,
        rate_demand_bps=rates,
        tx_power_dbm=np.full(len(xy), workload.tx_power_dbm),
    )


def twin_generators(seed, prefill, bit_generator=np.random.PCG64):
    twins = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(5, size=prefill)
        twins.append(rng)
    return twins


def same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_columns(got: UEColumns, expected: UEColumns):
    for field in dataclasses.fields(UEColumns):
        mine = getattr(got, field.name)
        theirs = getattr(expected, field.name)
        assert mine.dtype == theirs.dtype, field.name
        assert mine.shape == theirs.shape, field.name
        assert np.array_equal(mine, theirs), field.name


def assert_same_draws(workload, count, bulk, loop, sp_count=5, service_count=3):
    xy = np.column_stack((np.arange(count) * 1.5, -np.arange(count) / 3))
    got = draw_ue_columns(xy, sp_count, service_count, workload, bulk, 7)
    expected = per_ue_columns(xy, sp_count, service_count, workload, loop, 7)
    assert_same_columns(got, expected)
    assert same_state(bulk.bit_generator.state, loop.bit_generator.state)
    assert bulk.integers(1 << 20) == loop.integers(1 << 20)
    assert bulk.random() == loop.random()


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=90),
    prefill=st.integers(min_value=0, max_value=1),
)
def test_columnar_draw_equals_per_ue_loop(seed, count, prefill):
    bulk, loop = twin_generators(seed, prefill)
    assert_same_draws(WorkloadModel(), count, bulk, loop)


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=0, max_value=90),
    prefill=st.integers(min_value=0, max_value=1),
    fallback=st.sampled_from(["popularity", "philox", "disagree"]),
)
def test_columnar_draw_fallbacks_equal_per_ue_loop(
    seed, count, prefill, fallback
):
    workload = WorkloadModel()
    bit_generator = np.random.PCG64
    if fallback == "popularity":
        workload = WorkloadModel(service_popularity=(1.0, 0.0, 2.5))
    elif fallback == "philox":
        bit_generator = np.random.Philox
    bulk, loop = twin_generators(seed, prefill, bit_generator)
    if fallback == "disagree":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workload_module, "_decoder_agrees", lambda: False)
            assert_same_draws(workload, count, bulk, loop)
    else:
        assert_same_draws(workload, count, bulk, loop)


@pytest.mark.parametrize("count", [1, 2, 7, 90])
def test_columnar_draw_lemire_rejection_equals_per_ue_loop(count):
    """A buffered zero half forces Lemire's rejection branch."""
    bulk, loop = twin_generators(11, 0)
    for rng in (bulk, loop):
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    assert_same_draws(WorkloadModel(), count, bulk, loop)


@DRAWS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ue_count=st.integers(min_value=0, max_value=90),
    chunk_size=st.integers(min_value=1, max_value=40),
)
def test_frame_columns_equal_its_chunks(seed, ue_count, chunk_size):
    config = ScenarioConfig.paper()
    columnar = build_scenario_frame(config, ue_count, seed)
    chunked = build_scenario_frame(config, ue_count, seed)
    columns = columnar.ue_columns()
    ues = [
        ue
        for chunk in chunked.iter_ue_chunks(chunk_size=chunk_size)
        for ue in chunk
    ]
    assert columns.materialize() == ues
    assert_same_columns(columns, UEColumns.of(ues))
    assert columnar._rng.random() == chunked._rng.random()
    with pytest.raises(ConfigurationError):
        columnar.ue_columns()


# ----------------------------------------------------------------------
# Networks: built from columns vs from the materialized objects
# ----------------------------------------------------------------------


def _frame_columns(seed, ue_count, side_m, relabel):
    config = ScenarioConfig.paper(
        region_side_m=side_m, bs_per_sp=2, placement="random"
    )
    frame = build_scenario_frame(config, ue_count, seed)
    columns = frame.ue_columns()
    if relabel:
        # Sparse ids whose order differs from the row order.
        order = np.random.default_rng(seed).permutation(ue_count)
        columns = dataclasses.replace(columns, ue_ids=3 * order + 5)
    return frame, columns


def _network(frame, ues):
    return MECNetwork(
        providers=frame.providers,
        base_stations=frame.base_stations,
        user_equipments=ues,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=frame.config.coverage_radius_m,
    )


def assert_same_network(mine: MECNetwork, theirs: MECNetwork):
    for got, expected in zip(mine.candidate_pairs(), theirs.candidate_pairs()):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    for kind in ("cov", "cand"):
        for part in ("indptr", "cols", "dists"):
            name = f"_{kind}_{part}"
            got, expected = getattr(mine, name), getattr(theirs, name)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name
    for field in dataclasses.fields(EntityColumns):
        if not field.name.startswith("_"):
            got = getattr(mine.columns(), field.name)
            expected = getattr(theirs.columns(), field.name)
            assert got.dtype == expected.dtype, field.name
            assert np.array_equal(got, expected), field.name
    n_ue, n_bs = theirs.ue_count, theirs.bs_count
    assert mine.ue_count == n_ue
    rows = np.repeat(np.arange(n_ue), n_bs)
    cols = np.tile(np.arange(n_bs), n_ue)
    # Every pair, in and out of coverage, bit for bit.
    assert np.array_equal(
        mine.pair_distances_m(rows, cols), theirs.pair_distances_m(rows, cols)
    )
    ue_ids = mine.columns().ue_ids.tolist()
    bs_ids = [bs.bs_id for bs in theirs.base_stations]
    for ue_id in ue_ids[:5]:
        for bs_id in bs_ids:
            assert mine.distance_m(ue_id, bs_id) == theirs.distance_m(
                ue_id, bs_id
            )
            assert mine.same_sp(ue_id, bs_id) == theirs.same_sp(ue_id, bs_id)
        assert mine.candidate_base_stations(
            ue_id
        ) == theirs.candidate_base_stations(ue_id)
        assert mine.covering_base_stations(
            ue_id
        ) == theirs.covering_base_stations(ue_id)
        assert mine.user_equipment(ue_id) == theirs.user_equipment(ue_id)
        assert mine.provider_of_ue(ue_id) == theirs.provider_of_ue(ue_id)
    assert mine.mean_coverage_degree() == theirs.mean_coverage_degree()
    for sp in theirs.providers:
        assert mine.user_equipments_of_sp(
            sp.sp_id
        ) == theirs.user_equipments_of_sp(sp.sp_id)
    # A scalar lookup's object is the one the full tuple then holds.
    if ue_ids:
        first = mine.user_equipment(ue_ids[0])
        assert mine.user_equipments[0] is first
    assert mine.user_equipments == theirs.user_equipments


@NETWORKS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ue_count=st.integers(min_value=0, max_value=60),
    side_m=st.sampled_from([800.0, 1200.0, 2400.0]),
    relabel=st.booleans(),
)
def test_column_network_equals_object_network(seed, ue_count, side_m, relabel):
    frame, columns = _frame_columns(seed, ue_count, side_m, relabel)
    from_columns = _network(frame, columns)
    from_objects = _network(frame, columns.materialize())
    assert_same_network(from_columns, from_objects)
    assert_pairs_are_dense_filter(from_objects)


@NETWORKS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ue_count=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_moved_column_network_equals_object_network(seed, ue_count, data):
    """A moved column network equals a fresh build from the moved
    objects."""
    frame, columns = _frame_columns(seed, ue_count, 1200.0, False)
    ues = columns.materialize()
    movers = data.draw(
        st.lists(st.integers(0, ue_count - 1), min_size=1, unique=True)
    )
    targets = {
        ue_id: ues[ue_id].position.translated(
            data.draw(st.floats(-300, 300)), data.draw(st.floats(-300, 300))
        )
        for ue_id in movers
    }
    moved = _network(frame, columns).with_moved_ues(targets)
    fresh = _network(
        frame,
        [
            dataclasses.replace(ue, position=targets[ue.ue_id])
            if ue.ue_id in targets else ue
            for ue in ues
        ],
    )
    assert_same_network(moved, fresh)


#: One corruption per kind, applied to one row of valid columns.
CORRUPTIONS = {
    "negative_id": ("ue_ids", -4),
    "duplicate_id": ("ue_ids", None),
    "unknown_sp": ("sp_ids", 99),
    "unknown_service": ("service_ids", 77),
    "zero_crus": ("cru_demand", 0),
    "negative_crus": ("cru_demand", -2),
    "zero_rate": ("rate_demand_bps", 0.0),
    "negative_rate": ("rate_demand_bps", -1.5e6),
    "nan_rate": ("rate_demand_bps", float("nan")),
}


def _outcome(call):
    try:
        call()
    except Exception as exc:  # whatever it is, both sides must match it
        return exc
    return None


@NETWORKS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ue_count=st.integers(min_value=2, max_value=30),
    data=st.data(),
)
def test_invalid_columns_raise_what_objects_raise(seed, ue_count, data):
    """Each corruption, alone or with others, raises the same error
    (type and message) for the same first offender from both builds."""
    frame, columns = _frame_columns(seed, ue_count, 1200.0, False)
    arrays = {
        field.name: getattr(columns, field.name).copy()
        for field in dataclasses.fields(UEColumns)
    }
    kinds = data.draw(
        st.lists(st.sampled_from(sorted(CORRUPTIONS)), min_size=1, max_size=3)
    )
    for kind in kinds:
        name, value = CORRUPTIONS[kind]
        row = data.draw(st.integers(0, ue_count - 1))
        if value is None:
            other = data.draw(
                st.integers(0, ue_count - 1).filter(lambda r: r != row)
            )
            value = arrays["ue_ids"][other]
        arrays[name][row] = value
    corrupted = UEColumns(**arrays)

    def from_objects():
        ues = [
            UserEquipment(*fields)
            for fields in zip(
                corrupted.ue_ids.tolist(),
                corrupted.sp_ids.tolist(),
                (ue.position for ue in columns.materialize()),
                corrupted.service_ids.tolist(),
                corrupted.cru_demand.tolist(),
                corrupted.rate_demand_bps.tolist(),
                corrupted.tx_power_dbm.tolist(),
            )
        ]
        _network(frame, ues)

    expected = _outcome(from_objects)
    error = _outcome(lambda: _network(frame, corrupted))
    assert isinstance(expected, ConfigurationError)
    assert type(error) is type(expected)
    assert str(error) == str(expected)


def test_sp_is_checked_before_service():
    frame, columns = _frame_columns(3, 5, 1200.0, False)
    sp_ids = columns.sp_ids.copy()
    service_ids = columns.service_ids.copy()
    service_ids[1] = 50  # an earlier row's bad service comes first
    sp_ids[2], service_ids[2] = 60, 70
    with pytest.raises(ConfigurationError, match="UE 1 requests unknown"):
        _network(
            frame,
            dataclasses.replace(columns, sp_ids=sp_ids, service_ids=service_ids),
        )
    service_ids[1] = columns.service_ids[1]
    with pytest.raises(ConfigurationError, match="UE 2 references unknown SP 60"):
        _network(
            frame,
            dataclasses.replace(columns, sp_ids=sp_ids, service_ids=service_ids),
        )


@pytest.mark.parametrize(
    "side_m",
    [
        # Every UE lies inside every BS's coverage disc.
        pytest.param(300.0, id="dense"),
        # The spatial grid prunes pairs; some distances are out of coverage.
        pytest.param(1200.0, id="grid"),
    ],
)
def test_caller_arrays_cannot_change_a_built_network(side_m):
    """Columns copy the writable arrays they are given and are
    read-only, so editing the caller's arrays after the build leaves
    the network's columns, objects and out-of-coverage distances as
    the build validated them."""
    frame, columns = _frame_columns(5, 30, side_m, False)
    arrays = {
        field.name: getattr(columns, field.name).copy()
        for field in dataclasses.fields(UEColumns)
    }
    network = _network(frame, UEColumns(**arrays))
    twin = _network(frame, columns.materialize())
    all_pairs = network.ue_count * network.bs_count
    assert (len(network._cov_cols) == all_pairs) == (side_m == 300.0)
    for array in arrays.values():
        array[...] = -1
    for field in dataclasses.fields(UEColumns):
        column = getattr(network.ue_columns(), field.name)
        assert not column.flags.writeable, field.name
        with pytest.raises(ValueError):
            column[...] = 0
    assert_same_network(network, twin)


def test_scalar_lookups_build_only_what_they_return(monkeypatch):
    """On a 10k-UE column network one ``user_equipment`` call makes one
    object, and the other scalar lookups make none."""
    config = ScenarioConfig.paper(region_side_m=6000.0, bs_per_sp=20)
    frame = build_scenario_frame(config, 10_000, 4)
    network = _network(frame, frame.ue_columns())
    built = []
    original = UserEquipment.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["ue_id"])
        original(self, *args, **kwargs)

    monkeypatch.setattr(UserEquipment, "__init__", counted)
    ue = network.user_equipment(4321)
    assert built == [4321]
    assert network.user_equipment(4321) is ue
    far = max(
        frame.base_stations,
        key=lambda bs: bs.position.distance_to(ue.position),
    )
    assert not network.covers(far.bs_id, 4321)  # out of coverage: recomputed
    assert network.distance_m(4321, far.bs_id) == pytest.approx(
        ue.position.distance_to(far.position)
    )
    network.same_sp(17, far.bs_id)
    network.provider_of_ue(17)
    network.pair_distances_m(np.arange(0, 10_000, 7), np.zeros(1429, int))
    with pytest.raises(UnknownEntityError):
        network.user_equipment(10_000)
    assert built == [4321]
    assert "user_equipments" not in network.__dict__
