"""What an incremental flush may touch: its batch, not the whole pool.

An incremental run (``ledgers=pool, ue_ids=batch``) reads only the
ledgers of the batch's candidate BSs and never lists the pool's grants,
a batch network builds only its own UE columns, and moving a UE builds
nothing the size of UE x BS.  Like the static path's no-per-entity-object
guard, these tests break the expensive calls and count the rest.
"""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from repro.baselines.dcsp import DCSPPolicy
from repro.compute.cru import BSLedger, LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.soa import make_matching_engine
from repro.model.batchnet import BatchNetworkBuilder
from repro.model.geometry import Point
from repro.model.network import BSColumns, EntityColumns, MECNetwork
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario


@pytest.fixture(scope="module")
def wide_scenario():
    """Ten BSs over a 2.4 km square: most are far from any one corner."""
    config = ScenarioConfig.paper(
        region_side_m=2400.0, bs_per_sp=2, placement="random"
    )
    return build_scenario(config, 400, 5)


def _count_ledger_reads(monkeypatch) -> list[int]:
    """Record the BS id of every remaining-capacity or utilization read."""
    reads: list[int] = []
    remaining_rrbs = BSLedger.remaining_rrbs.fget

    def counted_rrbs(self):
        reads.append(self.bs_id)
        return remaining_rrbs(self)

    monkeypatch.setattr(BSLedger, "remaining_rrbs", property(counted_rrbs))
    for name in ("remaining_crus", "remaining_crus_by_service", "utilization"):
        def counted(self, *args, _original=getattr(BSLedger, name)):
            reads.append(self.bs_id)
            return _original(self, *args)

        monkeypatch.setattr(BSLedger, name, counted)
    return reads


@pytest.mark.parametrize(
    "kernel,policy",
    [
        ("object", lambda pricing: DMRAPolicy(pricing=pricing)),
        ("object", lambda pricing: DCSPPolicy()),
        ("soa", lambda pricing: DMRAPolicy(pricing=pricing)),
    ],
    ids=["dmra-object", "dcsp-object", "dmra-soa"],
)
def test_incremental_run_reads_only_candidate_ledgers(
    wide_scenario, monkeypatch, kernel, policy
):
    network, radio_map = wide_scenario.network, wide_scenario.radio_map
    corner = min(
        network.user_equipments, key=lambda ue: (ue.position.x, ue.ue_id)
    )
    batch = [corner.ue_id]
    candidates = set(network.candidate_base_stations(corner.ue_id))
    pool = LedgerPool(network.base_stations)
    engine = make_matching_engine(policy(wide_scenario.pricing), kernel=kernel)
    engine.run(
        network, radio_map, ledgers=pool,
        ue_ids=[ue.ue_id for ue in network.user_equipments
                if ue.ue_id != corner.ue_id],
    )
    distant = {g.bs_id for g in pool.all_grants()} - candidates
    assert candidates and distant

    def pool_scan(self):
        raise AssertionError("an incremental run listed the pool's grants")

    monkeypatch.setattr(LedgerPool, "all_grants", pool_scan)
    reads = _count_ledger_reads(monkeypatch)
    outcome = engine.run(network, radio_map, ledgers=pool, ue_ids=batch)
    assert [bs_id for bs_id in reads if bs_id not in candidates] == []
    assert reads
    assert len(outcome.grants) + len(outcome.cloud_ue_ids) == 1


@pytest.mark.parametrize(
    "policy",
    [
        lambda pricing: DMRAPolicy(pricing=pricing),
        lambda pricing: DCSPPolicy(),
    ],
    ids=["dmra", "dcsp"],
)
def test_one_ue_flush_materializes_no_link(wide_scenario, policy):
    """The object engine reads a batch's links as columns: one-UE runs
    on ``network_for`` batches against a loaded pool leave each batch
    radio map's lazy ``LinkMetrics`` cache empty."""
    network = wide_scenario.network
    config = wide_scenario.config
    builder = BatchNetworkBuilder(
        providers=network.providers,
        base_stations=network.base_stations,
        services=network.services,
        region=network.region,
        coverage_radius_m=network.coverage_radius_m,
    )
    engine = make_matching_engine(
        policy(wide_scenario.pricing), kernel="object"
    )
    covered = [
        ue for ue in network.user_equipments
        if network.candidate_base_stations(ue.ue_id)
    ][:20]
    pool = LedgerPool(network.base_stations)
    engine.run(
        network, wide_scenario.radio_map, ledgers=pool,
        ue_ids={ue.ue_id for ue in network.user_equipments}
        - {ue.ue_id for ue in covered},
    )
    granted = []
    for ue in covered:
        batch = builder.network_for([ue])
        radio_map = build_radio_map(
            batch, config.link_budget(), rate_model=config.rate_model_fn()
        )
        outcome = engine.run(batch, radio_map, ledgers=pool, ue_ids=[ue.ue_id])
        granted.append(bool(outcome.grants))
        assert len(radio_map)
        assert radio_map._metrics == [None] * len(radio_map)
    assert set(granted) == {True, False}  # some grants, some cloud


def test_batch_network_builds_only_its_ue_columns(small_scenario):
    network = small_scenario.network
    builder = BatchNetworkBuilder(
        providers=network.providers,
        base_stations=network.base_stations,
        services=network.services,
        region=network.region,
        coverage_radius_m=network.coverage_radius_m,
    )
    ues = network.user_equipments[10:40:3]
    columns = builder.network_for(ues).columns()
    expected = EntityColumns.of(MECNetwork(
        providers=network.providers,
        base_stations=network.base_stations,
        user_equipments=ues,
        services=network.services,
        region=network.region,
        coverage_radius_m=network.coverage_radius_m,
    ))
    for field in fields(EntityColumns):
        if not field.name.startswith("_"):
            mine, theirs = getattr(columns, field.name), getattr(
                expected, field.name
            )
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name
    ids = np.arange(-1, 2 * len(ues) + network.bs_count + 2)
    assert np.array_equal(columns.ue_rows(ids), expected.ue_rows(ids))
    assert np.array_equal(columns.bs_cols(ids), expected.bs_cols(ids))
    assert np.array_equal(
        columns.service_positions(ids), expected.service_positions(ids)
    )
    shared = builder.template.bs_columns()
    for field in fields(BSColumns):
        assert getattr(columns, field.name) is getattr(shared, field.name)


def test_radio_build_reads_bs_columns_only(paper_config):
    """The static path builds its UE columns at match time, not during
    the scenario's radio-map build."""
    network = build_scenario(paper_config, 300, 1).network
    assert network._bs_columns is not None
    assert network._columns is None


def test_one_move_builds_no_ue_by_bs_array():
    """Moving one UE of a 20k-UE / 400-BS network patches its rows: the
    traced peak of the network and radio-map update stays within six
    times the map's own column bytes (~8 MB), below what one float64
    UE x BS matrix (64 MB) would take on its own."""
    config = ScenarioConfig.paper(region_side_m=6000.0, bs_per_sp=80)
    scenario = build_scenario(config, 20_000, 3)
    network, radio_map = scenario.network, scenario.radio_map
    assert network.bs_count == 400
    ue = network.user_equipment(12_345)
    network.user_equipments  # the objects a move copies, built up front
    target = {ue.ue_id: Point(ue.position.x + 137.0, ue.position.y - 52.0)}
    budget, rate_model = config.link_budget(), config.rate_model_fn()

    tracemalloc.start()
    try:
        moved = network.with_moved_ues(target)
        updated = radio_map.with_updated_ues(
            moved, budget, target.keys(), rate_model=rate_model
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * radio_map.estimated_bytes()
    assert peak < network.ue_count * network.bs_count * 8
    assert moved.candidate_base_stations(ue.ue_id) == tuple(
        link.bs_id for link in updated.links_of_ue(ue.ue_id)
    )
