"""Integration tests for the sharded scale runner.

Acceptance criteria from the scale and kernel issues are pinned here:

* ``shards=1`` is **bit-identical** to the monolithic
  ``DMRAAllocator`` path — same grants tuple, same cloud set, same
  round count;
* with several shards on a scenario with real cross-tile contention,
  total SP profit stays within 1% of the monolithic run;
* ``kernel="soa"`` produces the same sharded outcome as the object
  kernel, shard for shard;
* the :class:`~repro.scale.reconcile.ReconcileOutcome` on the
  committed contention scenario matches a recorded digest — the
  cursor-based admission rewrite must be behaviour-preserving.
"""

import hashlib

import pytest

from repro.core.dmra import DMRAAllocator
from repro.errors import ConfigurationError
from repro.scale import run_sharded
from repro.scale.executor import ShardJob, run_shards
from repro.scale.partition import halo_bs_indices, plan_tiles
from repro.scale.reconcile import reconcile_claims
from repro.scale.runner import _bucket_ues
from repro.scale.streaming import DEFAULT_CHUNK_SIZE, build_scenario_frame
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

# The committed multi-shard contention scenario: a 2.7 km side with
# 50 BSs keeps shard halos overlapping at tile borders (coverage is
# 500 m) without degenerating into every-BS-in-every-halo, so the
# reconciliation path is genuinely exercised (dozens of evictions).
CONTENTION_CONFIG = ScenarioConfig.paper(region_side_m=2700.0, bs_per_sp=10)
CONTENTION_UES = 2000
CONTENTION_SEED = 1


def _monolithic(config, ue_count, seed):
    scenario = build_scenario(config, ue_count=ue_count, seed=seed)
    allocator = DMRAAllocator(pricing=scenario.pricing, rho=config.rho)
    return run_allocation(scenario, allocator)


class TestSingleShardParity:
    def test_bit_identical_to_monolithic(self):
        config = ScenarioConfig.paper()
        mono = _monolithic(config, ue_count=400, seed=7)
        sharded = run_sharded(
            config, ue_count=400, seed=7, shards=1, workers=1
        )
        assert sharded.assignment.grants == mono.assignment.grants
        assert (
            sharded.assignment.cloud_ue_ids == mono.assignment.cloud_ue_ids
        )
        assert sharded.assignment.rounds == mono.assignment.rounds
        assert sharded.metrics.total_profit == mono.metrics.total_profit
        assert sharded.total_evictions == 0
        assert sharded.reproposal_grants == 0

    def test_single_shard_parity_on_contention_config(self):
        mono = _monolithic(CONTENTION_CONFIG, ue_count=600, seed=3)
        sharded = run_sharded(
            CONTENTION_CONFIG, ue_count=600, seed=3, shards=1, workers=1
        )
        assert sharded.assignment.grants == mono.assignment.grants
        assert (
            sharded.assignment.cloud_ue_ids == mono.assignment.cloud_ue_ids
        )


class TestMultiShardDeviation:
    @pytest.fixture(scope="class")
    def monolithic(self):
        return _monolithic(
            CONTENTION_CONFIG,
            ue_count=CONTENTION_UES,
            seed=CONTENTION_SEED,
        )

    @pytest.mark.parametrize("shards", [4, 9])
    def test_total_profit_within_one_percent(self, monolithic, shards):
        sharded = run_sharded(
            CONTENTION_CONFIG,
            ue_count=CONTENTION_UES,
            seed=CONTENTION_SEED,
            shards=shards,
            workers=1,
        )
        mono_profit = monolithic.metrics.total_profit
        deviation = abs(sharded.metrics.total_profit - mono_profit)
        assert deviation / mono_profit < 0.01
        # Contention is real on this scenario: tiles overlap and the
        # reconciliation pass has actual work to do.
        assert sharded.total_evictions > 0
        assert len(sharded.shard_ue_counts) == shards
        assert sum(sharded.shard_ue_counts) == CONTENTION_UES
        # Every UE is accounted for in the assembled assignment.
        assignment = sharded.assignment
        assert (
            len(assignment.grants) + len(assignment.cloud_ue_ids)
            == CONTENTION_UES
        )

    def test_worker_count_does_not_change_the_result(self):
        serial = run_sharded(
            CONTENTION_CONFIG,
            ue_count=CONTENTION_UES,
            seed=CONTENTION_SEED,
            shards=4,
            workers=1,
        )
        forked = run_sharded(
            CONTENTION_CONFIG,
            ue_count=CONTENTION_UES,
            seed=CONTENTION_SEED,
            shards=4,
            workers=4,
        )
        assert forked.assignment.grants == serial.assignment.grants
        assert (
            forked.assignment.cloud_ue_ids
            == serial.assignment.cloud_ue_ids
        )
        assert forked.shard_rounds == serial.shard_rounds
        assert forked.evictions_by_shard == serial.evictions_by_shard


class TestKernelParity:
    """The per-shard SoA kernel must not change the sharded outcome."""

    @pytest.mark.parametrize(
        "shards,ue_count,seed", [(1, 400, 7), (4, 600, 3)]
    )
    def test_soa_kernel_matches_object_kernel(self, shards, ue_count, seed):
        config = (
            ScenarioConfig.paper() if shards == 1 else CONTENTION_CONFIG
        )
        obj = run_sharded(
            config, ue_count=ue_count, seed=seed, shards=shards,
            workers=1, kernel="object",
        )
        soa = run_sharded(
            config, ue_count=ue_count, seed=seed, shards=shards,
            workers=1, kernel="soa",
        )
        assert soa.assignment.grants == obj.assignment.grants
        assert soa.assignment.cloud_ue_ids == obj.assignment.cloud_ue_ids
        assert soa.assignment.rounds == obj.assignment.rounds
        assert soa.shard_rounds == obj.shard_rounds
        assert soa.evictions_by_shard == obj.evictions_by_shard
        assert soa.metrics.total_profit == obj.metrics.total_profit


def _contention_shard_results(kernel: str):
    """Shard results on the committed contention scenario, built through
    the same partition path :func:`run_sharded` uses."""
    config = CONTENTION_CONFIG
    frame = build_scenario_frame(config, CONTENTION_UES, CONTENTION_SEED)
    allocator = DMRAAllocator(pricing=frame.pricing, rho=config.rho)
    shards = 4
    shard_ues = _bucket_ues(frame, shards, DEFAULT_CHUNK_SIZE)
    _, _, bounds = plan_tiles(frame.region, shards)
    shard_bs = tuple(
        tuple(
            frame.base_stations[i]
            for i in halo_bs_indices(
                frame.base_stations, tile_bounds, config.coverage_radius_m
            ).tolist()
        )
        for tile_bounds in bounds
    )
    job = ShardJob(
        providers=frame.providers,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=config.coverage_radius_m,
        link_budget=config.link_budget(),
        rate_model=config.rate_model_fn(),
        pricing=allocator.pricing,
        rho=allocator.rho,
        same_sp_priority=allocator.same_sp_priority,
        max_rounds=allocator.max_rounds,
        shard_ues=shard_ues,
        shard_base_stations=shard_bs,
        kernel=kernel,
    )
    return frame, run_shards(job, workers=1)


def _reconcile_digest(outcome) -> str:
    payload = (
        tuple(
            tuple(
                (g.bs_id, g.ue_id, g.service_id, g.crus, g.rrbs)
                for g in shard
            )
            for shard in outcome.surviving
        ),
        outcome.evicted_ue_ids,
        outcome.evictions_by_shard,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# Recorded from the pre-rewrite quadratic admission loop on the
# committed contention scenario (4 shards, 2000 UEs, seed 1): the
# cursor-based reconcile must keep survivors, evicted UE ids, and
# per-shard eviction counts identical.
RECONCILE_DIGEST = (
    "436f3e8ad30f704156faa579ae2004408cc9e5360cb4de80e895548c5ff4e701"
)
RECONCILE_EVICTIONS = 60


@pytest.mark.parametrize("kernel", ["object", "soa"])
def test_reconcile_outcome_digest_is_stable(kernel):
    frame, results = _contention_shard_results(kernel)
    outcome = reconcile_claims(frame.base_stations, results)
    assert outcome.total_evictions == RECONCILE_EVICTIONS
    assert _reconcile_digest(outcome) == RECONCILE_DIGEST


class TestRunShardedValidation:
    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sharded(
                ScenarioConfig.paper(), ue_count=10, seed=0, shards=0
            )

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sharded(
                ScenarioConfig.paper(),
                ue_count=10,
                seed=0,
                shards=2,
                workers=0,
            )
