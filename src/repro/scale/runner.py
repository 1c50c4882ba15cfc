"""The sharded run: partition -> per-shard matching -> reconciliation.

:func:`run_sharded` is the scale-path counterpart of
:func:`repro.sim.runner.run_allocation`.  It never materializes the
monolithic scenario: UE entities are streamed chunk-by-chunk straight
into per-shard buckets (:mod:`repro.scale.streaming`), each shard
matches against only its halo view (:mod:`repro.scale.executor`), and
the global constraints are restored by ranked admission plus residual
re-proposal (:mod:`repro.scale.reconcile`,
:func:`repro.core.residual.residual_match`).  Outcome metrics are then
evaluated on a monolithic network — entity populations plus sparse
coverage pairs, no UE x BS matrix — so even the 100k-UE bench stays
inside a fixed memory envelope.

Determinism: with one shard the partition owns every UE, the shard
network equals the monolithic network entity-for-entity, no BS can be
over-subscribed, and the assembled assignment (grants tuple, cloud
set, round count) is bit-identical to
``DMRAAllocator.allocate(network, radio_map)`` — pinned by the parity
integration test.  With several shards, results can differ from the
monolithic run only at tile boundaries (see docs/scaling.md); the
``scale.*`` counters quantify exactly how much reconciliation had to
intervene.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.dmra import DMRAAllocator, DMRAPolicy
from repro.core.residual import residual_match
from repro.errors import AllocationError, ConfigurationError
from repro.model.network import MECNetwork
from repro.obs.telemetry import get_telemetry
from repro.radio.channel import build_radio_map
from repro.scale.executor import ShardJob, run_shards
from repro.scale.partition import assign_shards, halo_bs_indices, plan_tiles
from repro.scale.reconcile import reconcile_claims
from repro.scale.streaming import (
    DEFAULT_CHUNK_SIZE,
    ScenarioFrame,
    build_scenario_frame,
)
from repro.sim.config import ScenarioConfig
from repro.sim.metrics import OutcomeMetrics, compute_metrics

__all__ = ["ShardedOutcome", "run_sharded"]


@dataclass(frozen=True)
class ShardedOutcome:
    """Everything one sharded run produces."""

    assignment: Assignment
    metrics: OutcomeMetrics
    shard_count: int
    workers: int
    shard_ue_counts: tuple[int, ...]
    shard_bs_counts: tuple[int, ...]
    shard_rounds: tuple[int, ...]
    evictions_by_shard: tuple[int, ...]
    reproposal_rounds: int
    reproposal_grants: int
    partition_time_s: float
    match_time_s: float
    reconcile_time_s: float
    wall_time_s: float

    @property
    def total_evictions(self) -> int:
        return sum(self.evictions_by_shard)


def run_sharded(
    config: ScenarioConfig,
    ue_count: int,
    seed: int,
    shards: int,
    workers: int = 1,
    allocator: DMRAAllocator | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    kernel: str = "object",
) -> ShardedOutcome:
    """Run DMRA on ``(config, ue_count, seed)`` sharded by geometry.

    ``allocator`` supplies the DMRA parameters (pricing, ``rho``,
    ablation switch, round bound); ``None`` uses the config's pricing
    and ``rho`` — the same defaults the monolithic CLI path applies.
    ``workers`` bounds the fork pool.  ``kernel``
    picks the per-shard matching engine (``"object"``, ``"soa"``, or
    ``"auto"``; see :func:`repro.core.soa.make_matching_engine`) — the
    shard-local assignments are bit-identical either way, so the choice
    is pure throughput.  Sharding is DMRA-specific: reconciliation
    ranks conflicting claims with the DMRA BS-side preference order,
    which has no analogue for the baseline schemes.
    """
    if shards <= 0:
        raise ConfigurationError(f"shards must be > 0, got {shards}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    tel = get_telemetry()
    start = time.perf_counter()
    with tel.span(
        "scale.run", shards=shards, workers=workers, ues=ue_count, seed=seed
    ) as run_span:
        phase_start = time.perf_counter()
        with tel.span("scale.partition", shards=shards) as part_span:
            frame = build_scenario_frame(config, ue_count, seed)
            if allocator is None:
                allocator = DMRAAllocator(
                    pricing=frame.pricing, rho=config.rho
                )
            shard_ues = _bucket_ues(frame, shards, chunk_size)
            _, _, bounds = plan_tiles(frame.region, shards)
            shard_bs_indices = tuple(
                tuple(
                    halo_bs_indices(
                        frame.base_stations,
                        tile_bounds,
                        config.coverage_radius_m,
                    ).tolist()
                )
                for tile_bounds in bounds
            )
            shard_base_stations = tuple(
                tuple(frame.base_stations[i] for i in indices)
                for indices in shard_bs_indices
            )
            part_span.set(
                ues=ue_count,
                bs=len(frame.base_stations),
                max_shard_ues=max(len(s) for s in shard_ues),
                max_halo_bs=max(len(s) for s in shard_bs_indices),
            )
        partition_time = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
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
            shard_base_stations=shard_base_stations,
            kernel=kernel,
        )
        results = run_shards(job, workers=workers)
        match_time = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        with tel.span("scale.reconcile", shards=shards) as rec_span:
            outcome = reconcile_claims(frame.base_stations, results)
            for result in results:
                tel.count(
                    f"scale.shard_rounds.{result.shard_index}", result.rounds
                )
            for index, evictions in enumerate(outcome.evictions_by_shard):
                if evictions:
                    tel.count(f"scale.shard_evictions.{index}", evictions)
            if outcome.total_evictions:
                tel.count("scale.evictions", outcome.total_evictions)
            # Re-proposal targets: every evicted UE, plus — in multi-shard
            # mode only — every shard-cloud UE.  Shard-cloud UEs were
            # rejected inside one shard's halo view, so the reconciled
            # global pool may still fit them; with one shard the match
            # already saw the whole network and re-proposing rejected UEs
            # would break Alg. 1's no-re-proposal rule (and bit-parity).
            shard_clouds = frozenset().union(
                *(result.cloud_ue_ids for result in results)
            )
            if shards > 1:
                targets = tuple(
                    sorted(set(outcome.evicted_ue_ids) | shard_clouds)
                )
            else:
                targets = outcome.evicted_ue_ids
            reproposal = _repropose(
                frame, outcome, allocator, shard_ues, targets
            )
            rec_span.set(
                evictions=outcome.total_evictions,
                reproposal_rounds=reproposal.rounds,
                reproposal_grants=len(reproposal.grants),
            )
            if reproposal.rounds:
                tel.count("scale.reproposal_rounds", reproposal.rounds)
            if reproposal.grants:
                tel.count("scale.reproposal_grants", len(reproposal.grants))
            outcome.ledgers.check_invariants()
        reconcile_time = time.perf_counter() - phase_start

        grants = tuple(
            grant
            for shard_grants in outcome.surviving
            for grant in shard_grants
        ) + reproposal.grants
        # Every target UE was resolved by the re-proposal pass (granted
        # or forwarded to cloud); the rest keep their shard outcome.
        cloud = (shard_clouds - set(targets)) | reproposal.cloud_ue_ids
        rounds = (
            max((result.rounds for result in results), default=0)
            + reproposal.rounds
        )
        if len(grants) + len(cloud) != ue_count:
            raise AllocationError(
                f"sharded run lost UEs: {len(grants)} grants + "
                f"{len(cloud)} cloud != {ue_count}"
            )
        assignment = Assignment(
            grants=grants, cloud_ue_ids=cloud, rounds=rounds
        )

        metrics_network = _metrics_network(frame, shard_ues)
        metrics = compute_metrics(metrics_network, assignment, frame.pricing)
        tel.gauge("scale.shards", shards)
        run_span.set(
            grants=len(grants),
            cloud=len(cloud),
            rounds=rounds,
            evictions=outcome.total_evictions,
        )
    return ShardedOutcome(
        assignment=assignment,
        metrics=metrics,
        shard_count=shards,
        workers=workers,
        shard_ue_counts=tuple(result.ue_count for result in results),
        shard_bs_counts=tuple(result.bs_count for result in results),
        shard_rounds=tuple(result.rounds for result in results),
        evictions_by_shard=outcome.evictions_by_shard,
        reproposal_rounds=reproposal.rounds,
        reproposal_grants=len(reproposal.grants),
        partition_time_s=partition_time,
        match_time_s=match_time,
        reconcile_time_s=reconcile_time,
        wall_time_s=time.perf_counter() - start,
    )


def _bucket_ues(
    frame: ScenarioFrame, shards: int, chunk_size: int
) -> tuple[tuple, ...]:
    """Stream UE chunks straight into per-shard ownership buckets."""
    nx, ny, _ = plan_tiles(frame.region, shards)
    buckets: list[list] = [[] for _ in range(shards)]
    for chunk in frame.iter_ue_chunks(chunk_size):
        if not chunk:
            continue
        xy = np.asarray(
            [ue.position.as_tuple() for ue in chunk], dtype=float
        ).reshape(-1, 2)
        owners = assign_shards(xy, frame.region, nx, ny)
        for ue, owner in zip(chunk, owners.tolist()):
            buckets[owner].append(ue)
    return tuple(tuple(bucket) for bucket in buckets)


def _metrics_network(
    frame: ScenarioFrame, shard_ues: tuple[tuple, ...]
) -> MECNetwork:
    """The monolithic network used for outcome metrics only.

    Reassembles the full UE population (ascending ``ue_id``) from the
    shard buckets.  The network stores only its sparse coverage pairs,
    never a UE x BS matrix, and no radio map is built (metrics need
    none).
    """
    all_ues = sorted(
        (ue for bucket in shard_ues for ue in bucket),
        key=lambda ue: ue.ue_id,
    )
    return MECNetwork(
        providers=frame.providers,
        base_stations=frame.base_stations,
        user_equipments=all_ues,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=frame.config.coverage_radius_m,
    )


def _repropose(
    frame: ScenarioFrame,
    outcome,
    allocator: DMRAAllocator,
    shard_ues: tuple[tuple, ...],
    targets: tuple[int, ...],
):
    """Deferred-acceptance re-proposal of unplaced UEs (step 2).

    Builds a small *conflict network* — just the target UEs (evicted
    claims plus, in multi-shard mode, shard-cloud UEs) against the full
    BS population — and runs the engine's incremental mode on the
    global pool's residual capacity.  Returns an empty assignment
    untouched-fast when there is nothing to re-propose (the
    ``--shards 1`` path: zero extra work, zero extra rounds).
    """
    if not targets:
        return Assignment(grants=(), cloud_ue_ids=frozenset(), rounds=0)
    wanted = set(targets)
    conflict_ues = tuple(
        sorted(
            (
                ue
                for bucket in shard_ues
                for ue in bucket
                if ue.ue_id in wanted
            ),
            key=lambda ue: ue.ue_id,
        )
    )
    network = MECNetwork(
        providers=frame.providers,
        base_stations=frame.base_stations,
        user_equipments=conflict_ues,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=frame.config.coverage_radius_m,
    )
    radio_map = build_radio_map(
        network, frame.config.link_budget(),
        rate_model=frame.config.rate_model_fn(),
    )
    policy = DMRAPolicy(
        pricing=allocator.pricing,
        rho=allocator.rho,
        same_sp_priority=allocator.same_sp_priority,
    )
    return residual_match(
        network,
        radio_map,
        outcome.ledgers,
        targets,
        policy,
        max_rounds=allocator.max_rounds,
    )
