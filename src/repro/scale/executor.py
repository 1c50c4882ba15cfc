"""Per-shard execution of Alg. 1 over the fork-pool machinery.

Mirrors the worker model of :mod:`repro.sim.sweep`: the active
:class:`ShardJob` sits in a module-level global that forked workers
inherit, the pool ships only shard indices, and each worker sends back
a picklable :class:`ShardResult` plus (when telemetry is on) a child
recorder that the parent absorbs in shard order — so the merged trace
is identical at any worker count.

Each worker materializes *only its shard*: a
:class:`~repro.model.network.MECNetwork` over the shard's owned UEs and
halo BSs, its radio map, and one engine run.  Because the halo contains
every BS an owned UE can reach (see :mod:`repro.scale.partition`), the
shard-local candidate sets — and hence the shard-local matching — use
exactly the data the monolithic run would for those UEs.

Alongside its grants, each shard reports the BS-side preference key of
every granted (UE, BS) pair so reconciliation can rank conflicting
claims without rebuilding shard state.  The key mirrors
:func:`repro.core.preferences.dmra_bs_rank_key` with one substitution:
the dynamic ``f_u`` (feasible-BS count at grant time, which no longer
exists once the shard run ends) is replaced by the *static* candidate
degree ``|B_u|`` — the same quantity before any capacity is consumed.
The engine's deterministic ``ue_id`` tie-break is appended, as in
:meth:`IterativeMatchingEngine._rank_key`.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from repro.compute.cru import Grant
from repro.core.dmra import DMRAPolicy
from repro.core.soa import make_matching_engine
from repro.econ.pricing import PricingPolicy
from repro.errors import ConfigurationError
from repro.model.entities import BaseStation, Service, ServiceProvider, UserEquipment
from repro.model.geometry import Rectangle
from repro.model.network import MECNetwork
from repro.obs.telemetry import Recorder, get_telemetry, telemetry_session
from repro.radio.channel import RateModel, build_radio_map
from repro.radio.sinr import LinkBudget

__all__ = ["ShardJob", "ShardResult", "run_shards"]

#: Reconciliation rank key of one granted pair:
#: ``(cross-SP flag, |B_u|, n_{u,i} + c_j^u, ue_id)``.
RankKey = tuple[int, int, int, int]


@dataclass(frozen=True)
class ShardJob:
    """Everything the shard workers need, inherited via fork."""

    providers: tuple[ServiceProvider, ...]
    services: tuple[Service, ...]
    region: Rectangle
    coverage_radius_m: float
    link_budget: LinkBudget
    rate_model: RateModel | None
    pricing: PricingPolicy
    rho: float
    same_sp_priority: bool
    max_rounds: int
    #: Owned UE entities per shard, ascending ``ue_id`` within a shard.
    shard_ues: tuple[tuple[UserEquipment, ...], ...]
    #: Halo BS entities per shard, in deployment order — the monolithic
    #: objects with their full capacities (each shard matches as if it
    #: had the BS to itself; reconciliation settles the difference).
    shard_base_stations: tuple[tuple[BaseStation, ...], ...]
    #: Matching kernel per shard run: ``"object"`` (bit-parity
    #: reference), ``"soa"``, or ``"auto"`` — forwarded to
    #: :func:`repro.core.soa.make_matching_engine`.
    kernel: str = "object"

    @property
    def shard_count(self) -> int:
        return len(self.shard_ues)


@dataclass(frozen=True)
class ShardResult:
    """One shard's matching outcome, shipped back to the parent."""

    shard_index: int
    ue_count: int
    bs_count: int
    grants: tuple[Grant, ...]
    #: Reconciliation rank keys, parallel to ``grants``.
    rank_keys: tuple[RankKey, ...]
    cloud_ue_ids: frozenset[int]
    rounds: int


# The job currently fanning out, inherited by forked workers (the
# entity tuples and the radio-map budget never survive pickling cheaply;
# the pool only ships shard indices — same pattern as sim/sweep.py).
_ACTIVE_JOB: ShardJob | None = None


def _shard_network(job: ShardJob, index: int) -> MECNetwork:
    """Materialize one shard's network view (owned UEs + halo BSs)."""
    return MECNetwork(
        providers=job.providers,
        base_stations=job.shard_base_stations[index],
        user_equipments=job.shard_ues[index],
        services=job.services,
        region=job.region,
        coverage_radius_m=job.coverage_radius_m,
    )


def _match_shard(job: ShardJob, index: int) -> ShardResult:
    """Build one shard's network + radio map and run the engine on it."""
    network = _shard_network(job, index)
    radio_map = build_radio_map(
        network, job.link_budget, rate_model=job.rate_model
    )
    policy = DMRAPolicy(
        pricing=job.pricing,
        rho=job.rho,
        same_sp_priority=job.same_sp_priority,
    )
    engine = make_matching_engine(
        policy, kernel=job.kernel, max_rounds=job.max_rounds
    )
    assignment = engine.run(network, radio_map)
    sp_of_bs = {bs.bs_id: bs.sp_id for bs in network.base_stations}
    rank_keys = []
    for grant in assignment.grants:
        ue = network.user_equipment(grant.ue_id)
        same_sp = ue.sp_id == sp_of_bs[grant.bs_id]
        degree = len(network.candidate_base_stations(grant.ue_id))
        rank_keys.append(
            (0 if same_sp else 1, degree, grant.rrbs + grant.crus, grant.ue_id)
        )
    return ShardResult(
        shard_index=index,
        ue_count=network.ue_count,
        bs_count=network.bs_count,
        grants=assignment.grants,
        rank_keys=tuple(rank_keys),
        cloud_ue_ids=assignment.cloud_ue_ids,
        rounds=assignment.rounds,
    )


def _run_shard(index: int) -> tuple[ShardResult, Recorder | None]:
    """Pool entry point: run one shard, recording into a child recorder."""
    job = _ACTIVE_JOB
    assert job is not None
    tel = get_telemetry()
    if not tel.enabled:
        return _match_shard(job, index), None
    child = tel.child()
    with telemetry_session(child):
        with child.span("scale.shard", shard=index) as span:
            result = _match_shard(job, index)
            span.set(
                ues=result.ue_count,
                bs=result.bs_count,
                grants=len(result.grants),
                cloud=len(result.cloud_ue_ids),
                rounds=result.rounds,
            )
    return result, child


def run_shards(job: ShardJob, workers: int = 1) -> list[ShardResult]:
    """Execute every shard of ``job``, optionally over a fork pool.

    ``workers=1`` runs shards serially in-process (one shard's network
    and radio map live at a time — the memory-bounded path);
    ``workers=N`` fans shards out to a fork pool.  Results come back in
    shard order and are identical at any worker count, including the
    merged telemetry trace (children absorbed in shard order).
    Platforms without ``fork`` fall back to serial execution.
    """
    global _ACTIVE_JOB
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    count = job.shard_count
    tel = get_telemetry()
    _ACTIVE_JOB = job
    try:
        if workers > 1 and count > 1 and _fork_available():
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=min(workers, count)) as pool:
                outcomes = pool.map(_run_shard, range(count))
        else:
            outcomes = [_run_shard(index) for index in range(count)]
    finally:
        _ACTIVE_JOB = None
    results = []
    for result, child in outcomes:
        results.append(result)
        if child is not None and tel.enabled:
            tel.absorb(child)
    return results


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()
