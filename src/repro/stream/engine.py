"""Per-shard streaming allocators: incremental re-matching vs from-scratch.

Both engines consume the same event semantics — stage arrivals, apply
departures and mobility deltas immediately, re-match once per distinct
timestamp — and differ only in *which* UEs they hand to the matching
kernel:

* :class:`IncrementalShardEngine` re-proposes arrivals, displaced UEs,
  and the *dirty* subset of cloud-forwarded UEs.  Steady-state cost per
  event is proportional to the changed neighborhood, on either kernel:
  a flush builds a network and radio map of just the batch, and the
  match reads and prices only the ledgers of the batch's candidate BSs.
  So it depends on the batch's UEs, their candidate links and those
  BSs' hosted services; it does no work per grant the shard holds, and
  none per BS it owns beyond a few BS-wide NumPy arrays on SoA.
* :class:`RescratchShardEngine` re-proposes arrivals, displaced UEs,
  and **every** cloud-forwarded UE against a monolithic network that is
  patched with :meth:`~repro.model.network.MECNetwork.with_moved_ues` /
  :meth:`~repro.radio.channel.RadioMap.with_updated_ues` on each move.
  It is the oracle the equivalence gate compares against.

The incremental engine's dirty rule rests on a monotonicity fact of the
round loop (see :class:`repro.core.matching._FeasibilityTracker`): BS
capacity never grows *during* a run — "evictions" drop tentative
same-round picks, never booked grants — so a UE forwarded to the cloud
retired each candidate link only once that link's BS could no longer fit
it, and at quiescence every cloud UE is infeasible at every candidate.
Between runs capacity grows only at an explicit release (departure or
mobility displacement).  Re-proposing exactly the cloud UEs holding a
candidate link to a BS that released capacity — the per-BS
*blocked-candidate index* — therefore reproduces the from-scratch
outcome bit for bit: any cloud UE left out is born-retired in the
reference run (it proposes nowhere and cannot alter another UE's
grants).  ``DMRA_DEBUG_STREAM=1`` re-verifies the quiescence invariant
after every re-match.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Iterable, Sequence

from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine, MatchingPolicy
from repro.core.soa import KERNELS, make_matching_engine
from repro.dynamics.online import LedgerMonitor
from repro.econ.accounting import marginal_profit
from repro.errors import AllocationError, ConfigurationError
from repro.model.batchnet import BatchNetworkBuilder
from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UserEquipment,
)
from repro.model.geometry import Point, Rectangle
from repro.model.network import MECNetwork
from repro.obs import get_telemetry
from repro.radio.channel import RadioMap, build_radio_map
from repro.radio.sinr import LinkBudget

__all__ = [
    "IncrementalShardEngine",
    "RescratchShardEngine",
    "SOA_BATCH_THRESHOLD",
]

#: Under ``kernel="auto"`` the incremental engine compiles batches of at
#: least this many UEs with the SoA kernel; smaller batches stay on the
#: object engine, whose per-run setup is cheaper: most flushes match one
#: UE, and there the object engine is faster (docs/streaming.md,
#: *Kernels*, has the measurement).  Both kernels are bit-identical for a
#: plain :class:`~repro.core.dmra.DMRAPolicy`, so the threshold is purely
#: a throughput knob.
SOA_BATCH_THRESHOLD = 64


def _debug_stream() -> bool:
    return os.environ.get("DMRA_DEBUG_STREAM", "") not in ("", "0")


class _ShardEngineBase:
    """Event bookkeeping shared by both allocation modes.

    Subclasses choose the re-proposal set and the (network, radio map)
    the batch is matched against; everything observable — admission
    counters, profits, ledger state — flows through this shared code so
    the two modes stay comparable field by field.
    """

    mode: str = "base"

    def __init__(
        self,
        *,
        shard_id: int,
        providers: Sequence[ServiceProvider],
        base_stations: Sequence[BaseStation],
        services: Sequence[Service],
        region: Rectangle,
        coverage_radius_m: float,
        budget: LinkBudget,
        rate_model,
        pricing,
        policy: MatchingPolicy,
        scan_cadence: int = 1024,
    ) -> None:
        self.shard_id = shard_id
        self._providers = tuple(providers)
        self._base_stations = tuple(base_stations)
        self._services = tuple(services)
        self._region = region
        self._coverage_radius_m = coverage_radius_m
        self._budget = budget
        self._rate_model = rate_model
        self._pricing = pricing
        self._policy = policy
        self._bs_count = len(self._base_stations)
        self._bs_by_id = {bs.bs_id: bs for bs in self._base_stations}
        self._ledgers = LedgerPool(self._base_stations)
        self.total_rrbs = sum(bs.rrb_capacity for bs in self._base_stations)
        self._monitor = LedgerMonitor(
            self._ledgers, self.total_rrbs, cadence=scan_cadence
        )
        # Live state: entities of every active UE (edge + cloud +
        # displaced), the grant records, and the pre-flush staging area.
        self._staged: dict[int, UserEquipment] = {}
        self._entities: dict[int, UserEquipment] = {}
        self._edge: dict[int, int] = {}
        self._edge_rrbs: dict[int, int] = {}
        self._cloud: set[int] = set()
        self._displaced: set[int] = set()
        self._used_rrbs = 0
        # Outcome counters (mode-equal by the equivalence invariant).
        self.cancelled = 0
        self.displaced = 0
        self.admitted_edge = 0
        self.admitted_cloud = 0
        self.readmitted = 0
        self.total_profit = 0.0
        self.profit_by_sp: dict[int, float] = {
            sp.sp_id: 0.0 for sp in self._providers
        }

    # -- occupancy ----------------------------------------------------

    @property
    def edge_active(self) -> int:
        return len(self._edge)

    @property
    def cloud_active(self) -> int:
        return len(self._cloud)

    @property
    def used_rrbs(self) -> int:
        return self._used_rrbs

    @property
    def rrb_utilization(self) -> float:
        return self._used_rrbs / self.total_rrbs if self.total_rrbs else 0.0

    def grant_items(self) -> Iterable[tuple[int, int, int]]:
        """``(ue_id, bs_id, rrbs)`` per live edge grant (digest input)."""
        for ue_id, bs_id in self._edge.items():
            yield ue_id, bs_id, self._edge_rrbs[ue_id]

    @property
    def cloud_ids(self) -> frozenset[int]:
        return frozenset(self._cloud)

    # -- event application --------------------------------------------

    def stage(self, ue: UserEquipment) -> None:
        """Stage an arrival for the next :meth:`flush`."""
        self._staged[ue.ue_id] = ue

    def depart(self, ue_id: int) -> None:
        """Apply a departure immediately (O(1) plus the tripwire)."""
        if ue_id in self._staged:
            # The tape draws holding times independently of admission;
            # a zero-length holding departs the UE before it was ever
            # matched, which cancels the staged arrival in both modes.
            del self._staged[ue_id]
            self.cancelled += 1
            return
        if ue_id in self._edge:
            self._release_edge(ue_id)
        elif ue_id in self._cloud:
            self._cloud.discard(ue_id)
            self._on_cloud_departure(ue_id)
        elif ue_id in self._displaced:
            # Departed between its displacing move and the flush that
            # would have re-proposed it (same-instant events).
            self._displaced.discard(ue_id)
        else:
            raise AllocationError(
                f"departure for UE {ue_id} which is not active"
            )
        self._entities.pop(ue_id, None)
        self._monitor.check(self._used_rrbs)

    def move(self, ue_id: int, position: Point) -> None:
        """Apply a mobility delta: displace the UE for re-matching."""
        if ue_id in self._staged:
            self._staged[ue_id] = replace(
                self._staged[ue_id], position=position
            )
            self._position_changed(ue_id, position)
            return
        if ue_id not in self._entities:
            raise AllocationError(f"move for UE {ue_id} which is not active")
        self._entities[ue_id] = replace(
            self._entities[ue_id], position=position
        )
        if ue_id in self._edge:
            self._release_edge(ue_id)
            self._displaced.add(ue_id)
            self.displaced += 1
        elif ue_id in self._cloud:
            self._cloud.discard(ue_id)
            self._on_cloud_departure(ue_id)
            self._displaced.add(ue_id)
            self.displaced += 1
        self._position_changed(ue_id, position)
        self._monitor.check(self._used_rrbs)

    def flush(self, now: float) -> None:
        """Re-match the staged + displaced + re-proposal set at ``now``."""
        propose: dict[int, UserEquipment] = {}
        for ue_id in self._reproposal_ids():
            propose[ue_id] = self._entities[ue_id]
        for ue_id in self._displaced:
            propose[ue_id] = self._entities[ue_id]
        propose.update(self._staged)
        self._staged.clear()
        if not propose:
            return
        was_cloud = {u for u in propose if u in self._cloud}
        was_displaced = set(self._displaced)
        self._displaced.clear()
        if self._bs_count == 0:
            # A shard tile that owns no BSs: everything is cloud-bound.
            for ue_id, ue in propose.items():
                self._entities[ue_id] = ue
                if ue_id not in was_cloud:
                    if ue_id not in was_displaced:
                        self.admitted_cloud += 1
                    self._cloud.add(ue_id)
            return

        network, radio = self._batch_context(propose)
        engine = self._engine_for(len(propose))
        with get_telemetry().timer("stream.rematch"):
            assignment = engine.run(
                network, radio, ledgers=self._ledgers,
                ue_ids=list(propose),
            )
        # Sorted accounting keeps the profit float accumulation order
        # independent of the kernel's ledger insertion order.
        for grant in sorted(assignment.grants, key=lambda g: g.ue_id):
            ue = propose[grant.ue_id]
            self._entities[grant.ue_id] = ue
            self._edge[grant.ue_id] = grant.bs_id
            self._edge_rrbs[grant.ue_id] = grant.rrbs
            self._used_rrbs += grant.rrbs
            self._monitor.on_grant(grant.rrbs)
            profit = marginal_profit(
                network, grant.ue_id, grant.bs_id, self._pricing
            )
            self.total_profit += profit
            self.profit_by_sp[ue.sp_id] = (
                self.profit_by_sp.get(ue.sp_id, 0.0) + profit
            )
            if grant.ue_id in was_cloud:
                self._cloud.discard(grant.ue_id)
                self._on_cloud_exit(grant.ue_id)
                self.readmitted += 1
            elif grant.ue_id in was_displaced:
                self.readmitted += 1
            else:
                self.admitted_edge += 1
        for ue_id in sorted(assignment.cloud_ue_ids):
            ue = propose[ue_id]
            self._entities[ue_id] = ue
            if ue_id not in was_cloud:
                if ue_id not in was_displaced:
                    # Blocking counts initial admissions only; a
                    # displaced or re-proposed UE landing cloud again is
                    # occupancy churn, not a new blocked arrival.
                    self.admitted_cloud += 1
                self._cloud.add(ue_id)
            self._on_cloud_entry(ue_id, ue, radio)
        if _debug_stream():
            self._assert_cloud_quiescent(set(assignment.cloud_ue_ids))
        self._monitor.check(self._used_rrbs)

    # -- shared internals ---------------------------------------------

    def _release_edge(self, ue_id: int) -> int:
        bs_id = self._edge.pop(ue_id)
        expected = self._edge_rrbs.pop(ue_id)
        grant = self._ledgers.ledger(bs_id).release(ue_id)
        if grant.rrbs != expected:
            raise AllocationError(
                f"ledger drift: UE {ue_id} released {grant.rrbs} RRBs on "
                f"BS {bs_id} but the run recorded {expected}"
            )
        self._used_rrbs -= grant.rrbs
        self._monitor.on_release(grant.rrbs)
        self._freed(bs_id)
        return bs_id

    def _assert_cloud_quiescent(self, cloud_ids: set[int]) -> None:
        """Debug probe: post-run cloud UEs are infeasible everywhere."""
        for ue_id in sorted(cloud_ids):
            if ue_id not in self._cloud:
                continue
            ue = self._entities[ue_id]
            for bs_id, rrbs in self._quiescence_cands(ue_id):
                ledger = self._ledgers.ledger(bs_id)
                if (
                    ledger.remaining_rrbs >= rrbs
                    and ledger.remaining_crus(ue.service_id)
                    >= ue.cru_demand
                ):
                    raise AllocationError(
                        f"quiescence invariant violated: cloud UE "
                        f"{ue_id} still fits BS {bs_id}"
                    )

    def _quiescence_cands(self, ue_id: int) -> tuple[tuple[int, int], ...]:
        """``(bs_id, rrbs_required)`` pairs backing the debug probe."""
        return ()

    # -- mode hooks ----------------------------------------------------

    def _reproposal_ids(self) -> Iterable[int]:
        raise NotImplementedError

    def _batch_context(
        self, propose: dict[int, UserEquipment]
    ) -> tuple[MECNetwork, RadioMap]:
        raise NotImplementedError

    def _engine_for(self, batch_size: int):
        raise NotImplementedError

    def _freed(self, bs_id: int) -> None:
        """An edge grant on ``bs_id`` was just released."""

    def _on_cloud_departure(self, ue_id: int) -> None:
        """A cloud UE left (departure or displacement)."""

    def _on_cloud_exit(self, ue_id: int) -> None:
        """A cloud UE was re-admitted to the edge."""

    def _on_cloud_entry(
        self, ue_id: int, ue: UserEquipment, radio: RadioMap
    ) -> None:
        """A UE entered (or stayed in) the cloud set after a flush."""

    def _position_changed(self, ue_id: int, position: Point) -> None:
        """The UE's position changed (staged, edge, or cloud)."""


class IncrementalShardEngine(_ShardEngineBase):
    """Dirty-neighborhood re-matching over cheap per-batch networks."""

    mode = "incremental"

    def __init__(
        self,
        *,
        shard_id: int,
        providers: Sequence[ServiceProvider],
        base_stations: Sequence[BaseStation],
        services: Sequence[Service],
        region: Rectangle,
        coverage_radius_m: float,
        budget: LinkBudget,
        rate_model,
        pricing,
        policy: MatchingPolicy,
        kernel: str = "auto",
        scan_cadence: int = 1024,
    ) -> None:
        super().__init__(
            shard_id=shard_id,
            providers=providers,
            base_stations=base_stations,
            services=services,
            region=region,
            coverage_radius_m=coverage_radius_m,
            budget=budget,
            rate_model=rate_model,
            pricing=pricing,
            policy=policy,
            scan_cadence=scan_cadence,
        )
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown matching kernel {kernel!r}; "
                f"choose one of {KERNELS}"
            )
        self.kernel = kernel
        self._object_engine = make_matching_engine(policy, kernel="object")
        self._soa_engine = None
        if kernel == "soa" or (
            kernel == "auto" and type(policy) is DMRAPolicy
        ):
            self._soa_engine = make_matching_engine(policy, kernel="soa")
        self._builder = (
            BatchNetworkBuilder(
                providers=providers,
                base_stations=base_stations,
                services=services,
                region=region,
                coverage_radius_m=coverage_radius_m,
            )
            if self._bs_count
            else None
        )
        #: Cloud UEs to re-propose at the next flush: exactly those with
        #: a candidate link to a BS that released capacity since they
        #: last retired.
        self._dirty: set[int] = set()
        #: Per cloud UE, its viable ``(bs_id, rrbs_required)`` links.
        self._cloud_cands: dict[int, tuple[tuple[int, int], ...]] = {}
        #: The blocked-candidate index: BS id -> cloud UEs holding a
        #: candidate link to it.
        self._blocked_by_bs: dict[int, set[int]] = {}

    # -- hooks ---------------------------------------------------------

    def _reproposal_ids(self) -> Iterable[int]:
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def _batch_context(
        self, propose: dict[int, UserEquipment]
    ) -> tuple[MECNetwork, RadioMap]:
        ues = [propose[ue_id] for ue_id in sorted(propose)]
        network = self._builder.network_for(ues)
        radio = build_radio_map(
            network, self._budget, rate_model=self._rate_model
        )
        return network, radio

    def _engine_for(self, batch_size: int):
        if self._soa_engine is not None and (
            self.kernel == "soa" or batch_size >= SOA_BATCH_THRESHOLD
        ):
            return self._soa_engine
        return self._object_engine

    def _freed(self, bs_id: int) -> None:
        blocked = self._blocked_by_bs.get(bs_id)
        if blocked:
            self._dirty.update(blocked)

    def _on_cloud_departure(self, ue_id: int) -> None:
        self._dirty.discard(ue_id)
        self._drop_index(ue_id)

    def _on_cloud_exit(self, ue_id: int) -> None:
        self._drop_index(ue_id)

    def _on_cloud_entry(
        self, ue_id: int, ue: UserEquipment, radio: RadioMap
    ) -> None:
        if ue_id in self._cloud_cands:
            # Same position since last indexed: links unchanged.
            return
        start, stop = radio.ue_slice(ue_id)
        bs_col = radio.bs_ids
        demands = radio.rrb_demands
        pairs: list[tuple[int, int]] = []
        for i in range(start, stop):
            bs_id = int(bs_col[i])
            rrbs = int(demands[i])
            bs = self._bs_by_id[bs_id]
            if rrbs > bs.rrb_capacity:
                continue  # can never fit, even on an empty BS
            if ue.cru_demand > bs.cru_capacity.get(ue.service_id, 0):
                continue
            pairs.append((bs_id, rrbs))
            self._blocked_by_bs.setdefault(bs_id, set()).add(ue_id)
        self._cloud_cands[ue_id] = tuple(pairs)

    def _quiescence_cands(self, ue_id: int) -> tuple[tuple[int, int], ...]:
        return self._cloud_cands.get(ue_id, ())

    def _drop_index(self, ue_id: int) -> None:
        cands = self._cloud_cands.pop(ue_id, None)
        if not cands:
            return
        for bs_id, _ in cands:
            blocked = self._blocked_by_bs.get(bs_id)
            if blocked is not None:
                blocked.discard(ue_id)
                if not blocked:
                    del self._blocked_by_bs[bs_id]

    # -- introspection (tests) ----------------------------------------

    @property
    def dirty_ids(self) -> frozenset[int]:
        return frozenset(self._dirty)

    @property
    def blocked_index_size(self) -> int:
        return sum(len(s) for s in self._blocked_by_bs.values())


class RescratchShardEngine(_ShardEngineBase):
    """The from-scratch oracle: every cloud UE re-proposed, every batch.

    Holds one monolithic network over the shard's entire tape
    population (built at arrival positions, patched per move with
    ``with_moved_ues`` / ``with_updated_ues``) and runs a **fresh**
    object-kernel engine per flush, so no incremental machinery —
    caches, batch networks, dirty sets — is shared with the engine
    under test.
    """

    mode = "rescratch"

    def __init__(
        self,
        *,
        shard_id: int,
        providers: Sequence[ServiceProvider],
        base_stations: Sequence[BaseStation],
        services: Sequence[Service],
        region: Rectangle,
        coverage_radius_m: float,
        budget: LinkBudget,
        rate_model,
        pricing,
        policy: MatchingPolicy,
        population: Sequence[UserEquipment],
        scan_cadence: int = 1,
    ) -> None:
        super().__init__(
            shard_id=shard_id,
            providers=providers,
            base_stations=base_stations,
            services=services,
            region=region,
            coverage_radius_m=coverage_radius_m,
            budget=budget,
            rate_model=rate_model,
            pricing=pricing,
            policy=policy,
            scan_cadence=scan_cadence,
        )
        self._network: MECNetwork | None = None
        self._radio: RadioMap | None = None
        if self._bs_count:
            self._network = MECNetwork(
                providers=self._providers,
                base_stations=self._base_stations,
                user_equipments=tuple(population),
                services=self._services,
                region=region,
                coverage_radius_m=coverage_radius_m,
            )
            self._radio = build_radio_map(
                self._network, budget, rate_model=rate_model
            )

    def _reproposal_ids(self) -> Iterable[int]:
        return sorted(self._cloud)

    def _batch_context(
        self, propose: dict[int, UserEquipment]
    ) -> tuple[MECNetwork, RadioMap]:
        return self._network, self._radio

    def _engine_for(self, batch_size: int):
        # A cold engine per batch: nothing carries over between solves.
        return IterativeMatchingEngine(self._policy)

    def _position_changed(self, ue_id: int, position: Point) -> None:
        if self._network is None:
            return
        self._network = self._network.with_moved_ues({ue_id: position})
        self._radio = self._radio.with_updated_ues(
            self._network, self._budget, [ue_id],
            rate_model=self._rate_model,
        )

    def _quiescence_cands(self, ue_id: int) -> tuple[tuple[int, int], ...]:
        if self._radio is None:
            return ()
        start, stop = self._radio.ue_slice(ue_id)
        bs_col = self._radio.bs_ids
        demands = self._radio.rrb_demands
        return tuple(
            (int(bs_col[i]), int(demands[i])) for i in range(start, stop)
        )
