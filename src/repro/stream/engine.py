"""The streaming allocator: incremental re-matching of the changed set.

:class:`IncrementalShardEngine` owns every BS's ledger and consumes the
stream's event semantics — stage arrivals, apply departures and
mobility deltas immediately, re-match once per distinct timestamp.  A
flush re-proposes arrivals, displaced UEs, and the *dirty* subset of
cloud-forwarded UEs.  Steady-state cost per event is proportional to the
changed neighborhood, on either kernel: a flush builds a network and
radio map of just the batch, and the match reads and prices only the
ledgers of the batch's candidate BSs.  So it depends on the batch's
UEs, their candidate links and those BSs' hosted services; it does no
work per grant the pool holds, and none per BS beyond a few BS-wide
NumPy arrays on SoA.

The dirty rule rests on a monotonicity fact of the round loop (see
:class:`repro.core.matching._FeasibilityTracker`): BS capacity never
grows *during* a run — "evictions" drop tentative same-round picks,
never booked grants — so a UE forwarded to the cloud retired each
candidate link only once that link's BS could no longer fit it, and at
quiescence every cloud UE is infeasible at every candidate.  Between
runs capacity grows only at an explicit release (departure or mobility
displacement).  Re-proposing exactly the cloud UEs holding a candidate
link to a BS that released capacity — the per-BS *blocked-candidate
index* — therefore reproduces the from-scratch outcome bit for bit: any
cloud UE left out is born-retired in the reference run (it proposes
nowhere and cannot alter another UE's grants).  The from-scratch replay
that checks this lives in ``tests/oracles/stream.py``;
``DMRA_DEBUG_STREAM=1`` re-verifies the quiescence invariant after
every re-match.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Iterable, Sequence

from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import MatchingPolicy
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
from repro.obs import get_telemetry
from repro.radio.channel import RadioMap, build_radio_map
from repro.radio.sinr import LinkBudget

__all__ = ["IncrementalShardEngine", "SOA_BATCH_THRESHOLD"]

#: Under ``kernel="auto"`` the engine compiles batches of at least this
#: many UEs with the SoA kernel; smaller batches stay on the object
#: engine, whose per-run setup is cheaper: most flushes match one UE,
#: and there the object engine is faster (docs/streaming.md, *Kernels*,
#: has the measurement).  Both kernels are bit-identical for a plain
#: :class:`~repro.core.dmra.DMRAPolicy`, so the threshold is purely a
#: throughput knob.
SOA_BATCH_THRESHOLD = 64


def _debug_stream() -> bool:
    return os.environ.get("DMRA_DEBUG_STREAM", "") not in ("", "0")


class IncrementalShardEngine:
    """Dirty-neighborhood re-matching over cheap per-batch networks."""

    def __init__(
        self,
        *,
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
    ) -> None:
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown matching kernel {kernel!r}; "
                f"choose one of {KERNELS}"
            )
        self.kernel = kernel
        self._budget = budget
        self._rate_model = rate_model
        self._pricing = pricing
        self._bs_by_id = {bs.bs_id: bs for bs in base_stations}
        self._ledgers = LedgerPool(base_stations)
        self.total_rrbs = sum(bs.rrb_capacity for bs in base_stations)
        self._monitor = LedgerMonitor(self._ledgers, self.total_rrbs)
        self._object_engine = make_matching_engine(policy, kernel="object")
        self._soa_engine = None
        if kernel == "soa" or (
            kernel == "auto" and type(policy) is DMRAPolicy
        ):
            self._soa_engine = make_matching_engine(policy, kernel="soa")
        self._builder = BatchNetworkBuilder(
            providers=providers,
            base_stations=base_stations,
            services=services,
            region=region,
            coverage_radius_m=coverage_radius_m,
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
        #: Cloud UEs to re-propose at the next flush: exactly those with
        #: a candidate link to a BS that released capacity since they
        #: last retired.
        self._dirty: set[int] = set()
        #: Per cloud UE, its viable ``(bs_id, rrbs_required)`` links.
        self._cloud_cands: dict[int, tuple[tuple[int, int], ...]] = {}
        #: The blocked-candidate index: BS id -> cloud UEs holding a
        #: candidate link to it.
        self._blocked_by_bs: dict[int, set[int]] = {}
        # Outcome counters.
        self.cancelled = 0
        self.displaced = 0
        self.admitted_edge = 0
        self.admitted_cloud = 0
        self.readmitted = 0
        self.total_profit = 0.0
        self.profit_by_sp: dict[int, float] = {
            sp.sp_id: 0.0 for sp in providers
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
            # matched, which cancels the staged arrival.
            del self._staged[ue_id]
            self.cancelled += 1
            return
        if ue_id in self._edge:
            self._release_edge(ue_id)
        elif ue_id in self._cloud:
            self._cloud.discard(ue_id)
            self._dirty.discard(ue_id)
            self._drop_index(ue_id)
        elif ue_id in self._displaced:
            # Departed between its displacing move and the flush that
            # would have re-proposed it (same-instant events).
            self._displaced.discard(ue_id)
        else:
            raise AllocationError(
                f"departure for UE {ue_id} which never arrived or "
                f"already departed"
            )
        self._entities.pop(ue_id, None)
        self._monitor.check(self._used_rrbs)

    def move(self, ue_id: int, position: Point) -> None:
        """Apply a mobility delta: displace the UE for re-matching."""
        if ue_id in self._staged:
            self._staged[ue_id] = replace(
                self._staged[ue_id], position=position
            )
            return
        if ue_id not in self._entities:
            raise AllocationError(
                f"move for UE {ue_id} which never arrived or already "
                f"departed"
            )
        self._entities[ue_id] = replace(
            self._entities[ue_id], position=position
        )
        if ue_id in self._edge:
            self._release_edge(ue_id)
            self._displaced.add(ue_id)
            self.displaced += 1
        elif ue_id in self._cloud:
            self._cloud.discard(ue_id)
            self._dirty.discard(ue_id)
            self._drop_index(ue_id)
            self._displaced.add(ue_id)
            self.displaced += 1
        self._monitor.check(self._used_rrbs)

    def flush(self, now: float) -> None:
        """Re-match the staged + displaced + dirty set at ``now``."""
        propose: dict[int, UserEquipment] = {}
        for ue_id in self._dirty:
            propose[ue_id] = self._entities[ue_id]
        self._dirty = set()
        for ue_id in self._displaced:
            propose[ue_id] = self._entities[ue_id]
        propose.update(self._staged)
        self._staged.clear()
        if not propose:
            return
        was_cloud = {u for u in propose if u in self._cloud}
        was_displaced = self._displaced
        self._displaced = set()

        network = self._builder.network_for(
            [propose[ue_id] for ue_id in sorted(propose)]
        )
        radio = build_radio_map(
            network, self._budget, rate_model=self._rate_model
        )
        engine = self._object_engine
        if self._soa_engine is not None and (
            self.kernel == "soa" or len(propose) >= SOA_BATCH_THRESHOLD
        ):
            engine = self._soa_engine
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
                self._drop_index(grant.ue_id)
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
            if ue_id not in self._cloud_cands:
                # A UE still indexed kept its position: links unchanged.
                self._index_cloud(ue_id, ue, radio)
        if _debug_stream():
            self._assert_cloud_quiescent(assignment.cloud_ue_ids)
        self._monitor.check(self._used_rrbs)

    # -- internals ----------------------------------------------------

    def _release_edge(self, ue_id: int) -> None:
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
        blocked = self._blocked_by_bs.get(bs_id)
        if blocked:
            self._dirty.update(blocked)

    def _index_cloud(
        self, ue_id: int, ue: UserEquipment, radio: RadioMap
    ) -> None:
        """Enter a cloud UE's viable links in the blocked index."""
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

    def _assert_cloud_quiescent(self, cloud_ids: Iterable[int]) -> None:
        """Debug probe: post-run cloud UEs are infeasible everywhere."""
        for ue_id in sorted(cloud_ids):
            if ue_id not in self._cloud:
                continue
            ue = self._entities[ue_id]
            for bs_id, rrbs in self._cloud_cands.get(ue_id, ()):
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

    # -- introspection (tests) ----------------------------------------

    @property
    def dirty_ids(self) -> frozenset[int]:
        return frozenset(self._dirty)

    @property
    def blocked_index_size(self) -> int:
        return sum(len(s) for s in self._blocked_by_bs.values())
