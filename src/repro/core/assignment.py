"""Allocation results: the ``a_{u,i}`` association plus cloud fallbacks.

An :class:`Assignment` is what every allocator returns: the set of
resource grants realized at the edge and the set of UEs forwarded to the
remote cloud.  :meth:`Assignment.validate` re-checks every constraint of
the TPM problem (Eqs. 12--15) against the network and radio map, so a
buggy allocator cannot silently report an infeasible solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.compute.cru import Grant, GrantColumns
from repro.errors import AllocationError
from repro.model.network import EntityColumns, MECNetwork
from repro.radio.channel import RadioMap

__all__ = ["Assignment"]


@dataclass(frozen=True, eq=False)
class Assignment:
    """A complete UE-to-{BS, cloud} association.

    ``grants`` holds one :class:`~repro.compute.cru.Grant` per edge-served
    UE; ``cloud_ue_ids`` lists the UEs whose tasks went to the remote
    cloud.  Together they must partition the UE population (checked by
    :meth:`validate`).

    The grants live in one of two forms: the ``Grant`` tuple (the
    constructor, :meth:`from_grants`) or one
    :class:`~repro.compute.cru.GrantColumns` (:meth:`of_columns`, as the
    SoA kernel hands them over).  The other form -- :meth:`columns`, or
    ``grants`` with its by-UE index -- is built at most once, on first
    use.  Whole-assignment consumers (validation, accounting, metrics)
    read :meth:`columns`.
    """

    grants: tuple[Grant, ...]
    cloud_ue_ids: frozenset[int]
    rounds: int = 0
    _columns: GrantColumns | None = field(init=False, repr=False)
    _by_ue: Mapping[int, Grant] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grants", tuple(self.grants))
        object.__setattr__(self, "cloud_ue_ids", frozenset(self.cloud_ue_ids))
        by_ue: dict[int, Grant] = {}
        for grant in self.grants:
            if grant.ue_id in by_ue:
                raise AllocationError(_duplicate_message(grant.ue_id))
            by_ue[grant.ue_id] = grant
        overlap = set(by_ue) & self.cloud_ue_ids
        if overlap:
            raise AllocationError(_overlap_message(overlap))
        object.__setattr__(self, "_by_ue", by_ue)
        object.__setattr__(self, "_columns", None)

    @classmethod
    def of_columns(
        cls,
        columns: GrantColumns,
        cloud_ue_ids: Iterable[int],
        rounds: int = 0,
    ) -> "Assignment":
        """An assignment whose grants are the rows of ``columns``, in row
        order; the Eq. 15 checks and their messages are the constructor's.
        """
        cloud_ue_ids = frozenset(cloud_ue_ids)
        ue_ids = columns.ue_ids
        order = np.argsort(ue_ids, kind="stable")
        repeats = order[1:][ue_ids[order[1:]] == ue_ids[order[:-1]]]
        if len(repeats):
            raise AllocationError(
                _duplicate_message(int(ue_ids[repeats.min()]))
            )
        cloud = np.fromiter(
            cloud_ue_ids, dtype=np.int64, count=len(cloud_ue_ids)
        )
        overlap = ue_ids[np.isin(ue_ids, cloud)]
        if len(overlap):
            raise AllocationError(_overlap_message(overlap.tolist()))
        assignment = object.__new__(cls)
        for name, value in (
            ("cloud_ue_ids", cloud_ue_ids),
            ("rounds", rounds),
            ("_columns", columns),
            ("_by_ue", None),
        ):
            object.__setattr__(assignment, name, value)
        return assignment

    def __getattr__(self, name: str):
        # Only ``grants`` can be missing: an assignment built from
        # columns materializes its Grant tuple on first use.
        if name != "grants" or self.__dict__.get("_columns") is None:
            raise AttributeError(name)
        grants = self._columns.grants()
        object.__setattr__(self, "grants", grants)
        return grants

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        if self.rounds != other.rounds:
            return False
        if self.cloud_ue_ids != other.cloud_ue_ids:
            return False
        if "grants" in self.__dict__ and "grants" in other.__dict__:
            return self.grants == other.grants
        mine, theirs = self.columns(), other.columns()
        return all(
            np.array_equal(getattr(mine, name), getattr(theirs, name))
            for name in ("bs_ids", "ue_ids", "service_ids", "crus", "rrbs")
        )

    __hash__ = None

    def columns(self) -> GrantColumns:
        """The grants as aligned int64 columns, in ``grants`` order."""
        if self._columns is None:
            object.__setattr__(self, "_columns", GrantColumns.of(self.grants))
        return self._columns

    @property
    def _grant_by_ue(self) -> Mapping[int, Grant]:
        if self._by_ue is None:
            object.__setattr__(
                self, "_by_ue", {grant.ue_id: grant for grant in self.grants}
            )
        return self._by_ue

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def edge_served_ue_ids(self) -> frozenset[int]:
        if self._by_ue is None:
            return frozenset(self._columns.ue_ids.tolist())
        return frozenset(self._by_ue)

    def serving_bs(self, ue_id: int) -> int | None:
        """The BS serving a UE, or ``None`` when cloud-forwarded/unknown."""
        grant = self._grant_by_ue.get(ue_id)
        return grant.bs_id if grant is not None else None

    def grant_of(self, ue_id: int) -> Grant | None:
        """The UE's grant, or ``None`` when it is not edge-served."""
        return self._grant_by_ue.get(ue_id)

    def grants_of_bs(self, bs_id: int) -> tuple[Grant, ...]:
        """All grants realized on one BS (the paper's ``U'_i``)."""
        return tuple(g for g in self.grants if g.bs_id == bs_id)

    @property
    def edge_served_count(self) -> int:
        return len(self._columns) if self._by_ue is None else len(self._by_ue)

    @property
    def cloud_count(self) -> int:
        return len(self.cloud_ue_ids)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, network: MECNetwork, radio_map: RadioMap) -> None:
        """Check the TPM constraints (Eqs. 12--15) and coverage of all UEs.

        Raises :class:`AllocationError` with a specific message on the
        first violation, in this order: UEs neither served nor forwarded;
        unknown UEs; the lowest-indexed failing grant, at its first
        failing check (known BS, requested service, Eq. 13 hosting,
        coverage, CRU demand, radio-map link, RRB demand); Eq. 12 per
        ``(BS, service)`` and then Eq. 14 per BS, each in order of first
        appearance among the grants.

        Every check is one whole-array pass over the grant columns, the
        network's :meth:`~MECNetwork.columns` and the radio map's
        columns; no per-grant entity or link lookup is made.
        """
        columns = network.columns()
        grants = self.columns()
        rows = columns.ue_rows(grants.ue_ids)
        cloud_ids = np.fromiter(
            self.cloud_ue_ids, dtype=np.int64, count=len(self.cloud_ue_ids)
        )
        cloud_rows = columns.ue_rows(cloud_ids)
        placed = np.zeros(network.ue_count, dtype=bool)
        placed[rows[rows >= 0]] = True
        placed[cloud_rows[cloud_rows >= 0]] = True
        if not placed.all():
            missing = np.sort(columns.ue_ids[~placed])[:10].tolist()
            raise AllocationError(
                f"UEs neither served nor forwarded: {missing}"
            )
        unknown = np.concatenate(
            (grants.ue_ids[rows < 0], cloud_ids[cloud_rows < 0])
        )
        if len(unknown):
            raise AllocationError(
                f"assignment references unknown UEs: "
                f"{np.sort(unknown)[:10].tolist()}"
            )
        if not len(grants):
            return
        cols, services = self._check_grants(
            network, radio_map, columns, grants, rows
        )
        self._check_capacities(columns, grants, cols, services)

    def _check_grants(
        self,
        network: MECNetwork,
        radio_map: RadioMap,
        columns: EntityColumns,
        grants: GrantColumns,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The per-grant checks; returns the grants' BS columns and
        service positions once every grant passed.

        Each check runs on the grants that passed all earlier ones, so a
        grant fails at its first failing check, and the lowest failing
        grant index is the one reported.
        """
        cols = columns.bs_cols(grants.bs_ids)
        services = columns.service_positions(grants.service_ids)
        expected_rrbs = np.zeros(len(grants), dtype=np.int64)
        alive = np.arange(len(grants))
        first: tuple[int, str] | None = None

        def narrow(ok: np.ndarray, check: str) -> None:
            nonlocal alive, first
            if not ok.all():
                index = int(alive[np.argmin(ok)])
                if first is None or index < first[0]:
                    first = (index, check)
                alive = alive[ok]

        narrow(cols[alive] >= 0, "bs")
        narrow(services[alive] == columns.ue_service[rows[alive]], "service")
        narrow(columns.bs_cru_capacity[cols[alive], services[alive]] > 0, "host")
        distances = network.pair_distances_m(rows[alive], cols[alive])
        narrow(distances <= network.coverage_radius_m, "cover")
        narrow(
            grants.crus[alive] == columns.ue_cru_demand[rows[alive]], "crus"
        )
        positions = _link_positions(
            columns, radio_map, rows[alive], cols[alive], network.bs_count
        )
        narrow(positions >= 0, "link")
        expected_rrbs[alive] = radio_map.rrb_demands[positions[positions >= 0]]
        narrow(grants.rrbs[alive] == expected_rrbs[alive], "rrbs")
        if first is not None:
            index, check = first
            raise AllocationError(
                _grant_violation(
                    network, self.grants[index], check, expected_rrbs[index]
                )
            )
        return cols, services

    def _check_capacities(
        self,
        columns: EntityColumns,
        grants: GrantColumns,
        cols: np.ndarray,
        services: np.ndarray,
    ) -> None:
        """Eq. 12 per (BS, service), then Eq. 14 per BS."""
        n_services = columns.bs_cru_capacity.shape[1]
        overflow = _first_overflow(
            cols * n_services + services,
            grants.crus,
            lambda pools: columns.bs_cru_capacity[
                pools // n_services, pools % n_services
            ],
        )
        if overflow is not None:
            index, used, capacity = overflow
            grant = self.grants[index]
            raise AllocationError(
                f"BS {grant.bs_id} service {grant.service_id}: {used} CRUs "
                f"used, capacity {capacity} (violates Eq. 12)"
            )
        overflow = _first_overflow(
            cols, grants.rrbs, lambda bss: columns.bs_rrb_capacity[bss]
        )
        if overflow is not None:
            index, used, capacity = overflow
            raise AllocationError(
                f"BS {self.grants[index].bs_id}: {used} RRBs used, "
                f"capacity {capacity} (violates Eq. 14)"
            )

    def association_pairs(self) -> tuple[tuple[int, int], ...]:
        """All ``(ue_id, bs_id)`` pairs with ``a_{u,i} = 1``."""
        return tuple((g.ue_id, g.bs_id) for g in self.grants)

    @staticmethod
    def from_grants(
        grants: Iterable[Grant],
        all_ue_ids: Iterable[int],
        rounds: int = 0,
    ) -> "Assignment":
        """Build an assignment, cloud-forwarding every unserved UE.

        The entry point for custom allocators: hand over the grants in
        any order (it becomes ``grants`` order) and every UE id.
        """
        grants = tuple(grants)
        served = {g.ue_id for g in grants}
        cloud = frozenset(set(all_ue_ids) - served)
        return Assignment(grants=grants, cloud_ue_ids=cloud, rounds=rounds)


def _duplicate_message(ue_id: int) -> str:
    return f"UE {ue_id} appears in multiple grants (violates Eq. 15)"


def _overlap_message(ue_ids: Iterable[int]) -> str:
    return f"UEs both edge-served and cloud-forwarded: {sorted(ue_ids)}"


def _link_positions(
    columns: EntityColumns,
    radio_map: RadioMap,
    rows: np.ndarray,
    cols: np.ndarray,
    n_bs: int,
) -> np.ndarray:
    """Radio-map column position of each ``(row, col)`` pair, ``-1`` if
    the map has no such link.

    The map's ``(ue, bs)`` columns become flat ``row * n_bs + col``
    keys, sorted once unless already in key order (as built maps are),
    and each pair is found by binary search.  Among duplicate links the
    last one wins, as in :meth:`RadioMap.link`.
    """
    map_rows = columns.ue_rows(radio_map.ue_ids)
    map_cols = columns.bs_cols(radio_map.bs_ids)
    keys = np.where(
        (map_rows >= 0) & (map_cols >= 0), map_rows * n_bs + map_cols, -1
    )
    order = None
    if not np.all(keys[1:] >= keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    wanted = rows * n_bs + cols
    # Probing in ascending key order keeps the searches cache-friendly.
    probe = np.argsort(wanted)
    positions = np.empty(len(wanted), dtype=np.int64)
    positions[probe] = np.searchsorted(keys, wanted[probe], side="right") - 1
    found = positions >= 0
    found[found] = keys[positions[found]] == wanted[found]
    if order is not None:
        positions = order[np.where(found, positions, 0)]
    return np.where(found, positions, -1)


def _first_overflow(keys, amounts, capacity_of):
    """The first-appearing group of equal ``keys`` whose ``amounts`` sum
    past ``capacity_of(group keys)``, as ``(index of its first grant,
    used, capacity)``; ``None`` when every group fits."""
    groups, first, group_of = np.unique(
        keys, return_index=True, return_inverse=True
    )
    used = np.zeros(len(groups), dtype=np.int64)
    np.add.at(used, group_of, amounts)
    capacity = capacity_of(groups)
    over = np.flatnonzero(used > capacity)
    if not len(over):
        return None
    group = over[np.argmin(first[over])]
    return int(first[group]), int(used[group]), int(capacity[group])


def _grant_violation(
    network: MECNetwork, grant: Grant, check: str, expected_rrbs: int
) -> str:
    """The message for ``grant`` failing ``check`` (see ``_check_grants``)."""
    if check == "bs":
        return f"UE {grant.ue_id} was granted unknown BS {grant.bs_id}"
    ue = network.user_equipment(grant.ue_id)
    bs = network.base_station(grant.bs_id)
    if check == "service":
        return (
            f"UE {ue.ue_id} requests service {ue.service_id} but was "
            f"granted service {grant.service_id}"
        )
    if check == "host":
        return (
            f"BS {bs.bs_id} does not host service {grant.service_id} "
            f"(violates Eq. 13)"
        )
    if check == "cover":
        return f"BS {bs.bs_id} does not cover UE {ue.ue_id}"
    if check == "crus":
        return (
            f"UE {ue.ue_id}: granted {grant.crus} CRUs, "
            f"demand is {ue.cru_demand}"
        )
    if check == "link":
        return (
            f"UE {ue.ue_id} on BS {bs.bs_id}: the radio map has no such link"
        )
    return (
        f"UE {ue.ue_id} on BS {bs.bs_id}: granted {grant.rrbs} "
        f"RRBs, link requires {int(expected_rrbs)}"
    )
