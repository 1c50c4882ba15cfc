"""Resource ledgers for a base station's computing and radio capacity.

A :class:`BSLedger` tracks one BS's remaining CRUs per service (Eq. 1 /
constraint 12) and remaining RRBs (constraint 14) during an allocation
run.  Grants are transactional: :meth:`BSLedger.grant` either reserves
both resources atomically or raises, leaving the ledger untouched; a
grant can be released (e.g. when a matching round evicts a tentatively
accepted UE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import CapacityError, ConfigurationError, UnknownEntityError
from repro.model.entities import BaseStation

__all__ = ["Grant", "GrantColumns", "BSLedger", "LedgerPool"]


@dataclass(frozen=True, slots=True)
class Grant:
    """A successful reservation of CRUs and RRBs on one BS for one UE."""

    bs_id: int
    ue_id: int
    service_id: int
    crus: int
    rrbs: int


@dataclass(frozen=True, eq=False)
class GrantColumns:
    """The fields of a grant sequence as aligned int64 arrays.

    Row ``g`` of every array belongs to the ``g``-th grant, so whole-array
    passes over the columns keep the grant order that per-grant loops
    (and their error reporting) follow.
    """

    bs_ids: np.ndarray
    ue_ids: np.ndarray
    service_ids: np.ndarray
    crus: np.ndarray
    rrbs: np.ndarray

    @classmethod
    def of(cls, grants: Iterable[Grant]) -> "GrantColumns":
        """Extract the columns of ``grants``, in grant order."""
        grants = tuple(grants)
        return cls(
            bs_ids=np.array([g.bs_id for g in grants], dtype=np.int64),
            ue_ids=np.array([g.ue_id for g in grants], dtype=np.int64),
            service_ids=np.array([g.service_id for g in grants], dtype=np.int64),
            crus=np.array([g.crus for g in grants], dtype=np.int64),
            rrbs=np.array([g.rrbs for g in grants], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.ue_ids)


class BSLedger:
    """Mutable remaining-capacity tracker for one base station."""

    def __init__(self, base_station: BaseStation) -> None:
        self._bs = base_station
        self._remaining_crus: dict[int, int] = dict(base_station.cru_capacity)
        self._remaining_rrbs: int = base_station.rrb_capacity
        self._grants: dict[int, Grant] = {}

    @property
    def bs_id(self) -> int:
        return self._bs.bs_id

    @property
    def remaining_rrbs(self) -> int:
        """RRBs still available (``N_i`` minus committed ``n_{u,i}``)."""
        return self._remaining_rrbs

    def remaining_crus(self, service_id: int) -> int:
        """CRUs still available for ``service_id`` (0 if not hosted)."""
        return self._remaining_crus.get(service_id, 0)

    def remaining_crus_by_service(self) -> dict[int, int]:
        """Remaining CRUs for every hosted service (a snapshot copy)."""
        return dict(self._remaining_crus)

    @property
    def grants(self) -> Mapping[int, Grant]:
        """Currently held grants, keyed by UE id."""
        return dict(self._grants)

    @property
    def served_ue_ids(self) -> frozenset[int]:
        """The paper's ``U'_i`` for this BS."""
        return frozenset(self._grants)

    def can_grant(self, ue_id: int, service_id: int, crus: int, rrbs: int) -> bool:
        """Whether :meth:`grant` with these arguments would succeed."""
        if ue_id in self._grants:
            return False
        if crus <= 0 or rrbs <= 0:
            return False
        return (
            self.remaining_crus(service_id) >= crus
            and self._remaining_rrbs >= rrbs
        )

    def grant(self, ue_id: int, service_id: int, crus: int, rrbs: int) -> Grant:
        """Atomically reserve ``crus`` CRUs of the service plus ``rrbs`` RRBs.

        Raises :class:`CapacityError` when either resource is short, and
        :class:`ConfigurationError` on nonsensical amounts or double grants.
        The ledger is unchanged on failure.
        """
        if crus <= 0:
            raise ConfigurationError(f"crus must be > 0, got {crus}")
        if rrbs <= 0:
            raise ConfigurationError(f"rrbs must be > 0, got {rrbs}")
        if ue_id in self._grants:
            raise ConfigurationError(
                f"UE {ue_id} already holds a grant on BS {self.bs_id}"
            )
        available_crus = self.remaining_crus(service_id)
        if available_crus < crus:
            raise CapacityError(
                f"BS {self.bs_id}: service {service_id} has {available_crus} "
                f"CRUs left, {crus} requested"
            )
        if self._remaining_rrbs < rrbs:
            raise CapacityError(
                f"BS {self.bs_id}: {self._remaining_rrbs} RRBs left, "
                f"{rrbs} requested"
            )
        self._remaining_crus[service_id] = available_crus - crus
        self._remaining_rrbs -= rrbs
        grant = Grant(
            bs_id=self.bs_id,
            ue_id=ue_id,
            service_id=service_id,
            crus=crus,
            rrbs=rrbs,
        )
        self._grants[ue_id] = grant
        return grant

    def release(self, ue_id: int) -> Grant:
        """Return a UE's grant to the pool (eviction during matching)."""
        grant = self._grants.pop(ue_id, None)
        if grant is None:
            raise UnknownEntityError(
                f"UE {ue_id} holds no grant on BS {self.bs_id}"
            )
        self._remaining_crus[grant.service_id] = (
            self._remaining_crus.get(grant.service_id, 0) + grant.crus
        )
        self._remaining_rrbs += grant.rrbs
        return grant

    def utilization(self) -> tuple[float, float]:
        """(CRU utilization, RRB utilization) as fractions in [0, 1]."""
        total_crus = self._bs.total_cru_capacity
        used_crus = sum(g.crus for g in self._grants.values())
        cru_util = used_crus / total_crus if total_crus else 0.0
        used_rrbs = self._bs.rrb_capacity - self._remaining_rrbs
        rrb_util = used_rrbs / self._bs.rrb_capacity
        return (cru_util, rrb_util)

    def check_invariants(self) -> None:
        """Assert internal consistency; raises :class:`CapacityError` if broken.

        Used by property tests: remaining + granted must equal capacity for
        every resource, and nothing may be negative.
        """
        if self._remaining_rrbs < 0:
            raise CapacityError(f"BS {self.bs_id}: negative remaining RRBs")
        granted_rrbs = sum(g.rrbs for g in self._grants.values())
        if granted_rrbs + self._remaining_rrbs != self._bs.rrb_capacity:
            raise CapacityError(f"BS {self.bs_id}: RRB conservation violated")
        granted_by_service: dict[int, int] = {}
        for grant in self._grants.values():
            granted_by_service[grant.service_id] = (
                granted_by_service.get(grant.service_id, 0) + grant.crus
            )
        for service_id, capacity in self._bs.cru_capacity.items():
            remaining = self._remaining_crus.get(service_id, 0)
            granted = granted_by_service.get(service_id, 0)
            if remaining < 0:
                raise CapacityError(
                    f"BS {self.bs_id}: negative CRUs for service {service_id}"
                )
            if remaining + granted != capacity:
                raise CapacityError(
                    f"BS {self.bs_id}: CRU conservation violated "
                    f"for service {service_id}"
                )


class LedgerPool:
    """One :class:`BSLedger` per base station of a network."""

    def __init__(self, base_stations) -> None:
        self._ledgers = {bs.bs_id: BSLedger(bs) for bs in base_stations}

    def ledger(self, bs_id: int) -> BSLedger:
        """The ledger of one base station."""
        try:
            return self._ledgers[bs_id]
        except KeyError:
            raise UnknownEntityError(f"unknown BS id {bs_id}") from None

    def __iter__(self):
        return iter(self._ledgers.values())

    def __len__(self) -> int:
        return len(self._ledgers)

    def all_grants(self) -> list[Grant]:
        """Every grant currently held across all BSs."""
        return [g for ledger in self for g in ledger.grants.values()]

    def check_invariants(self) -> None:
        """Run :meth:`BSLedger.check_invariants` on every ledger."""
        for ledger in self:
            ledger.check_invariants()
