"""Domain entities: services, SPs, base stations, and user equipments.

These are deliberately *passive* data records.  Mutable allocation state
(remaining CRUs / RRBs during a matching run) lives in the ledgers under
:mod:`repro.compute` and :mod:`repro.core.state`, so a single immutable
network can be shared by many concurrent simulation runs.

:class:`UEColumns` holds a UE population as aligned arrays instead of
objects; the static path draws, validates and indexes UEs in that form
and builds :class:`UserEquipment` objects only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.model.geometry import Point

__all__ = [
    "Service", "ServiceProvider", "BaseStation", "UserEquipment", "UEColumns",
]


@dataclass(frozen=True, slots=True)
class Service:
    """One MEC service (paper: element of the service set ``S``)."""

    service_id: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.service_id < 0:
            raise ConfigurationError(f"service_id must be >= 0, got {self.service_id}")


@dataclass(frozen=True, slots=True)
class ServiceProvider:
    """A service provider (paper: element of the SP set ``varsigma``).

    ``cru_price`` is the price ``m_k`` the SP charges its subscribers per
    CRU, and ``other_cost`` is the per-CRU overhead ``m_k^o``.  Both are
    constants in the paper (Eqs. 6 and 8).
    """

    sp_id: int
    name: str = ""
    cru_price: float = 10.0
    other_cost: float = 0.5

    def __post_init__(self) -> None:
        if self.sp_id < 0:
            raise ConfigurationError(f"sp_id must be >= 0, got {self.sp_id}")
        if self.cru_price <= 0:
            raise ConfigurationError(f"cru_price must be > 0, got {self.cru_price}")
        if self.other_cost < 0:
            raise ConfigurationError(f"other_cost must be >= 0, got {self.other_cost}")

    @property
    def margin_ceiling(self) -> float:
        """Maximum BS price this SP can pay and stay profitable (Eq. 16)."""
        return self.cru_price - self.other_cost


@dataclass(frozen=True, slots=True)
class BaseStation:
    """A base station with a co-located MEC server.

    Attributes
    ----------
    bs_id:
        Unique identifier within the network.
    sp_id:
        The SP that deployed this BS.
    position:
        Planar location in meters.
    cru_capacity:
        Mapping ``service_id -> c_{i,j}``, the CRUs this BS dedicates to
        each hosted service.  A service absent from the mapping is not
        hosted (``z_{i,j} = 0``).
    rrb_capacity:
        ``N_i``, the number of uplink RRBs the BS can allocate.
    uplink_bandwidth_hz:
        ``W_i``; informational (``N_i`` is derived from it at build time).
    """

    bs_id: int
    sp_id: int
    position: Point
    cru_capacity: Mapping[int, int] = field(default_factory=dict)
    rrb_capacity: int = 55
    uplink_bandwidth_hz: float = 10e6

    def __post_init__(self) -> None:
        if self.bs_id < 0:
            raise ConfigurationError(f"bs_id must be >= 0, got {self.bs_id}")
        if self.rrb_capacity <= 0:
            raise ConfigurationError(
                f"rrb_capacity must be > 0, got {self.rrb_capacity}"
            )
        for service_id, crus in self.cru_capacity.items():
            if crus < 0:
                raise ConfigurationError(
                    f"BS {self.bs_id}: negative CRU capacity {crus} "
                    f"for service {service_id}"
                )

    def hosts_service(self, service_id: int) -> bool:
        """Whether ``z_{i,j} = 1`` for this BS and service ``j``."""
        return self.cru_capacity.get(service_id, 0) > 0

    @property
    def hosted_services(self) -> frozenset[int]:
        """Ids of services with a positive CRU allotment (``S_i``)."""
        return frozenset(
            sid for sid, crus in self.cru_capacity.items() if crus > 0
        )

    @property
    def total_cru_capacity(self) -> int:
        """Sum of ``c_{i,j}`` over hosted services."""
        return sum(self.cru_capacity.values())


@dataclass(frozen=True, slots=True)
class UserEquipment:
    """A user equipment with one offloadable computing task.

    Attributes
    ----------
    ue_id:
        Unique identifier within the network.
    sp_id:
        The SP this UE subscribes to.
    position:
        Planar location in meters.
    service_id:
        The single service the UE requests (``J_{u,j} = 1``).
    cru_demand:
        ``c_j^u``, CRUs needed to process the offloaded task.
    rate_demand_bps:
        ``w_u``, required uplink data rate in bits/s.
    tx_power_dbm:
        Uplink transmit power.
    """

    ue_id: int
    sp_id: int
    position: Point
    service_id: int
    cru_demand: int
    rate_demand_bps: float
    tx_power_dbm: float = 10.0

    def __post_init__(self) -> None:
        if self.ue_id < 0:
            raise ConfigurationError(f"ue_id must be >= 0, got {self.ue_id}")
        if self.cru_demand <= 0:
            raise ConfigurationError(
                f"UE {self.ue_id}: cru_demand must be > 0, got {self.cru_demand}"
            )
        if not self.rate_demand_bps > 0:
            raise ConfigurationError(
                f"UE {self.ue_id}: rate_demand_bps must be > 0, "
                f"got {self.rate_demand_bps}"
            )


@dataclass(frozen=True, eq=False)
class UEColumns:
    """A UE population as aligned arrays: row ``r`` is one UE.

    The columnar form of a :class:`UserEquipment` sequence, field for
    field, with positions as one float ``(n, 2)`` array ``xy``.  Ids are
    *ids* here (not positions in some other sequence).  Arrays are
    coerced to int64 / float64 and made read-only on construction (a
    writable array passed in is copied first, so no caller keeps a
    handle that could change them); :meth:`check` applies
    :class:`UserEquipment`'s own validation to every row at once.
    """

    ue_ids: np.ndarray
    sp_ids: np.ndarray
    xy: np.ndarray
    service_ids: np.ndarray
    cru_demand: np.ndarray
    rate_demand_bps: np.ndarray
    tx_power_dbm: np.ndarray

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        coerce(self, "ue_ids", _owned(self.ue_ids, np.int64))
        coerce(self, "sp_ids", _owned(self.sp_ids, np.int64))
        coerce(self, "xy", _owned(self.xy, float).reshape(-1, 2))
        coerce(self, "service_ids", _owned(self.service_ids, np.int64))
        coerce(self, "cru_demand", _owned(self.cru_demand, np.int64))
        coerce(self, "rate_demand_bps", _owned(self.rate_demand_bps, float))
        coerce(self, "tx_power_dbm", _owned(self.tx_power_dbm, float))
        if not (
            len(self.ue_ids) == len(self.sp_ids) == len(self.xy)
            == len(self.service_ids) == len(self.cru_demand)
            == len(self.rate_demand_bps) == len(self.tx_power_dbm)
        ):
            raise ConfigurationError("UE columns must have equal lengths")

    @classmethod
    def of(cls, ues: Iterable[UserEquipment]) -> "UEColumns":
        """Extract the columns of ``ues`` in one pass."""
        rows = [
            (ue.ue_id, ue.sp_id, ue.position.x, ue.position.y, ue.service_id,
             ue.cru_demand, ue.rate_demand_bps, ue.tx_power_dbm)
            for ue in ues
        ]
        ids, sps, xs, ys, services, crus, rates, powers = (
            zip(*rows) if rows else ((),) * 8
        )
        xy = np.array((xs, ys), dtype=float).T
        return cls(ids, sps, xy, services, crus, rates, powers)

    def __len__(self) -> int:
        return len(self.ue_ids)

    def check(self) -> None:
        """Raise :class:`UserEquipment`'s error for the first invalid row.

        The same exception and message constructing the rows' objects
        in order would raise; rows that are all valid pass silently.
        """
        bad = (
            (self.ue_ids < 0)
            | (self.cru_demand <= 0)
            | ~(self.rate_demand_bps > 0)
        )
        if bad.any():
            self.materialize([int(np.argmax(bad))])

    def materialize(
        self, rows: Sequence[int] | None = None
    ) -> list[UserEquipment]:
        """The :class:`UserEquipment` objects of ``rows`` (default: all),
        with the field values a per-UE build would give them."""
        if rows is None:
            rows = slice(None)
        xy = self.xy[rows]
        return list(map(
            UserEquipment,
            self.ue_ids[rows].tolist(),
            self.sp_ids[rows].tolist(),
            map(Point, xy[:, 0].tolist(), xy[:, 1].tolist()),
            self.service_ids[rows].tolist(),
            self.cru_demand[rows].tolist(),
            self.rate_demand_bps[rows].tolist(),
            self.tx_power_dbm[rows].tolist(),
        ))


def _owned(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array no caller can write to.

    A conversion makes a new array; ``np.asarray`` hands back an array
    of the right dtype as is, so a writable one (or a writable view of
    other memory) is copied.  A read-only array is shared.
    """
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable and (array is values or not array.flags.owndata):
        array = array.copy()
    array.setflags(write=False)
    return array
