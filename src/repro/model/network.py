"""The immutable network container shared by all allocators.

:class:`MECNetwork` bundles SPs, base stations, user equipments, and the
service catalog, and precomputes the geometry every allocator needs:
the coverage pairs (UE--BS pairs within the coverage radius, with their
distances) and the per-UE candidate BS sets ``B_u`` (BSs that cover the
UE *and* host its requested service — Alg. 1, line 1 of the paper).
Both are found with one :class:`~repro.model.geometry.SpatialGrid`
query over the BS positions (cells of half the coverage radius, each
listing the BSs a UE in it could reach) and kept as CSR arrays (rows
grouped by UE, BS columns ascending), so memory is O(pairs), never
O(UE x BS).  When every covering BS hosts the UE's service (the paper's
full hosting), the candidate arrays are the coverage arrays.

The container itself never mutates during an allocation run; allocators
keep their own resource ledgers.

The UE side can be given as objects or as
:class:`~repro.model.entities.UEColumns`.  Either way validation, the
id index and the geometry read columns only; a network built from
columns makes :class:`~repro.model.entities.UserEquipment` objects on
demand — all of them on the first read of ``user_equipments``, or just
the ones a scalar lookup returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UEColumns,
    UserEquipment,
)
from repro.model.geometry import Point, Rectangle, SpatialGrid

__all__ = ["BSColumns", "EntityColumns", "MECNetwork"]

#: The fields that depend on the deployment only, never on the UEs: a
#: network over other UEs on the same deployment shares them.
_BS_SIDE = (
    "providers",
    "base_stations",
    "services",
    "region",
    "coverage_radius_m",
    "_sp_by_id",
    "_bs_by_id",
    "_service_by_id",
    "_bs_col",
    "_hosting",
    "_bs_id_array",
    "_bs_columns",
    "_grid",
)

#: BS grid cells per coverage radius.  Finer cells fit each cell's
#: candidate list closer to the discs of the UEs in it: at 100k UEs and
#: 2,500 BSs the query tests 1.47M candidates for 849,400 pairs with
#: cells of half the radius, against 2.17M with cells of the radius.
_GRID_CELLS_PER_RADIUS = 2


class _MaterializedUEs:
    """``MECNetwork.user_equipments`` of a network built from columns.

    A non-data descriptor: the constructor stores an object tuple in the
    instance, which then shadows this; a network built from columns has
    none, so the first read makes every object once (keeping any a
    scalar lookup already made) and stores the tuple.
    """

    def __get__(self, network, owner=None):
        if network is None:
            # No class-level value, so the dataclass field has no default.
            raise AttributeError("user_equipments")
        ues = network._ue_columns.materialize()
        made = network._ue_by_id
        for ue_id, ue in made.items():
            ues[network._row_of(ue_id)] = ue
        ues = tuple(ues)
        made.update((ue.ue_id, ue) for ue in ues)
        object.__setattr__(network, "user_equipments", ues)
        return ues


@dataclass(frozen=True)
class MECNetwork:
    """Immutable snapshot of a multi-SP MEC deployment.

    Build it directly from entity lists or via
    :func:`repro.sim.scenario.build_scenario` for paper-style scenarios.

    Parameters
    ----------
    providers, base_stations, user_equipments, services:
        The entity populations.  Ids must be unique per entity type.
        ``user_equipments`` may also be a
        :class:`~repro.model.entities.UEColumns`; the attribute then
        holds the equal tuple of objects, built on first access.
    region:
        The deployment region (used for reporting only).
    coverage_radius_m:
        Maximum UE--BS distance at which a BS is considered reachable.
        The paper assumes dense multi-coverage but states no radius; the
        default of 500 m (see DESIGN.md §3) produces it for the paper's
        layouts.

    Every distance the network reports is the float64 ``np.hypot`` of
    the two positions' coordinate differences — what
    :func:`~repro.model.geometry.pairwise_distances_m` computes — so
    coverage and candidate sets are exactly the dense filter
    ``distance <= coverage_radius_m`` (parity-tested).
    """

    providers: Sequence[ServiceProvider]
    base_stations: Sequence[BaseStation]
    user_equipments: Sequence[UserEquipment] | UEColumns = _MaterializedUEs()
    services: Sequence[Service]
    region: Rectangle
    coverage_radius_m: float = 500.0
    _sp_by_id: Mapping[int, ServiceProvider] = field(init=False, repr=False)
    _bs_by_id: Mapping[int, BaseStation] = field(init=False, repr=False)
    # Every UE object of an object-built network; for a network built
    # from columns, the ones scalar lookups have made so far.
    _ue_by_id: dict[int, UserEquipment] = field(init=False, repr=False)
    _service_by_id: Mapping[int, Service] = field(init=False, repr=False)
    _bs_col: Mapping[int, int] = field(init=False, repr=False)
    # z_{i,j} as an (n_services, n_bs) boolean matrix in ``services``
    # order: row ``j`` is the hosting half of B_u for a UE of service j.
    _hosting: np.ndarray = field(init=False, repr=False)
    _bs_id_array: np.ndarray = field(init=False, repr=False)
    _grid: SpatialGrid = field(init=False, repr=False)
    # Each UE row's SP and service position in ``providers`` /
    # ``services`` (see :func:`_ue_positions`).
    _ue_sp: np.ndarray = field(init=False, repr=False)
    _ue_service: np.ndarray = field(init=False, repr=False)
    # Coverage and candidate pairs as CSR (see :func:`_pair_csr`).
    _cov_indptr: np.ndarray = field(init=False, repr=False)
    _cov_cols: np.ndarray = field(init=False, repr=False)
    _cov_dists: np.ndarray = field(init=False, repr=False)
    _cand_indptr: np.ndarray = field(init=False, repr=False)
    _cand_cols: np.ndarray = field(init=False, repr=False)
    _cand_dists: np.ndarray = field(init=False, repr=False)
    # Built on first use: the UE columns of an object-built clone
    # (:meth:`ue_columns`), the UE id -> row index (:meth:`_row_of`),
    # and :meth:`columns` / :meth:`bs_columns`.  The class-level
    # defaults also cover clones assembled with ``object.__new__``,
    # which then build their own on first use unless the clone copies
    # them from a network with the same UE or BS side.
    _ue_columns: UEColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _ue_row: dict[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _columns: "EntityColumns | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _bs_columns: "BSColumns | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ues = self.user_equipments
        if isinstance(ues, UEColumns):
            # What constructing the objects would have refused first.
            ues.check()
            # ``user_equipments`` is then built on first access
            # (``_MaterializedUEs``).
            object.__delattr__(self, "user_equipments")
            object.__setattr__(self, "_ue_by_id", {})
        else:
            ues = tuple(ues)
            object.__setattr__(self, "user_equipments", ues)
            object.__setattr__(
                self, "_ue_by_id", {ue.ue_id: ue for ue in ues}
            )
            ues = UEColumns.of(ues)
        object.__setattr__(self, "_ue_columns", ues)
        if self.coverage_radius_m <= 0:
            raise ConfigurationError(
                f"coverage_radius_m must be > 0, got {self.coverage_radius_m}"
            )
        object.__setattr__(self, "providers", tuple(self.providers))
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        object.__setattr__(self, "services", tuple(self.services))

        sp_by_id = _index_unique("SP", [(sp.sp_id, sp) for sp in self.providers])
        bs_by_id = _index_unique("BS", [(bs.bs_id, bs) for bs in self.base_stations])
        service_by_id = _index_unique(
            "service", [(s.service_id, s) for s in self.services]
        )
        object.__setattr__(self, "_sp_by_id", sp_by_id)
        object.__setattr__(self, "_bs_by_id", bs_by_id)
        object.__setattr__(self, "_service_by_id", service_by_id)

        for bs in self.base_stations:
            if bs.sp_id not in sp_by_id:
                raise ConfigurationError(
                    f"BS {bs.bs_id} references unknown SP {bs.sp_id}"
                )
            for service_id in bs.cru_capacity:
                if service_id not in service_by_id:
                    raise ConfigurationError(
                        f"BS {bs.bs_id} hosts unknown service {service_id}"
                    )
        bs_id_array = np.array(
            [bs.bs_id for bs in self.base_stations], dtype=np.int64
        )
        object.__setattr__(self, "_bs_id_array", bs_id_array)
        bs_side = self.bs_columns()
        ue_sp, ue_service = _ue_positions(bs_side, ues)
        _refuse_non_finite("BS", bs_side.bs_ids, bs_side.bs_xy)
        object.__setattr__(self, "_ue_sp", ue_sp)
        object.__setattr__(self, "_ue_service", ue_service)

        bs_col = {bs.bs_id: col for col, bs in enumerate(self.base_stations)}
        object.__setattr__(self, "_bs_col", bs_col)
        hosting = np.ascontiguousarray(bs_side.bs_cru_capacity.T > 0)
        object.__setattr__(self, "_hosting", hosting)
        grid = SpatialGrid(
            bs_side.bs_xy,
            cell_size_m=self.coverage_radius_m / _GRID_CELLS_PER_RADIUS,
        )
        object.__setattr__(self, "_grid", grid)
        for name, value in _pair_csr(
            grid, ues.xy, self.coverage_radius_m, hosting, ue_service
        ).items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def provider(self, sp_id: int) -> ServiceProvider:
        """Return the SP with id ``sp_id``."""
        return _get(self._sp_by_id, sp_id, "SP")

    def base_station(self, bs_id: int) -> BaseStation:
        """Return the BS with id ``bs_id``."""
        return _get(self._bs_by_id, bs_id, "BS")

    def user_equipment(self, ue_id: int) -> UserEquipment:
        """Return the UE with id ``ue_id`` (building only that object
        when the network was built from columns)."""
        ue = self._ue_by_id.get(ue_id)
        if ue is None:
            # Only a network built from columns misses a known id.
            (ue,) = self.ue_columns().materialize([self._row_of(ue_id)])
            self._ue_by_id[ue.ue_id] = ue
        return ue

    def service(self, service_id: int) -> Service:
        """Return the service with id ``service_id``."""
        return _get(self._service_by_id, service_id, "service")

    def provider_of_ue(self, ue_id: int) -> ServiceProvider:
        """The SP the UE subscribes to."""
        return self.provider(self._ue_sp_id(ue_id))

    def base_stations_of_sp(self, sp_id: int) -> tuple[BaseStation, ...]:
        """All BSs deployed by SP ``sp_id``."""
        self.provider(sp_id)  # validate the id
        return tuple(bs for bs in self.base_stations if bs.sp_id == sp_id)

    def user_equipments_of_sp(self, sp_id: int) -> tuple[UserEquipment, ...]:
        """All UEs subscribing to SP ``sp_id``."""
        self.provider(sp_id)  # validate the id
        columns = self.ue_columns()
        return tuple(
            self.user_equipment(ue_id)
            for ue_id in columns.ue_ids[columns.sp_ids == sp_id].tolist()
        )

    # ------------------------------------------------------------------
    # Geometry and coverage
    # ------------------------------------------------------------------

    def distance_m(self, ue_id: int, bs_id: int) -> float:
        """UE--BS distance ``d_{i,u}`` in meters.

        An in-coverage pair returns its stored distance; any other pair
        is computed with the same float64 ``np.hypot``.
        """
        try:
            row = self._ue_rows()[ue_id]
            col = self._bs_col[bs_id]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown entity id {exc.args[0]}") from None
        lo, hi = self._cov_indptr[row:row + 2].tolist()
        # A row holds a handful of columns: a list scan beats a search.
        try:
            return float(
                self._cov_dists[lo + self._cov_cols[lo:hi].tolist().index(col)]
            )
        except ValueError:  # out of coverage
            pass
        ue_x, ue_y = self.ue_columns().xy[row].tolist()
        bs_pos = self.base_stations[col].position
        return float(np.hypot(ue_x - bs_pos.x, ue_y - bs_pos.y))

    def pair_distances_m(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """:meth:`distance_m` of many pairs at once, by row and column.

        ``rows`` index ``user_equipments`` and ``cols`` index
        ``base_stations`` (see :meth:`EntityColumns.ue_rows` and
        :meth:`EntityColumns.bs_cols`).  Each value is recomputed from
        the position columns with the float64 ``np.hypot`` every
        distance here comes from, so it is bit-identical to
        :meth:`distance_m` of the same pair, in or out of coverage.
        """
        ue_xy = self.ue_columns().xy[rows]
        bs_xy = self.bs_columns().bs_xy[cols]
        return np.hypot(ue_xy[:, 0] - bs_xy[:, 0], ue_xy[:, 1] - bs_xy[:, 1])

    def ue_columns(self) -> UEColumns:
        """The UE population as columns, row for row with
        ``user_equipments``: the constructor's, or extracted from the
        objects in one pass on first use."""
        columns = self._ue_columns
        if columns is None:
            columns = UEColumns.of(self.user_equipments)
            object.__setattr__(self, "_ue_columns", columns)
        return columns

    def columns(self) -> "EntityColumns":
        """The per-entity attribute arrays, built on first use and cached.

        Their BS half is :meth:`bs_columns`, shared rather than rebuilt.
        """
        columns = self._columns
        if columns is None:
            columns = EntityColumns.of(self)
            object.__setattr__(self, "_columns", columns)
        return columns

    def bs_columns(self) -> "BSColumns":
        """The BS-side attribute arrays, built on first use and cached.

        Building them never touches the UE population, so a consumer
        that needs only BS fields does not pay for :meth:`columns`.
        """
        bs_columns = self._bs_columns
        if bs_columns is None:
            bs_columns = BSColumns.of(self)
            object.__setattr__(self, "_bs_columns", bs_columns)
        return bs_columns

    def covers(self, bs_id: int, ue_id: int) -> bool:
        """Whether the BS is within coverage radius of the UE."""
        return self.distance_m(ue_id, bs_id) <= self.coverage_radius_m

    def covering_base_stations(self, ue_id: int) -> tuple[int, ...]:
        """Ids of all BSs within coverage radius of the UE (any service),
        in deployment (column) order."""
        row = self._row_of(ue_id)
        lo, hi = self._cov_indptr[row:row + 2].tolist()
        return tuple(self._bs_id_array[self._cov_cols[lo:hi]].tolist())

    def candidate_base_stations(self, ue_id: int) -> tuple[int, ...]:
        """The paper's ``B_u``: BSs covering the UE that host its service,
        in deployment (column) order."""
        row = self._row_of(ue_id)
        lo, hi = self._cand_indptr[row:row + 2].tolist()
        return tuple(self._bs_id_array[self._cand_cols[lo:hi]].tolist())

    def candidate_pairs(
        self, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate links as flat ``(rows, cols, dists)`` arrays.

        ``rows`` index ``user_equipments`` and ``cols`` index
        ``base_stations``; ``dists`` are the float64 UE--BS distances.
        Pairs are grouped by UE row and BS-ascending within a row —
        the row-major order of ``np.nonzero`` over a UE x BS candidate
        mask.  Given ascending ``rows``, only those UEs' pairs are
        returned, in the same order; ``None`` means every UE.  This is
        the input of the vectorized radio-map builder.
        """
        indptr = self._cand_indptr
        if rows is None:
            counts = np.diff(indptr)
            rows = np.arange(self.ue_count, dtype=np.intp)
            return np.repeat(rows, counts), self._cand_cols, self._cand_dists
        rows = np.asarray(rows, dtype=np.intp)
        counts, pos = _run_positions(indptr, rows)
        return np.repeat(rows, counts), self._cand_cols[pos], self._cand_dists[pos]

    def row_of_ue(self, ue_id: int) -> int:
        """Row of a UE: its position in ``user_equipments``."""
        return self._row_of(ue_id)

    def col_of_bs(self, bs_id: int) -> int:
        """Column of a BS: its position in ``base_stations``."""
        try:
            return self._bs_col[bs_id]
        except KeyError:
            raise UnknownEntityError(f"unknown BS id {bs_id}") from None

    def with_moved_ues(
        self, new_positions: Mapping[int, Point]
    ) -> "MECNetwork":
        """A copy of this network with the given UEs repositioned.

        The incremental mobility path: only the moved UEs are queried
        against the BS spatial grid, and their coverage and candidate
        rows are spliced into copies of the CSR arrays; every id index,
        the BS population and its grid are shared with ``self``.  The
        result equals a :class:`MECNetwork` built from scratch with the
        new positions, pair for pair and bit for bit.
        """
        if not new_positions:
            return self
        rows = [self._row_of(ue_id) for ue_id in new_positions]  # validates
        moved_xy = np.array(
            [position.as_tuple() for position in new_positions.values()],
            dtype=float,
        )
        _refuse_non_finite("UE", list(new_positions), moved_xy)
        clone = object.__new__(MECNetwork)
        for name in (*_BS_SIDE, "_ue_row", "_ue_sp", "_ue_service"):
            object.__setattr__(clone, name, getattr(self, name))
        # Copy the objects made so far and replace only the movers'; a
        # network built from columns that made none stays lazy.
        ue_by_id = dict(self._ue_by_id)
        ues = vars(self).get("user_equipments")
        if ues is not None:
            ues = list(ues)
            for row, (ue_id, position) in zip(rows, new_positions.items()):
                ues[row] = ue_by_id[ue_id] = replace(ues[row], position=position)
            object.__setattr__(clone, "user_equipments", tuple(ues))
        else:
            for ue_id in new_positions:
                # Made again from the moved columns on demand.
                ue_by_id.pop(ue_id, None)
        object.__setattr__(clone, "_ue_by_id", ue_by_id)
        ue_columns = self.ue_columns()
        xy = ue_columns.xy.copy()
        xy[rows] = moved_xy
        object.__setattr__(clone, "_ue_columns", replace(ue_columns, xy=xy))

        row_index = np.array(sorted(rows), dtype=np.intp)
        fresh = _pair_csr(
            self._grid, xy[row_index], self.coverage_radius_m,
            self._hosting, self._ue_service[row_index],
        )
        stored = {name: getattr(self, name) for name in fresh}
        for name, value in _splice_rows(stored, row_index, fresh).items():
            object.__setattr__(clone, name, value)
        return clone

    def same_sp(self, ue_id: int, bs_id: int) -> bool:
        """Whether the UE and the BS belong to the same SP."""
        return self._ue_sp_id(ue_id) == self.base_station(bs_id).sp_id

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    @property
    def ue_count(self) -> int:
        return len(self.ue_columns())

    @property
    def bs_count(self) -> int:
        return len(self.base_stations)

    @property
    def sp_count(self) -> int:
        return len(self.providers)

    @property
    def service_count(self) -> int:
        return len(self.services)

    def mean_coverage_degree(self) -> float:
        """Average number of candidate BSs per UE (the paper's ``f_u``)."""
        if not self.ue_count:
            return 0.0
        return float(np.mean(np.diff(self._cand_indptr)))

    def estimated_geometry_bytes(self) -> int:
        """Approximate bytes held by the coverage and candidate arrays.

        The scenario cache uses this (plus the radio map's column sizes)
        to bound its memory footprint; see
        :func:`repro.sim.scenario.build_scenario_cached`.  Candidate
        arrays shared with the coverage ones count once.
        """
        arrays = (
            self._cov_indptr, self._cov_cols, self._cov_dists,
            self._cand_indptr, self._cand_cols, self._cand_dists,
        )
        return int(sum({id(arr): arr.nbytes for arr in arrays}.values()))

    def describe(self) -> str:
        """Human-readable one-paragraph summary of the deployment."""
        return (
            f"MECNetwork: {self.sp_count} SPs, {self.bs_count} BSs, "
            f"{self.ue_count} UEs, {self.service_count} services, "
            f"region {self.region.width:.0f} m x {self.region.height:.0f} m, "
            f"coverage radius {self.coverage_radius_m:.0f} m, "
            f"mean coverage degree {self.mean_coverage_degree():.2f}"
        )

    def _row_of(self, ue_id: int) -> int:
        try:
            return self._ue_rows()[ue_id]
        except KeyError:
            raise UnknownEntityError(f"unknown UE id {ue_id}") from None

    def _ue_rows(self) -> dict[int, int]:
        """The UE id -> row index, built on the first scalar lookup."""
        rows = self._ue_row
        if rows is None:
            ue_ids = self.ue_columns().ue_ids.tolist()
            rows = dict(zip(ue_ids, range(len(ue_ids))))
            object.__setattr__(self, "_ue_row", rows)
        return rows

    def _ue_sp_id(self, ue_id: int) -> int:
        ue = self._ue_by_id.get(ue_id)
        if ue is not None:
            return ue.sp_id
        return int(self.ue_columns().sp_ids[self._row_of(ue_id)])


class _IdIndex:
    """Vectorized ``id -> position`` lookup over one column of unique ids."""

    __slots__ = ("_sorted", "_order", "_first")

    def __init__(self, ids: np.ndarray) -> None:
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]
        n = len(ids)
        # One contiguous run of ids (the usual 0..n-1 numbering) maps by
        # subtraction; anything else takes a binary search.
        contiguous = n > 0 and int(self._sorted[-1] - self._sorted[0]) == n - 1
        self._first = int(self._sorted[0]) if contiguous else None

    def positions(self, ids) -> np.ndarray:
        """Position of each id in the indexed column, ``-1`` if unknown."""
        ids = np.asarray(ids, dtype=np.int64)
        n = len(self._sorted)
        if n == 0:
            return np.full(len(ids), -1, dtype=np.int64)
        if self._first is not None:
            pos = ids - self._first
            known = (pos >= 0) & (pos < n)
        else:
            pos = np.minimum(np.searchsorted(self._sorted, ids), n - 1)
            known = self._sorted[pos] == ids
        return np.where(known, self._order[np.where(known, pos, 0)], -1)


@dataclass(frozen=True, eq=False)
class BSColumns:
    """A network's BS-side attributes as aligned NumPy arrays.

    BS arrays follow ``base_stations`` (columns); SP fields hold
    *positions* in ``providers``, not ids.  Get them from
    :meth:`MECNetwork.bs_columns`; networks that share a BS side (the
    stream's batch networks and their template) share one instance.
    """

    bs_ids: np.ndarray
    bs_sp: np.ndarray
    #: ``(n_bs, 2)`` float positions.
    bs_xy: np.ndarray
    bs_rrb_capacity: np.ndarray
    #: ``(n_bs, n_services)`` CRU capacities ``c_{i,j}``; 0 = not hosted.
    bs_cru_capacity: np.ndarray
    #: Service ids in ``services`` order (what the positions point at).
    service_ids: np.ndarray
    _sp_index: _IdIndex
    _bs_index: _IdIndex
    _service_index: _IdIndex

    @classmethod
    def of(cls, network: MECNetwork) -> "BSColumns":
        """Extract the BS-side columns of ``network`` (one pass over its
        BSs; the UE population is not read)."""
        bss = network.base_stations
        sp_index = _IdIndex(
            np.array([sp.sp_id for sp in network.providers], dtype=np.int64)
        )
        service_ids = [s.service_id for s in network.services]
        service_pos = {service_id: j for j, service_id in enumerate(service_ids)}
        service_id_array = np.array(service_ids, dtype=np.int64)
        cru_capacity = np.zeros((len(bss), len(service_ids)), dtype=np.int64)
        for col, bs in enumerate(bss):
            for service_id, crus in bs.cru_capacity.items():
                cru_capacity[col, service_pos[service_id]] = crus
        return cls(
            bs_ids=network._bs_id_array,
            bs_sp=sp_index.positions([bs.sp_id for bs in bss]),
            bs_xy=np.array(
                [bs.position.as_tuple() for bs in bss], dtype=float
            ).reshape(-1, 2),
            bs_rrb_capacity=np.array(
                [bs.rrb_capacity for bs in bss], dtype=np.int64
            ),
            bs_cru_capacity=cru_capacity,
            service_ids=service_id_array,
            _sp_index=sp_index,
            _bs_index=_IdIndex(network._bs_id_array),
            _service_index=_IdIndex(service_id_array),
        )

    def bs_cols(self, bs_ids) -> np.ndarray:
        """Column of each BS id, ``-1`` for ids not in the network."""
        return self._bs_index.positions(bs_ids)

    def service_positions(self, service_ids) -> np.ndarray:
        """Position of each service id in ``services``, ``-1`` if unknown."""
        return self._service_index.positions(service_ids)


@dataclass(frozen=True, eq=False)
class EntityColumns(BSColumns):
    """A network's per-entity attributes as aligned NumPy arrays.

    The BS half is the network's :class:`BSColumns` (the same array
    objects); UE arrays follow ``user_equipments`` (the network's
    rows), with SP and service fields holding *positions* in
    ``providers`` / ``services``, not ids.  Whole-assignment consumers
    (validation, profit accounting, outcome metrics) read these instead
    of looking entities up one id at a time; get them from
    :meth:`MECNetwork.columns`.
    """

    ue_ids: np.ndarray
    ue_service: np.ndarray
    ue_sp: np.ndarray
    ue_cru_demand: np.ndarray
    ue_rate_demand_bps: np.ndarray
    _ue_index: _IdIndex

    @classmethod
    def of(cls, network: MECNetwork) -> "EntityColumns":
        """Extract the columns of ``network`` from its
        :meth:`MECNetwork.ue_columns` and cached
        :meth:`MECNetwork.bs_columns`."""
        bs_side = network.bs_columns()
        ues = network.ue_columns()
        return cls(
            **{f.name: getattr(bs_side, f.name) for f in fields(BSColumns)},
            ue_ids=ues.ue_ids,
            ue_service=network._ue_service,
            ue_sp=network._ue_sp,
            ue_cru_demand=ues.cru_demand,
            ue_rate_demand_bps=ues.rate_demand_bps,
            _ue_index=_IdIndex(ues.ue_ids),
        )

    def ue_rows(self, ue_ids) -> np.ndarray:
        """Row of each UE id, ``-1`` for ids not in the network."""
        return self._ue_index.positions(ue_ids)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only (the network is semantically immutable)."""
    if array.base is None and array.flags.owndata:
        array.setflags(write=False)
    return array


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of the given per-row pair counts."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return _frozen(indptr)


def _pair_csr(
    grid: SpatialGrid,
    ue_xy: np.ndarray,
    radius_m: float,
    hosting: np.ndarray,
    ue_service: np.ndarray,
) -> dict[str, np.ndarray]:
    """The coverage and candidate CSR of the UEs at ``ue_xy``.

    One :meth:`~repro.model.geometry.SpatialGrid.query_radius` call
    finds the coverage pairs, already grouped by UE row with BS columns
    ascending; the candidate pairs are those whose BS hosts the UE's
    service (``hosting[ue_service[row], col]``).  Returns the six
    ``MECNetwork`` fields ``_{cov,cand}_{indptr,cols,dists}``, one row
    per UE; when every coverage pair is a candidate, the candidate
    fields are the coverage arrays themselves.
    """
    rows, cols, dists = grid.query_radius(ue_xy, radius_m)
    n_ue = len(ue_xy)
    csr = {
        "_cov_indptr": _indptr(np.bincount(rows, minlength=n_ue)),
        "_cov_cols": _frozen(cols),
        "_cov_dists": _frozen(dists),
    }
    # Full hosting (every BS hosts every service) needs no pair test.
    keep = None if hosting.all() else hosting[ue_service[rows], cols]
    if keep is None or keep.all():
        cand = (csr["_cov_indptr"], cols, dists)
    else:
        cand = (
            _indptr(np.bincount(rows[keep], minlength=n_ue)),
            _frozen(cols[keep]),
            _frozen(dists[keep]),
        )
    csr.update(zip(("_cand_indptr", "_cand_cols", "_cand_dists"), cand))
    return csr


def _run_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``rows``' pair count in the CSR ``indptr``, and the
    positions of those pairs: each row's run, concatenated in ``rows``
    order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    positions = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - counts), counts
    )
    return counts, positions


def _splice(
    old: Sequence,
    new: Sequence,
    indptr: np.ndarray,
    rows: np.ndarray,
    fresh_indptr: np.ndarray,
) -> list:
    """The pieces of ``old`` (one entry per pair of the CSR ``indptr``)
    with the runs of its ascending ``rows`` replaced by ``new`` (the
    entries of just those rows, CSR ``fresh_indptr``): the old pairs
    before the first of ``rows``, then each row's new pairs and the old
    ones up to the next.  Their concatenation is the spliced column.
    """
    old_starts = [0, *indptr[rows + 1].tolist()]
    old_stops = [*indptr[rows].tolist(), int(indptr[-1])]
    cuts = fresh_indptr.tolist()
    pieces = [old[:old_stops[0]]]
    for i in range(len(rows)):
        pieces.append(new[cuts[i]:cuts[i + 1]])
        pieces.append(old[old_starts[i + 1]:old_stops[i + 1]])
    return pieces


def _splice_rows(
    csr: Mapping[str, np.ndarray],
    rows: np.ndarray,
    fresh: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """The :func:`_pair_csr` fields ``csr`` with their ascending ``rows``
    replaced by ``fresh``, the fields of just those rows in that order
    (see :func:`_splice`).  When every spliced coverage pair is a
    candidate, the candidate fields are the coverage ones, as
    :func:`_pair_csr` makes them.
    """
    spliced = {}
    for kind in ("_cov", "_cand"):
        indptr, fresh_indptr = csr[kind + "_indptr"], fresh[kind + "_indptr"]
        counts = np.diff(indptr)
        counts[rows] = np.diff(fresh_indptr)
        if kind == "_cand" and counts.sum() == len(spliced["_cov_cols"]):
            for part in ("_indptr", "_cols", "_dists"):
                spliced["_cand" + part] = spliced["_cov" + part]
            break
        spliced[kind + "_indptr"] = _indptr(counts)
        for part in ("_cols", "_dists"):
            spliced[kind + part] = _frozen(np.concatenate(_splice(
                csr[kind + part], fresh[kind + part],
                indptr, rows, fresh_indptr,
            )))
    return spliced


def _ue_positions(
    bs_side: BSColumns, ues: UEColumns
) -> tuple[np.ndarray, np.ndarray]:
    """Each UE row's SP and service position in ``bs_side``.

    Raises the network's :class:`ConfigurationError` for the first
    duplicate UE id, then for the first UE of an unknown SP or service,
    then for the first UE at a non-finite position.
    """
    repeat = _first_repeat(ues.ue_ids)
    if repeat is not None:
        raise ConfigurationError(f"duplicate UE id {ues.ue_ids[repeat]}")
    ue_sp = bs_side._sp_index.positions(ues.sp_ids)
    ue_service = bs_side.service_positions(ues.service_ids)
    unknown = (ue_sp < 0) | (ue_service < 0)
    if unknown.any():
        row = int(np.argmax(unknown))
        ue_id = ues.ue_ids[row]
        if ue_sp[row] < 0:
            raise ConfigurationError(
                f"UE {ue_id} references unknown SP {ues.sp_ids[row]}"
            )
        raise ConfigurationError(
            f"UE {ue_id} requests unknown service {ues.service_ids[row]}"
        )
    _refuse_non_finite("UE", ues.ue_ids, ues.xy)
    return ue_sp, ue_service


def _refuse_non_finite(kind: str, ids, xy: np.ndarray) -> None:
    """Raise :class:`ConfigurationError` for the first of ``ids`` whose
    ``(x, y)`` row of ``xy`` holds a NaN or an infinity.

    Such an entity would pair with nothing in the coverage query: a UE
    would go to the cloud and a BS would cover nobody, silently.
    """
    finite = np.isfinite(xy)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ConfigurationError(
            f"{kind} {ids[row]} has a non-finite position "
            f"({xy[row, 0]}, {xy[row, 1]})"
        )


def _first_repeat(ids: np.ndarray) -> int | None:
    """Index of the first id equal to an earlier one, or ``None``."""
    if len(ids) < 2 or np.all(ids[1:] > ids[:-1]):
        return None
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
    return int(repeats.min()) if len(repeats) else None


def _index_unique(kind: str, pairs: Iterable[tuple[int, object]]) -> dict:
    index: dict = {}
    for key, value in pairs:
        if key in index:
            raise ConfigurationError(f"duplicate {kind} id {key}")
        index[key] = value
    return index


def _get(mapping: Mapping, key: int, kind: str):
    try:
        return mapping[key]
    except KeyError:
        raise UnknownEntityError(f"unknown {kind} id {key}") from None
