"""The immutable network container shared by all allocators.

:class:`MECNetwork` bundles SPs, base stations, user equipments, and the
service catalog, and precomputes the geometry every allocator needs:
UE--BS distances, coverage sets, and the per-UE candidate BS sets
``B_u`` (BSs that cover the UE *and* host its requested service —
Alg. 1, line 1 of the paper).

The container itself never mutates during an allocation run; allocators
keep their own resource ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.entities import BaseStation, Service, ServiceProvider, UserEquipment
from repro.model.geometry import (
    Point,
    Rectangle,
    SpatialGrid,
    pairwise_distances_m,
)

__all__ = ["EntityColumns", "MECNetwork"]

#: ``auto`` geometry keeps the dense UE x BS distance matrix up to this
#: many cells (~32 MB of float64) and switches to the sparse spatial
#: grid beyond it, where the dense build would dominate memory.
_DENSE_CELL_LIMIT = 4_000_000


@dataclass(frozen=True)
class MECNetwork:
    """Immutable snapshot of a multi-SP MEC deployment.

    Build it directly from entity lists or via
    :func:`repro.sim.scenario.build_scenario` for paper-style scenarios.

    Parameters
    ----------
    providers, base_stations, user_equipments, services:
        The entity populations.  Ids must be unique per entity type.
    region:
        The deployment region (used for reporting only).
    coverage_radius_m:
        Maximum UE--BS distance at which a BS is considered reachable.
        The paper assumes dense multi-coverage but states no radius; the
        default of 500 m (see DESIGN.md §3) produces it for the paper's
        layouts.
    geometry:
        ``"dense"`` precomputes the full UE x BS distance matrix and
        candidate mask (the historical behavior), ``"grid"`` indexes BSs
        in a :class:`~repro.model.geometry.SpatialGrid` and stores only
        the in-coverage pairs (memory O(pairs) instead of O(UE x BS)),
        and ``"auto"`` (the default) picks dense up to
        ``_DENSE_CELL_LIMIT`` cells and grid beyond.  Both modes expose
        identical values — the grid mode computes the same float64
        distances for every surviving pair (parity-tested).
    """

    providers: Sequence[ServiceProvider]
    base_stations: Sequence[BaseStation]
    user_equipments: Sequence[UserEquipment]
    services: Sequence[Service]
    region: Rectangle
    coverage_radius_m: float = 500.0
    geometry: str = "auto"
    _sp_by_id: Mapping[int, ServiceProvider] = field(init=False, repr=False)
    _bs_by_id: Mapping[int, BaseStation] = field(init=False, repr=False)
    _ue_by_id: Mapping[int, UserEquipment] = field(init=False, repr=False)
    _service_by_id: Mapping[int, Service] = field(init=False, repr=False)
    _geometry_mode: str = field(init=False, repr=False)
    _distances: np.ndarray | None = field(init=False, repr=False)
    _ue_row: Mapping[int, int] = field(init=False, repr=False)
    _bs_col: Mapping[int, int] = field(init=False, repr=False)
    _candidates: Mapping[int, tuple[int, ...]] | None = field(
        init=False, repr=False
    )
    _candidate_mask: np.ndarray | None = field(init=False, repr=False)
    _hosts_by_service: Mapping[int, np.ndarray] = field(init=False, repr=False)
    _bs_id_array: np.ndarray = field(init=False, repr=False)
    _grid: SpatialGrid | None = field(init=False, repr=False)
    _cov_indptr: np.ndarray | None = field(init=False, repr=False)
    _cov_cols: np.ndarray | None = field(init=False, repr=False)
    _cov_dists: np.ndarray | None = field(init=False, repr=False)
    _cand_indptr: np.ndarray | None = field(init=False, repr=False)
    _cand_cols: np.ndarray | None = field(init=False, repr=False)
    _cand_dists: np.ndarray | None = field(init=False, repr=False)
    # Built on first use by :meth:`columns`.  The class-level default
    # also covers clones assembled with ``object.__new__``, which then
    # build their own columns on first use.
    _columns: "EntityColumns | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.coverage_radius_m <= 0:
            raise ConfigurationError(
                f"coverage_radius_m must be > 0, got {self.coverage_radius_m}"
            )
        object.__setattr__(self, "providers", tuple(self.providers))
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        object.__setattr__(self, "user_equipments", tuple(self.user_equipments))
        object.__setattr__(self, "services", tuple(self.services))

        sp_by_id = _index_unique("SP", [(sp.sp_id, sp) for sp in self.providers])
        bs_by_id = _index_unique("BS", [(bs.bs_id, bs) for bs in self.base_stations])
        ue_by_id = _index_unique(
            "UE", [(ue.ue_id, ue) for ue in self.user_equipments]
        )
        service_by_id = _index_unique(
            "service", [(s.service_id, s) for s in self.services]
        )
        object.__setattr__(self, "_sp_by_id", sp_by_id)
        object.__setattr__(self, "_bs_by_id", bs_by_id)
        object.__setattr__(self, "_ue_by_id", ue_by_id)
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
        for ue in self.user_equipments:
            if ue.sp_id not in sp_by_id:
                raise ConfigurationError(
                    f"UE {ue.ue_id} references unknown SP {ue.sp_id}"
                )
            if ue.service_id not in service_by_id:
                raise ConfigurationError(
                    f"UE {ue.ue_id} requests unknown service {ue.service_id}"
                )

        if self.geometry not in ("auto", "dense", "grid"):
            raise ConfigurationError(
                f"geometry must be 'auto', 'dense', or 'grid', "
                f"got {self.geometry!r}"
            )
        mode = self.geometry
        if mode == "auto":
            cells = len(self.user_equipments) * len(self.base_stations)
            mode = "dense" if cells <= _DENSE_CELL_LIMIT else "grid"
        object.__setattr__(self, "_geometry_mode", mode)

        ue_row = {ue.ue_id: row for row, ue in enumerate(self.user_equipments)}
        bs_col = {bs.bs_id: col for col, bs in enumerate(self.base_stations)}
        object.__setattr__(self, "_ue_row", ue_row)
        object.__setattr__(self, "_bs_col", bs_col)

        hosts_by_service = {
            service.service_id: np.array(
                [bs.hosts_service(service.service_id) for bs in self.base_stations],
                dtype=bool,
            )
            for service in self.services
        }
        bs_id_array = np.array(
            [bs.bs_id for bs in self.base_stations], dtype=np.int64
        )
        object.__setattr__(self, "_hosts_by_service", hosts_by_service)
        object.__setattr__(self, "_bs_id_array", bs_id_array)

        if mode == "dense":
            self._init_dense_geometry(ue_row, hosts_by_service, bs_id_array)
        else:
            self._init_grid_geometry(hosts_by_service)

    def _init_dense_geometry(
        self,
        ue_row: Mapping[int, int],
        hosts_by_service: Mapping[int, np.ndarray],
        bs_id_array: np.ndarray,
    ) -> None:
        """Precompute the full distance matrix and candidate mask."""
        distances = pairwise_distances_m(
            [ue.position for ue in self.user_equipments],
            [bs.position for bs in self.base_stations],
        )
        object.__setattr__(self, "_distances", distances)

        # Candidate sets B_u, computed as one (n_ue, n_bs) boolean mask:
        # coverage (distance <= radius) AND hosting (z_{i,j} = 1 for the
        # UE's service).  Hosting columns are shared per service, so the
        # whole mask costs one fancy-index plus one logical AND.
        coverage = distances <= self.coverage_radius_m
        if self.user_equipments:
            hosting = np.stack(
                [hosts_by_service[ue.service_id] for ue in self.user_equipments]
            )
            mask = coverage & hosting
        else:
            mask = np.zeros_like(coverage, dtype=bool)
        candidates: dict[int, tuple[int, ...]] = {
            ue.ue_id: tuple(bs_id_array[mask[ue_row[ue.ue_id]]].tolist())
            for ue in self.user_equipments
        }
        mask.setflags(write=False)
        object.__setattr__(self, "_candidates", candidates)
        object.__setattr__(self, "_candidate_mask", mask)
        for name in (
            "_grid", "_cov_indptr", "_cov_cols", "_cov_dists",
            "_cand_indptr", "_cand_cols", "_cand_dists",
        ):
            object.__setattr__(self, name, None)

    def _init_grid_geometry(
        self, hosts_by_service: Mapping[int, np.ndarray]
    ) -> None:
        """Index BSs in a spatial grid; store only in-coverage pairs.

        Coverage and candidate pairs are kept as CSR-style flat arrays
        (``indptr`` per UE row, columns ascending within a row), which
        is exactly the ``np.nonzero`` row-major order of the dense mask
        — so :meth:`candidate_pairs` is bit-identical across modes.
        """
        n_ue = len(self.user_equipments)
        bs_xy = np.asarray(
            [bs.position.as_tuple() for bs in self.base_stations],
            dtype=float,
        ).reshape(-1, 2)
        ue_xy = np.asarray(
            [ue.position.as_tuple() for ue in self.user_equipments],
            dtype=float,
        ).reshape(-1, 2)
        grid = SpatialGrid(bs_xy, cell_size_m=self.coverage_radius_m)
        rows, cols, dists = grid.query_radius(ue_xy, self.coverage_radius_m)
        cov_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=n_ue)))
        ).astype(np.int64)

        if len(rows) and self.services:
            service_index = {
                service.service_id: i
                for i, service in enumerate(self.services)
            }
            hosting_matrix = np.stack(
                [hosts_by_service[s.service_id] for s in self.services]
            )
            ue_service_idx = np.array(
                [service_index[ue.service_id] for ue in self.user_equipments],
                dtype=np.intp,
            )
            keep = hosting_matrix[ue_service_idx[rows], cols]
        else:
            keep = np.zeros(len(rows), dtype=bool)
        cand_rows = rows[keep]
        cand_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cand_rows, minlength=n_ue)))
        ).astype(np.int64)

        for name, value in (
            ("_grid", grid),
            ("_cov_indptr", cov_indptr),
            ("_cov_cols", _frozen(cols)),
            ("_cov_dists", _frozen(dists)),
            ("_cand_indptr", cand_indptr),
            ("_cand_cols", _frozen(cols[keep])),
            ("_cand_dists", _frozen(dists[keep])),
            ("_distances", None),
            ("_candidate_mask", None),
            ("_candidates", None),
        ):
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
        """Return the UE with id ``ue_id``."""
        return _get(self._ue_by_id, ue_id, "UE")

    def service(self, service_id: int) -> Service:
        """Return the service with id ``service_id``."""
        return _get(self._service_by_id, service_id, "service")

    def provider_of_ue(self, ue_id: int) -> ServiceProvider:
        """The SP the UE subscribes to."""
        return self.provider(self.user_equipment(ue_id).sp_id)

    def base_stations_of_sp(self, sp_id: int) -> tuple[BaseStation, ...]:
        """All BSs deployed by SP ``sp_id``."""
        self.provider(sp_id)  # validate the id
        return tuple(bs for bs in self.base_stations if bs.sp_id == sp_id)

    def user_equipments_of_sp(self, sp_id: int) -> tuple[UserEquipment, ...]:
        """All UEs subscribing to SP ``sp_id``."""
        self.provider(sp_id)  # validate the id
        return tuple(ue for ue in self.user_equipments if ue.sp_id == sp_id)

    # ------------------------------------------------------------------
    # Geometry and coverage
    # ------------------------------------------------------------------

    def distance_m(self, ue_id: int, bs_id: int) -> float:
        """UE--BS distance ``d_{i,u}`` in meters."""
        try:
            row = self._ue_row[ue_id]
            col = self._bs_col[bs_id]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown entity id {exc.args[0]}") from None
        if self._geometry_mode == "dense":
            return float(self._distances[row, col])
        # Grid mode: in-coverage pairs return the stored query distance
        # (bit-identical to the dense matrix entry); out-of-coverage
        # pairs are recomputed with the same float64 hypot.
        lo, hi = self._cov_indptr[row], self._cov_indptr[row + 1]
        pos = lo + int(np.searchsorted(self._cov_cols[lo:hi], col))
        if pos < hi and self._cov_cols[pos] == col:
            return float(self._cov_dists[pos])
        ue_pos = self.user_equipments[row].position
        bs_pos = self.base_stations[col].position
        return float(np.hypot(ue_pos.x - bs_pos.x, ue_pos.y - bs_pos.y))

    def pair_distances_m(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """:meth:`distance_m` of many pairs at once, by row and column.

        ``rows`` index ``user_equipments`` and ``cols`` index
        ``base_stations`` (see :meth:`EntityColumns.ue_rows` and
        :meth:`EntityColumns.bs_cols`).  Each value is bit-identical to
        :meth:`distance_m` of the same pair in either geometry mode:
        dense mode reads the matrix; grid mode reads the stored coverage
        distance and recomputes out-of-coverage pairs with the same
        float64 hypot.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self._geometry_mode == "dense":
            return self._distances[rows, cols]
        n_bs = self.bs_count
        cov_rows = np.repeat(
            np.arange(self.ue_count, dtype=np.int64), np.diff(self._cov_indptr)
        )
        # Coverage pairs are sorted by (row, col), so their flat keys are
        # ascending and one searchsorted finds every stored pair.
        cov_keys = cov_rows * n_bs + self._cov_cols
        keys = rows * n_bs + cols
        # Probing in ascending key order keeps the searches cache-friendly.
        probe = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.int64)
        pos[probe] = np.searchsorted(cov_keys, keys[probe])
        stored = pos < len(cov_keys)
        stored[stored] = cov_keys[pos[stored]] == keys[stored]
        distances = np.empty(len(keys), dtype=float)
        distances[stored] = self._cov_dists[pos[stored]]
        outside = ~stored
        ue_xy = np.array(
            [self.user_equipments[row].position.as_tuple()
             for row in rows[outside].tolist()],
            dtype=float,
        ).reshape(-1, 2)
        bs_xy = np.array(
            [self.base_stations[col].position.as_tuple()
             for col in cols[outside].tolist()],
            dtype=float,
        ).reshape(-1, 2)
        distances[outside] = np.hypot(
            ue_xy[:, 0] - bs_xy[:, 0], ue_xy[:, 1] - bs_xy[:, 1]
        )
        return distances

    def columns(self) -> "EntityColumns":
        """The per-entity attribute arrays, built on first use and cached."""
        columns = self._columns
        if columns is None:
            columns = EntityColumns.of(self)
            object.__setattr__(self, "_columns", columns)
        return columns

    def distance_matrix_m(self) -> np.ndarray:
        """Copy of the full ``(n_ue, n_bs)`` distance matrix in meters.

        In grid geometry mode the dense matrix is not stored; this
        materializes it on demand (O(UE x BS) time and memory) purely as
        a compatibility shim — batched consumers should prefer
        :meth:`candidate_pairs`.
        """
        if self._geometry_mode == "dense":
            return self._distances.copy()
        return pairwise_distances_m(
            [ue.position for ue in self.user_equipments],
            [bs.position for bs in self.base_stations],
        )

    def covers(self, bs_id: int, ue_id: int) -> bool:
        """Whether the BS is within coverage radius of the UE."""
        return self.distance_m(ue_id, bs_id) <= self.coverage_radius_m

    def covering_base_stations(self, ue_id: int) -> tuple[int, ...]:
        """Ids of all BSs within coverage radius of the UE (any service).

        Grid mode answers from the spatial index's coverage pairs; dense
        mode scans the precomputed distance row.  Both return BS ids in
        deployment (column) order.
        """
        row = self._row_of(ue_id)
        if self._geometry_mode == "grid":
            lo, hi = self._cov_indptr[row], self._cov_indptr[row + 1]
            return tuple(self._bs_id_array[self._cov_cols[lo:hi]].tolist())
        within = self._distances[row] <= self.coverage_radius_m
        return tuple(self._bs_id_array[within].tolist())

    def candidate_base_stations(self, ue_id: int) -> tuple[int, ...]:
        """The paper's ``B_u``: BSs covering the UE that host its service."""
        if self._geometry_mode == "grid":
            row = self._row_of(ue_id)
            lo, hi = self._cand_indptr[row], self._cand_indptr[row + 1]
            return tuple(self._bs_id_array[self._cand_cols[lo:hi]].tolist())
        try:
            return self._candidates[ue_id]
        except KeyError:
            raise UnknownEntityError(f"unknown UE id {ue_id}") from None

    def candidate_mask(self) -> np.ndarray:
        """Read-only ``(n_ue, n_bs)`` boolean candidate mask.

        Row/column order follows ``user_equipments`` / ``base_stations``;
        ``mask[row, col]`` is True exactly when the BS is in the UE's
        ``B_u``.  This is the batched counterpart of
        :meth:`candidate_base_stations`, consumed by the vectorized
        radio-map builder.  Grid mode materializes the mask on demand
        (O(UE x BS) memory) — batched consumers should prefer
        :meth:`candidate_pairs`.
        """
        if self._geometry_mode == "dense":
            return self._candidate_mask
        mask = np.zeros((self.ue_count, self.bs_count), dtype=bool)
        rows, cols, _ = self.candidate_pairs()
        mask[rows, cols] = True
        mask.setflags(write=False)
        return mask

    def candidate_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All candidate links as flat ``(rows, cols, dists)`` arrays.

        Pairs are sorted lexicographically by ``(row, col)`` — the
        row-major order of ``np.nonzero(candidate_mask())`` — with
        ``dists`` the float64 UE--BS distances.  Identical values in
        both geometry modes; this is the sparse-friendly input of the
        vectorized radio-map builder.
        """
        if self._geometry_mode == "grid":
            counts = np.diff(self._cand_indptr)
            rows = np.repeat(
                np.arange(self.ue_count, dtype=np.intp), counts
            )
            return rows, self._cand_cols, self._cand_dists
        rows, cols = np.nonzero(self._candidate_mask)
        return rows, cols, self._distances[rows, cols]

    def row_of_ue(self, ue_id: int) -> int:
        """Row index of a UE in the distance matrix / candidate mask."""
        return self._row_of(ue_id)

    def col_of_bs(self, bs_id: int) -> int:
        """Column index of a BS in the distance matrix / candidate mask."""
        try:
            return self._bs_col[bs_id]
        except KeyError:
            raise UnknownEntityError(f"unknown BS id {bs_id}") from None

    def with_moved_ues(
        self,
        new_positions: Mapping[int, Point],
        rebuild_fraction: float = 0.5,
    ) -> "MECNetwork":
        """A copy of this network with the given UEs repositioned.

        The incremental mobility path: only the moved UEs' distance rows
        and candidate sets are recomputed (batched); every id index, the
        BS population, and unmoved rows are shared with ``self``.  The
        recomputed rows use the same float64 operations as full
        construction, so the result is value-identical to rebuilding
        :class:`MECNetwork` from scratch with the new positions.

        When at least ``rebuild_fraction`` of the population moved,
        per-row patching cannot beat the fully batched constructor
        (copying + fancy-indexing the large arrays costs more than
        recomputing them), so the call falls back to it — same values,
        different route.
        """
        if not new_positions:
            return self
        rows = []
        for ue_id in new_positions:
            rows.append(self._row_of(ue_id))  # validates the id
        moved_ues = tuple(
            replace(ue, position=new_positions[ue.ue_id])
            if ue.ue_id in new_positions
            else ue
            for ue in self.user_equipments
        )
        if (
            self._geometry_mode == "grid"
            or len(new_positions) > rebuild_fraction * self.ue_count
        ):
            # Most of the population moved (e.g. a random walk) or the
            # network has no dense rows to patch: the fully batched
            # constructor beats (or replaces) per-row patching.
            return MECNetwork(
                providers=self.providers,
                base_stations=self.base_stations,
                user_equipments=moved_ues,
                services=self.services,
                region=self.region,
                coverage_radius_m=self.coverage_radius_m,
                geometry=self.geometry,
            )

        clone = object.__new__(MECNetwork)
        for name in (
            "providers",
            "base_stations",
            "services",
            "region",
            "coverage_radius_m",
            "geometry",
            "_geometry_mode",
            "_sp_by_id",
            "_bs_by_id",
            "_service_by_id",
            "_ue_row",
            "_bs_col",
            "_hosts_by_service",
            "_bs_id_array",
            "_grid",
            "_cov_indptr",
            "_cov_cols",
            "_cov_dists",
            "_cand_indptr",
            "_cand_cols",
            "_cand_dists",
        ):
            object.__setattr__(clone, name, getattr(self, name))
        object.__setattr__(clone, "user_equipments", moved_ues)
        object.__setattr__(
            clone, "_ue_by_id", {ue.ue_id: ue for ue in moved_ues}
        )

        row_index = np.array(sorted(rows), dtype=np.intp)
        distances = self._distances.copy()
        distances[row_index] = pairwise_distances_m(
            [moved_ues[row].position for row in row_index],
            [bs.position for bs in self.base_stations],
        )
        distances.setflags(write=False)
        object.__setattr__(clone, "_distances", distances)

        mask = self._candidate_mask.copy()
        coverage = distances[row_index] <= self.coverage_radius_m
        hosting = np.stack(
            [
                self._hosts_by_service[moved_ues[row].service_id]
                for row in row_index
            ]
        )
        mask[row_index] = coverage & hosting
        mask.setflags(write=False)
        candidates = dict(self._candidates)
        for row in row_index:
            ue = moved_ues[row]
            candidates[ue.ue_id] = tuple(
                self._bs_id_array[mask[row]].tolist()
            )
        object.__setattr__(clone, "_candidate_mask", mask)
        object.__setattr__(clone, "_candidates", candidates)
        return clone

    def same_sp(self, ue_id: int, bs_id: int) -> bool:
        """Whether the UE and the BS belong to the same SP."""
        return self.user_equipment(ue_id).sp_id == self.base_station(bs_id).sp_id

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    @property
    def ue_count(self) -> int:
        return len(self.user_equipments)

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
        if not self.user_equipments:
            return 0.0
        if self._geometry_mode == "grid":
            return float(np.mean(np.diff(self._cand_indptr)))
        return float(
            np.mean([len(self._candidates[ue.ue_id]) for ue in self.user_equipments])
        )

    def estimated_geometry_bytes(self) -> int:
        """Approximate bytes held by the precomputed geometry arrays.

        The scenario cache uses this (plus the radio map's column sizes)
        to bound its memory footprint; see
        :func:`repro.sim.scenario.build_scenario_cached`.
        """
        if self._geometry_mode == "dense":
            return int(
                self._distances.nbytes + self._candidate_mask.nbytes
            )
        return int(
            sum(
                arr.nbytes
                for arr in (
                    self._cov_indptr, self._cov_cols, self._cov_dists,
                    self._cand_indptr, self._cand_cols, self._cand_dists,
                )
            )
        )

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
            return self._ue_row[ue_id]
        except KeyError:
            raise UnknownEntityError(f"unknown UE id {ue_id}") from None


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
class EntityColumns:
    """A network's per-entity attributes as aligned NumPy arrays.

    UE arrays follow ``user_equipments`` (distance-matrix rows) and BS
    arrays follow ``base_stations`` (columns).  SP and service fields
    hold *positions* in ``providers`` / ``services``, not ids.
    Whole-assignment consumers (validation, profit accounting, outcome
    metrics) read these instead of looking entities up one id at a
    time; get them from :meth:`MECNetwork.columns`.
    """

    ue_ids: np.ndarray
    ue_service: np.ndarray
    ue_sp: np.ndarray
    ue_cru_demand: np.ndarray
    ue_rate_demand_bps: np.ndarray
    bs_sp: np.ndarray
    bs_rrb_capacity: np.ndarray
    #: ``(n_bs, n_services)`` CRU capacities ``c_{i,j}``; 0 = not hosted.
    bs_cru_capacity: np.ndarray
    _ue_index: _IdIndex
    _bs_index: _IdIndex
    _service_index: _IdIndex

    @classmethod
    def of(cls, network: MECNetwork) -> "EntityColumns":
        """Extract the columns of ``network`` (one pass per population)."""
        ues, bss = network.user_equipments, network.base_stations
        sp_index = _IdIndex(
            np.array([sp.sp_id for sp in network.providers], dtype=np.int64)
        )
        service_ids = [s.service_id for s in network.services]
        service_pos = {service_id: j for j, service_id in enumerate(service_ids)}
        service_index = _IdIndex(np.array(service_ids, dtype=np.int64))
        ue_ids = np.array([ue.ue_id for ue in ues], dtype=np.int64)
        cru_capacity = np.zeros((len(bss), len(service_ids)), dtype=np.int64)
        for col, bs in enumerate(bss):
            for service_id, crus in bs.cru_capacity.items():
                cru_capacity[col, service_pos[service_id]] = crus
        return cls(
            ue_ids=ue_ids,
            ue_service=service_index.positions(
                [ue.service_id for ue in ues]
            ),
            ue_sp=sp_index.positions([ue.sp_id for ue in ues]),
            ue_cru_demand=np.array(
                [ue.cru_demand for ue in ues], dtype=np.int64
            ),
            ue_rate_demand_bps=np.array(
                [ue.rate_demand_bps for ue in ues], dtype=float
            ),
            bs_sp=sp_index.positions([bs.sp_id for bs in bss]),
            bs_rrb_capacity=np.array(
                [bs.rrb_capacity for bs in bss], dtype=np.int64
            ),
            bs_cru_capacity=cru_capacity,
            _ue_index=_IdIndex(ue_ids),
            _bs_index=_IdIndex(network._bs_id_array),
            _service_index=service_index,
        )

    def ue_rows(self, ue_ids) -> np.ndarray:
        """Row of each UE id, ``-1`` for ids not in the network."""
        return self._ue_index.positions(ue_ids)

    def bs_cols(self, bs_ids) -> np.ndarray:
        """Column of each BS id, ``-1`` for ids not in the network."""
        return self._bs_index.positions(bs_ids)

    def service_positions(self, service_ids) -> np.ndarray:
        """Position of each service id in ``services``, ``-1`` if unknown."""
        return self._service_index.positions(service_ids)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only (the network is semantically immutable)."""
    if array.base is None and array.flags.owndata:
        array.setflags(write=False)
    return array


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
