"""Cheap per-batch networks over a fixed BS-side deployment.

The streaming allocator matches small UE batches (arrivals plus the
dirty re-admission set) against a deployment whose BS side never
changes.  Building a fresh :class:`~repro.model.network.MECNetwork`
per batch would redo the BS-side work every time: entity validation,
the per-service hosting columns, and the
:class:`~repro.model.geometry.SpatialGrid` over BS positions.

:class:`BatchNetworkBuilder` does that work once and then stamps out
per-batch networks that *share* every BS-side structure with the
template, computing only the UE-side grid geometry (the same
``query_radius`` + hosting filter as
``MECNetwork._init_grid_geometry``, so coverage pairs, candidate sets,
and distances are bit-identical to constructing the network directly —
pinned by the batch-parity tests).  The shared structures include the
BS half of the entity columns (:meth:`MECNetwork.bs_columns`), so a
batch network's :meth:`~MECNetwork.columns` builds only its own UE
arrays.  Cost per batch is O(batch UEs x coverage degree), independent
of how many UEs ever existed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UserEquipment,
)
from repro.model.geometry import Rectangle
from repro.model.network import MECNetwork

__all__ = ["BatchNetworkBuilder"]


class BatchNetworkBuilder:
    """Stamp out grid-geometry networks for UE batches on one deployment."""

    def __init__(
        self,
        providers: Sequence[ServiceProvider],
        base_stations: Sequence[BaseStation],
        services: Sequence[Service],
        region: Rectangle,
        coverage_radius_m: float,
    ) -> None:
        # The zero-UE template runs full construction once: entity
        # validation, id indexes, hosting columns, the BS spatial grid,
        # and the BS-side columns.  Every batch network shares these
        # objects.
        self._template = MECNetwork(
            providers=providers,
            base_stations=base_stations,
            user_equipments=(),
            services=services,
            region=region,
            coverage_radius_m=coverage_radius_m,
            geometry="grid",
        )
        template = self._template
        template.bs_columns()
        self._service_index = {
            service.service_id: i
            for i, service in enumerate(template.services)
        }
        self._hosting_matrix = (
            np.stack([
                template._hosts_by_service[s.service_id]
                for s in template.services
            ])
            if template.services and template.base_stations
            else np.zeros((len(template.services), 0), dtype=bool)
        )

    @property
    def template(self) -> MECNetwork:
        """The shared zero-UE network (BS-side source of truth)."""
        return self._template

    @property
    def bs_count(self) -> int:
        return self._template.bs_count

    def network_for(self, ues: Sequence[UserEquipment]) -> MECNetwork:
        """A grid-geometry network of exactly ``ues`` on the template's BSs.

        Value-identical to ``MECNetwork(..., user_equipments=ues,
        geometry="grid")``: the UE-side CSR arrays are computed with the
        same ``query_radius`` call and hosting filter as full
        construction, and every BS-side structure is shared with the
        template.
        """
        template = self._template
        ues = tuple(ues)
        n_ue = len(ues)

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
            "_bs_col",
            "_hosts_by_service",
            "_bs_id_array",
            "_bs_columns",
            "_grid",
        ):
            object.__setattr__(clone, name, getattr(template, name))
        object.__setattr__(clone, "user_equipments", ues)
        object.__setattr__(
            clone, "_ue_by_id", {ue.ue_id: ue for ue in ues}
        )
        object.__setattr__(
            clone, "_ue_row", {ue.ue_id: row for row, ue in enumerate(ues)}
        )

        ue_xy = np.asarray(
            [ue.position.as_tuple() for ue in ues], dtype=float
        ).reshape(-1, 2)
        rows, cols, dists = template._grid.query_radius(
            ue_xy, template.coverage_radius_m
        )
        cov_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=n_ue)))
        ).astype(np.int64)

        if len(rows) and template.services:
            ue_service_idx = np.array(
                [self._service_index[ue.service_id] for ue in ues],
                dtype=np.intp,
            )
            keep = self._hosting_matrix[ue_service_idx[rows], cols]
        else:
            keep = np.zeros(len(rows), dtype=bool)
        cand_rows = rows[keep]
        cand_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cand_rows, minlength=n_ue)))
        ).astype(np.int64)

        for name, value in (
            ("_cov_indptr", cov_indptr),
            ("_cov_cols", cols),
            ("_cov_dists", dists),
            ("_cand_indptr", cand_indptr),
            ("_cand_cols", cols[keep]),
            ("_cand_dists", dists[keep]),
            ("_distances", None),
            ("_candidate_mask", None),
            ("_candidates", None),
        ):
            object.__setattr__(clone, name, value)
        return clone
