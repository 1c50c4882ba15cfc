"""Cheap per-batch networks over a fixed BS-side deployment.

The streaming allocator matches small UE batches (arrivals plus the
dirty re-admission set) against a deployment whose BS side never
changes.  Building a fresh :class:`~repro.model.network.MECNetwork`
per batch would redo the BS-side work every time: entity validation,
the per-service hosting columns, and the
:class:`~repro.model.geometry.SpatialGrid` over BS positions.

:class:`BatchNetworkBuilder` does that work once and then stamps out
per-batch networks that *share* every BS-side structure with the
template, computing only the UE-side coverage and candidate pairs (with
the same CSR assembly as construction, so coverage pairs, candidate
sets, and distances are bit-identical to constructing the network
directly — pinned by ``tests/property/test_batch_networks.py`` against
the dense filter).  The shared structures include the BS grid, whose
candidate table is built on the first query and then serves every
batch, and the BS half of the entity columns
(:meth:`MECNetwork.bs_columns`), so a batch network's
:meth:`~MECNetwork.columns` builds only its own UE arrays.  Cost per
batch is O(batch UEs x coverage degree), independent of how many UEs
ever existed.
"""

from __future__ import annotations

from typing import Sequence

from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UEColumns,
    UserEquipment,
)
from repro.model.geometry import Rectangle
from repro.model.network import _BS_SIDE, MECNetwork, _pair_csr, _ue_positions

__all__ = ["BatchNetworkBuilder"]


class BatchNetworkBuilder:
    """Stamp out networks for UE batches on one deployment."""

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
        )

    @property
    def template(self) -> MECNetwork:
        """The shared zero-UE network (BS-side source of truth)."""
        return self._template

    @property
    def bs_count(self) -> int:
        return self._template.bs_count

    def network_for(self, ues: Sequence[UserEquipment]) -> MECNetwork:
        """A network of exactly ``ues`` on the template's BSs.

        Value-identical to ``MECNetwork(..., user_equipments=ues)``, and
        refusing what it refuses (a duplicate UE id, a UE of an unknown
        SP or service) with the same error: the UE-side CSR arrays come
        from the same assembly as construction, and every BS-side
        structure is shared with the template.
        """
        template = self._template
        ues = tuple(ues)
        ue_columns = UEColumns.of(ues)
        # The objects validated their own fields; the rest is checked
        # against the template's BS side.
        ue_sp, ue_service = _ue_positions(template.bs_columns(), ue_columns)

        clone = object.__new__(MECNetwork)
        for name in _BS_SIDE:
            object.__setattr__(clone, name, getattr(template, name))
        object.__setattr__(clone, "user_equipments", ues)
        object.__setattr__(clone, "_ue_columns", ue_columns)
        object.__setattr__(
            clone, "_ue_by_id", {ue.ue_id: ue for ue in ues}
        )
        object.__setattr__(clone, "_ue_sp", ue_sp)
        object.__setattr__(clone, "_ue_service", ue_service)
        for name, value in _pair_csr(
            template._grid, ue_columns.xy, template.coverage_radius_m,
            template._hosting, ue_service,
        ).items():
            object.__setattr__(clone, name, value)
        return clone
