"""Network model: geometry, entities, placement, and workload generation."""

from repro.model.entities import (
    BaseStation,
    Service,
    ServiceProvider,
    UEColumns,
    UserEquipment,
)
from repro.model.geometry import Point, Rectangle, distance_m, pairwise_distances_m
from repro.model.network import MECNetwork
from repro.model.placement import (
    ClusteredPlacement,
    PlacementStrategy,
    RegularGridPlacement,
    UniformRandomPlacement,
    coverage_overlap_count,
    make_placement,
    scatter_ues,
)
from repro.model.workload import (
    WorkloadModel,
    draw_ue_columns,
    generate_user_equipments,
)

__all__ = [
    "BaseStation",
    "ClusteredPlacement",
    "MECNetwork",
    "PlacementStrategy",
    "Point",
    "Rectangle",
    "RegularGridPlacement",
    "Service",
    "ServiceProvider",
    "UEColumns",
    "UniformRandomPlacement",
    "UserEquipment",
    "WorkloadModel",
    "coverage_overlap_count",
    "distance_m",
    "draw_ue_columns",
    "generate_user_equipments",
    "make_placement",
    "pairwise_distances_m",
    "scatter_ues",
]
