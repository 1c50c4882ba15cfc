"""Service catalog construction.

The paper's setup gives every BS six services with per-service CRU
capacities drawn from ``U{100..150}``.  :class:`ServiceCatalog` builds
the global service list and samples per-BS hosting maps, including the
partial-hosting variant (each BS hosts a random subset) used by the
ablation experiments — the paper's model explicitly allows ``S_i ⊂ S``
even though its evaluation hosts all services everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.model.entities import Service

__all__ = ["ServiceCatalog"]


@dataclass(frozen=True, slots=True)
class ServiceCatalog:
    """Factory for services and per-BS CRU capacity maps.

    Parameters
    ----------
    service_count:
        Number of distinct services (6 in the paper).
    cru_capacity_min, cru_capacity_max:
        Inclusive bounds of the per-(BS, service) capacity ``c_{i,j}``
        (100..150 in the paper).
    hosted_fraction:
        Fraction of services each BS hosts.  1.0 (the paper's evaluation)
        means every BS hosts every service; lower values sample a random
        subset of at least one service per BS.
    """

    service_count: int = 6
    cru_capacity_min: int = 100
    cru_capacity_max: int = 150
    hosted_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.service_count <= 0:
            raise ConfigurationError(
                f"service_count must be > 0, got {self.service_count}"
            )
        if (
            self.cru_capacity_min <= 0
            or self.cru_capacity_max < self.cru_capacity_min
        ):
            raise ConfigurationError(
                f"invalid CRU capacity range "
                f"[{self.cru_capacity_min}, {self.cru_capacity_max}]"
            )
        if not 0.0 < self.hosted_fraction <= 1.0:
            raise ConfigurationError(
                f"hosted_fraction must be in (0, 1], got {self.hosted_fraction}"
            )

    def build_services(self) -> list[Service]:
        """The global service set ``S``."""
        return [
            Service(service_id=i, name=f"service-{i}")
            for i in range(self.service_count)
        ]

    def sample_hosting(self, rng: np.random.Generator) -> dict[int, int]:
        """One BS's ``c_{i,j}`` map: hosted service id -> CRU capacity."""
        hosted_count = max(1, round(self.hosted_fraction * self.service_count))
        hosted = rng.choice(
            self.service_count, size=hosted_count, replace=False
        )
        # One call draws what one call per service (in id order) would:
        # NumPy fills both through the same per-element routine.
        crus = rng.integers(
            self.cru_capacity_min, self.cru_capacity_max + 1, size=hosted_count
        )
        return dict(zip(sorted(hosted.tolist()), crus.tolist()))
