"""Exact TPM optimum via integer linear programming (small instances).

The TPM problem (Def. 1) is a pure 0/1 assignment once prices are fixed:

    max  sum_{(u,i) candidate} profit(u, i) * x_{u,i}
    s.t. sum_i x_{u,i} <= 1                          (Eq. 15, per UE)
         sum_{u req j} c^u x_{u,i} <= c_{i,j}        (Eq. 12, per BS+service)
         sum_u n_{u,i} x_{u,i} <= N_i                (Eq. 14, per BS)

Solved with :func:`scipy.optimize.milp` (HiGHS).  Intended for the
optimality-gap ablation bench on paper-scale-or-smaller scenarios; the
solver is exponential in the worst case, so a variable-count guard
refuses oversized inputs rather than hanging.  SciPy is imported by the
functions that call it, so importing this module (and ``repro``) costs
NumPy only; the first compile or solve in a process pays SciPy's import.

:func:`compile_tpm_constraints` is the single source of truth for the
Eq. 12--15 constraint rows: both the exact ILP here and the LP
relaxation behind :mod:`repro.bound` (``relaxed=True``) solve over the
same matrix, so the certification sandwich compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.compute.cru import Grant
from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.econ.accounting import marginal_profit
from repro.econ.pricing import PaperPricing, PricingPolicy
from repro.errors import AllocationError, ConfigurationError
from repro.model.network import MECNetwork
from repro.radio.channel import RadioMap

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.optimize import LinearConstraint

__all__ = [
    "OptimalILPAllocator",
    "TPMConstraints",
    "compile_tpm_constraints",
]


@dataclass(frozen=True)
class TPMConstraints:
    """The compiled Eq. 12--15 rows over one candidate-link list.

    ``matrix`` has one column per candidate link (same order as the
    ``links`` the caller passed) and one row per constraint;
    ``upper`` is the right-hand side.  Row order: per-UE (Eq. 15),
    per-(BS, service) CRU (Eq. 12), per-BS RRB (Eq. 14).
    """

    matrix: sparse.csr_matrix
    upper: np.ndarray

    @property
    def linear_constraint(self) -> LinearConstraint:
        from scipy.optimize import LinearConstraint

        return LinearConstraint(self.matrix, lb=-np.inf, ub=self.upper)


def compile_tpm_constraints(
    network: MECNetwork, links: list
) -> TPMConstraints:
    """Build the TPM constraint matrix over ``links`` (Eqs. 12--15)."""
    from scipy import sparse

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    upper: list[float] = []
    row_count = 0

    def add_constraint(entries: list[tuple[int, float]], bound: float) -> None:
        nonlocal row_count
        for col, val in entries:
            rows.append(row_count)
            cols.append(col)
            vals.append(val)
        upper.append(bound)
        row_count += 1

    by_ue: dict[int, list[int]] = {}
    by_bs_service: dict[tuple[int, int], list[int]] = {}
    by_bs: dict[int, list[int]] = {}
    for index, link in enumerate(links):
        by_ue.setdefault(link.ue_id, []).append(index)
        service_id = network.user_equipment(link.ue_id).service_id
        by_bs_service.setdefault((link.bs_id, service_id), []).append(index)
        by_bs.setdefault(link.bs_id, []).append(index)

    for indices in by_ue.values():  # Eq. 15
        add_constraint([(i, 1.0) for i in indices], 1.0)
    for (bs_id, service_id), indices in by_bs_service.items():  # Eq. 12
        add_constraint(
            [
                (i, float(network.user_equipment(links[i].ue_id).cru_demand))
                for i in indices
            ],
            float(network.base_station(bs_id).cru_capacity[service_id]),
        )
    for bs_id, indices in by_bs.items():  # Eq. 14
        add_constraint(
            [(i, float(links[i].rrbs_required)) for i in indices],
            float(network.base_station(bs_id).rrb_capacity),
        )

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row_count, len(links))
    )
    return TPMConstraints(matrix=matrix, upper=np.asarray(upper))


class OptimalILPAllocator(Allocator):
    """Globally optimal TPM association via MILP (HiGHS backend).

    With ``relaxed=True`` the integrality constraint is dropped and the
    same matrix solves as a linear program: :meth:`objective_bound`
    then returns the LP relaxation value, a certified upper bound on
    the ILP optimum (used by :mod:`repro.bound`).  A relaxed instance
    cannot :meth:`allocate` — fractional ``x`` is not an assignment.
    """

    def __init__(
        self,
        pricing: PricingPolicy | None = None,
        max_variables: int = 50_000,
        time_limit_s: float | None = 60.0,
        relaxed: bool = False,
    ) -> None:
        if max_variables <= 0:
            raise ConfigurationError(
                f"max_variables must be > 0, got {max_variables}"
            )
        self.pricing = pricing if pricing is not None else PaperPricing()
        self.max_variables = max_variables
        self.time_limit_s = time_limit_s
        self.relaxed = relaxed
        self.name = "lp-relaxation" if relaxed else "ilp-optimal"

    def _compile(self, network: MECNetwork, radio_map: RadioMap):
        """Candidate links, their profits, and the Eq. 12--15 rows."""
        # The guard counts on the map's columns (LinkMetrics.feasible's
        # rule), so refusing a large instance materializes no link.
        count = int(np.count_nonzero(
            (radio_map.rrb_demands >= 1) & (radio_map.per_rrb_rates_bps > 0)
        ))
        if count > self.max_variables:
            raise ConfigurationError(
                f"{count} candidate links exceed the "
                f"{self.max_variables}-variable ILP guard "
                f"({network.ue_count} UEs x ~"
                f"{count / max(network.ue_count, 1):.1f} candidates); "
                f"use repro.bound (Lagrangian/LP gap certification) or a "
                f"heuristic allocator for instances this large"
            )
        links = [link for link in radio_map if link.feasible]
        profits = np.array(
            [
                marginal_profit(network, link.ue_id, link.bs_id, self.pricing)
                for link in links
            ]
        )
        return links, profits

    def _solve(self, network: MECNetwork, radio_map: RadioMap):
        """Run HiGHS over the compiled problem; returns (result, links)."""
        from scipy.optimize import Bounds, milp

        links, profits = self._compile(network, radio_map)
        if not links:
            return None, links
        constraints = compile_tpm_constraints(network, links)
        options = {}
        if self.time_limit_s is not None:
            options["time_limit"] = self.time_limit_s
        integrality = (
            np.zeros(len(links)) if self.relaxed else np.ones(len(links))
        )
        result = milp(
            c=-profits,  # milp minimizes
            integrality=integrality,
            bounds=Bounds(0, 1),
            constraints=[constraints.linear_constraint],
            options=options,
        )
        if result.x is None:
            kind = "LP" if self.relaxed else "ILP"
            raise AllocationError(f"{kind} solve failed: {result.message}")
        return result, links

    def objective_bound(
        self, network: MECNetwork, radio_map: RadioMap
    ) -> float:
        """The optimal objective value (LP relaxation when ``relaxed``).

        An exact instance returns the ILP optimum; a relaxed one the LP
        relaxation value, which upper-bounds every integral assignment.
        """
        result, links = self._solve(network, radio_map)
        if result is None:
            return 0.0
        return float(-result.fun)

    def allocate(self, network: MECNetwork, radio_map: RadioMap) -> Assignment:
        if self.relaxed:
            raise ConfigurationError(
                "a relaxed (LP) instance yields fractional x and cannot "
                "allocate; call objective_bound() for the bound, or "
                "construct with relaxed=False for the exact ILP"
            )
        all_ue_ids = [ue.ue_id for ue in network.user_equipments]
        result, links = self._solve(network, radio_map)
        if result is None:
            return Assignment.from_grants((), all_ue_ids, rounds=0)

        grants: list[Grant] = []
        for index, chosen in enumerate(np.round(result.x).astype(int)):
            if chosen != 1:
                continue
            link = links[index]
            ue = network.user_equipment(link.ue_id)
            grants.append(
                Grant(
                    bs_id=link.bs_id,
                    ue_id=link.ue_id,
                    service_id=ue.service_id,
                    crus=ue.cru_demand,
                    rrbs=link.rrbs_required,
                )
            )
        return Assignment.from_grants(grants, all_ue_ids, rounds=1)
