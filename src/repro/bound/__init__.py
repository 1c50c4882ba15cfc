"""Optimality-gap certification for the TPM problem (Def. 1).

The exact ILP (:class:`repro.baselines.optimal.OptimalILPAllocator`)
refuses instances beyond a few tens of thousands of candidate links.
This package certifies how far a *feasible* allocation (DMRA, a
baseline, a sharded run) sits from optimal at any scale, via two upper
bounds on the TPM objective:

``lp``
    The LP relaxation over the exact Eq. 12--15 constraint matrix
    (single source of truth shared with the ILP via
    :func:`repro.baselines.optimal.compile_tpm_constraints`).
``lagrangian``
    A Lagrangian decomposition that dualizes the per-BS coupling
    constraints (Eqs. 12 and 14).  What remains is one independent
    closed-form subproblem per UE, evaluated with contiguous per-slot
    array passes over the candidates :mod:`repro.core.soa` gathers,
    laid out slot-major -- so the bound runs at 100k-UE scale.

Any nonnegative multiplier vector yields a valid bound, so a truncated
subgradient run still certifies.  See ``docs/bounds.md`` for the
duality argument and tightness caveats.
"""

from repro.bound.certificate import GapCertificate, certify_gap
from repro.bound.lagrangian import LagrangianOutcome, lagrangian_bound
from repro.bound.lp import lp_bound
from repro.bound.problem import BoundProblem, compile_bound_problem

__all__ = [
    "BoundProblem",
    "GapCertificate",
    "LagrangianOutcome",
    "certify_gap",
    "compile_bound_problem",
    "lagrangian_bound",
    "lp_bound",
]
