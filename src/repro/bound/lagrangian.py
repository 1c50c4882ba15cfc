"""Lagrangian dual upper bound on the TPM objective.

Dualize the per-BS coupling constraints -- the (BS, service) CRU rows
(Eq. 12) with multipliers ``lam >= 0`` and the per-BS RRB rows (Eq. 14)
with multipliers ``nu >= 0``.  Only the per-UE "at most one BS" rows
(Eq. 15) remain, so the relaxed problem splits into one independent
subproblem per UE with a closed-form solution: take the candidate with
the largest *reduced* profit

    r(u, i) = profit(u, i) - lam[i, j_u] * c^u - nu[i] * n_{u,i}

if that maximum is positive, else take nothing.  The dual function

    L(lam, nu) = sum_u max(0, max_i r(u, i)) + lam . cap_cru + nu . cap_rrb

upper-bounds the ILP optimum for *every* ``lam, nu >= 0`` (weak
duality), so any truncation of the subgradient descent below still
certifies.  The inner solve walks the slot-major pair arrays of
:class:`~repro.bound.problem.BoundProblem` one slot at a time -- each
slot a contiguous pass folded into the rows' running maxima -- the
same per-UE decomposition the shard planner exploits, which is what
lets the bound run at 100k-UE scale where the MILP refuses.

Because each inner subproblem is integral (choose at most one
candidate), the best achievable dual value equals the LP relaxation
optimum -- the bound cannot beat the LP, only approach it from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bound.problem import BoundProblem
from repro.errors import ConfigurationError
from repro.obs.telemetry import get_telemetry

__all__ = ["LagrangianOutcome", "lagrangian_bound"]


@dataclass(frozen=True)
class LagrangianOutcome:
    """Result of a (possibly truncated) subgradient run.

    ``upper_bound`` is the lowest dual value seen -- a certified upper
    bound on the TPM optimum.  ``initial_bound`` is the iteration-0
    value at ``lam = nu = 0``: the capacity-blind bound
    ``sum_u max(0, best profit)``, useful as a tightness yardstick.
    """

    upper_bound: float
    initial_bound: float
    iterations: int
    converged: bool


class _Workspace:
    """Row-wide work buffers for :func:`_inner_solve`, allocated once per run.

    Every buffer is as wide as slot 0 -- one entry per UE row with a
    candidate, in ``slot_rows`` order -- except ``best_ue``, which holds
    the same row maxima in UE order (zero for rows without a candidate).
    ``first`` holds slot numbers in the narrowest unsigned type.
    """

    def __init__(self, problem: BoundProblem) -> None:
        ptr = problem.slot_ptr.tolist()
        self.slots = list(zip(ptr[:-1], ptr[1:]))
        width = self.slots[0][1] if self.slots else 0
        slot_type = np.min_scalar_type(max(len(self.slots) - 1, 0))
        self.offsets = np.arange(width, dtype=np.int64)
        self.rows = problem.slot_rows[:width]
        self.term = np.empty(width, dtype=np.float64)
        self.spare = np.empty(width, dtype=np.float64)
        self.best = np.empty(width, dtype=np.float64)
        self.gain = np.empty(width, dtype=bool)
        self.first = np.empty(width, dtype=slot_type)
        self.step = np.empty(width, dtype=slot_type)
        self.chosen = np.empty(width, dtype=np.int64)
        self.target = np.empty(width, dtype=np.int64)
        self.best_ue = np.zeros(problem.n_ue, dtype=np.float64)


def _inner_solve(
    problem: BoundProblem,
    lam: np.ndarray,
    nu: np.ndarray,
    chunk_ues: int,
    work: _Workspace,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form per-UE subproblems under multipliers ``lam, nu``.

    Returns the summed positive row maxima plus the CRU / RRB usage of
    the chosen pairs (the subgradient ingredients).  Each slot is one
    contiguous pass over its pairs: the reduced profits, folded into
    the running maxima of the first ``width`` rows.  A row's chosen
    pair moves only on a strictly larger value, so it is the first
    candidate, in radio-map order, that attains the row's maximum.
    The positive maxima are summed in UE order, one pairwise sum per
    block of ``chunk_ues`` rows.

    Every ``np.take`` index is in range by construction; ``clip`` mode
    lets it write straight into the buffer.
    """
    term, best, gain = work.term, work.best, work.gain
    first, step = work.first, work.step
    lam_term = bool(lam.any())
    for k, (a, b) in enumerate(work.slots):
        w = b - a
        t = term[:w]
        np.take(nu, problem.pair_bs[a:b], out=t, mode="clip")
        np.multiply(t, problem.pair_rrb[a:b], out=t)
        profit = problem.pair_profit[a:b]
        if lam_term:
            # (profit - lam * cru) - nu * rrb.  At lam == 0, lam * cru
            # is +-0: only a zero's sign could differ, which neither
            # comparison below sees.
            profit = work.spare[:w]
            np.take(lam, problem.pair_flat[a:b], out=profit, mode="clip")
            np.multiply(profit, problem.pair_cru[a:b], out=profit)
            np.subtract(problem.pair_profit[a:b], profit, out=profit)
        np.subtract(profit, t, out=t)
        if k == 0:
            best[:] = t
            first[:] = 0
            continue
        g, f, s = gain[:w], first[:w], step[:w]
        np.greater(t, best[:w], out=g)
        np.maximum(best[:w], t, out=best[:w])
        # f = k where g, else f: branch-free (and exact modulo 2**bits).
        np.subtract(f, k, out=s)
        np.multiply(s, g, out=s)
        np.subtract(f, s, out=f)

    # Rows with a non-positive maximum take nothing: zero their weight.
    np.greater(best, 0.0, out=gain)
    chosen, target, weight = work.chosen, work.target, term
    np.take(problem.slot_ptr, first, out=chosen, mode="clip")
    np.add(chosen, work.offsets, out=chosen)
    np.take(problem.pair_flat, chosen, out=target, mode="clip")
    # c^u is the UE's own, so slot 0 holds every row's in row order.
    np.multiply(problem.pair_cru[: len(gain)], gain, out=weight)
    used_cru = np.bincount(
        target, weights=weight, minlength=problem.cap_cru.size
    )
    np.take(problem.pair_bs, chosen, out=target, mode="clip")
    np.take(problem.pair_rrb, chosen, out=weight, mode="clip")
    np.multiply(weight, gain, out=weight)
    used_rrb = np.bincount(
        target, weights=weight, minlength=problem.cap_rrb.size
    )

    best_ue = work.best_ue
    best_ue[work.rows] = best
    total = 0.0
    for lo in range(0, problem.n_ue, chunk_ues):
        block = best_ue[lo : lo + chunk_ues]
        total += float(block[block > 0.0].sum())
    return total, used_cru, used_rrb


def lagrangian_bound(
    problem: BoundProblem,
    *,
    max_iterations: int = 150,
    target: float | None = None,
    step_scale: float = 1.0,
    stall_limit: int = 8,
    min_scale: float = 1e-4,
    chunk_ues: int = 65536,
) -> LagrangianOutcome:
    """Projected subgradient descent on the Lagrangian dual.

    Polyak steps against ``target`` (the incumbent feasible profit when
    known, else 0); ``step_scale`` halves after ``stall_limit``
    non-improving iterations and the run stops once it drops below
    ``min_scale``.  The *best* (lowest) dual value is returned, so the
    bound is monotone in iteration count and valid at any truncation.

    ``chunk_ues`` sets the dual's summation blocks: the positive per-UE
    maxima are summed one block of ``chunk_ues`` UE rows at a time, so
    it fixes the last bits of every dual value (and, through the step
    sizes, of the multipliers).  It must be at least 1.
    """
    if chunk_ues < 1:
        raise ConfigurationError(f"chunk_ues must be >= 1, got {chunk_ues}")
    with get_telemetry().span("bound.lagrangian") as span:
        outcome = _descend(
            problem, max_iterations, target, step_scale, stall_limit,
            min_scale, chunk_ues,
        )
        span.set(iterations=outcome.iterations, converged=outcome.converged)
    return outcome


def _descend(
    problem: BoundProblem,
    max_iterations: int,
    target: float | None,
    step_scale: float,
    stall_limit: int,
    min_scale: float,
    chunk_ues: int,
) -> LagrangianOutcome:
    lam = np.zeros(problem.cap_cru.size, dtype=np.float64)
    nu = np.zeros(problem.cap_rrb.size, dtype=np.float64)
    goal = 0.0 if target is None else float(target)
    work = _Workspace(problem)

    if max_iterations <= 0:
        # Zero budget still certifies: at zero multipliers the dual is
        # the capacity-blind sum of each UE's best positive profit.
        inner, _, _ = _inner_solve(problem, lam, nu, chunk_ues, work)
        return LagrangianOutcome(
            upper_bound=float(inner),
            initial_bound=float(inner),
            iterations=0,
            converged=False,
        )

    best = np.inf
    initial = 0.0
    iterations = 0
    converged = False
    scale = float(step_scale)
    stall = 0

    for k in range(max_iterations):
        iterations = k + 1
        inner, used_cru, used_rrb = _inner_solve(
            problem, lam, nu, chunk_ues, work
        )
        dual = (
            inner
            + float(lam @ problem.cap_cru)
            + float(nu @ problem.cap_rrb)
        )
        if k == 0:
            initial = dual
        if not np.isfinite(best) or dual < best - 1e-9 * max(1.0, abs(best)):
            best = dual
            stall = 0
        else:
            stall += 1
            if stall >= stall_limit:
                scale *= 0.5
                stall = 0
        if scale < min_scale:
            break

        g_cru = problem.cap_cru - used_cru
        g_rrb = problem.cap_rrb - used_rrb
        # Projected subgradient: a slack capacity whose multiplier is
        # already pinned at zero cannot move, so drop it from the step
        # direction -- otherwise the norm is dominated by the many
        # uncontended (BS, service) slots and the Polyak step collapses.
        g_cru[(lam == 0.0) & (g_cru > 0.0)] = 0.0
        g_rrb[(nu == 0.0) & (g_rrb > 0.0)] = 0.0
        norm_sq = float(g_cru @ g_cru) + float(g_rrb @ g_rrb)
        if norm_sq == 0.0:
            # No overloaded capacity and no positive multiplier with
            # slack: the relaxed solution is feasible and complementary,
            # hence optimal.
            converged = True
            break
        gap_to_goal = dual - goal
        if gap_to_goal <= 0.0:
            # The bound already meets the incumbent -- zero certified gap.
            converged = True
            break
        step = scale * gap_to_goal / norm_sq
        np.maximum(lam - step * g_cru, 0.0, out=lam)
        np.maximum(nu - step * g_rrb, 0.0, out=nu)

    upper = min(best, initial) if np.isfinite(best) else initial
    return LagrangianOutcome(
        upper_bound=float(upper),
        initial_bound=float(initial),
        iterations=iterations,
        converged=converged,
    )
