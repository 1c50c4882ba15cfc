"""CSR reference for the Lagrangian inner solve.

``repro.bound.lagrangian._inner_solve`` walks the candidate pairs in
slot-major (jagged-diagonal) order.  :func:`inner_solve` below is the
per-UE-row form it replaced: one segmented ``np.maximum.reduceat`` per
UE chunk over a CSR layout, the first pair attaining each row's maximum
as the chosen one.  :func:`csr_view` lays a slot-major
:class:`~repro.bound.problem.BoundProblem` out in those CSR rows
(radio-map order within a row) so both can run on the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bound.problem import BoundProblem

__all__ = ["CSRProblem", "csr_view", "inner_solve"]


@dataclass(frozen=True)
class CSRProblem:
    """A bound problem's pairs grouped by UE row."""

    n_ue: int
    indptr: np.ndarray  # (n_ue + 1,) CSR row pointers
    row_of_pair: np.ndarray  # (n_pairs,) row index of each pair
    pair_bs: np.ndarray
    pair_flat: np.ndarray
    pair_profit: np.ndarray
    pair_cru: np.ndarray
    pair_rrb: np.ndarray
    cap_cru: np.ndarray
    cap_rrb: np.ndarray


def csr_view(problem: BoundProblem) -> CSRProblem:
    """The problem's pairs in UE-row order, each row in radio-map order."""
    rows = problem.pair_rows()
    # Within a row, slot-major order is the row's candidate order.
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=problem.n_ue)
    return CSRProblem(
        n_ue=problem.n_ue,
        indptr=np.concatenate(([0], np.cumsum(counts))),
        row_of_pair=rows[order],
        pair_bs=problem.pair_bs[order],
        pair_flat=problem.pair_flat[order],
        pair_profit=problem.pair_profit[order],
        pair_cru=problem.pair_cru[order],
        pair_rrb=problem.pair_rrb[order],
        cap_cru=problem.cap_cru,
        cap_rrb=problem.cap_rrb,
    )


def inner_solve(
    problem: CSRProblem,
    lam: np.ndarray,
    nu: np.ndarray,
    chunk_ues: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form per-UE subproblems under multipliers ``lam, nu``.

    Returns the summed positive segment maxima plus the CRU / RRB usage
    of the chosen pairs (the subgradient ingredients).  Temporaries are
    bounded by the widest UE chunk, not the full pair count.
    """
    indptr = problem.indptr
    n_ue = problem.n_ue
    total = 0.0
    used_cru = np.zeros(problem.cap_cru.size, dtype=np.float64)
    used_rrb = np.zeros(problem.cap_rrb.size, dtype=np.float64)

    for lo in range(0, n_ue, chunk_ues):
        hi = min(lo + chunk_ues, n_ue)
        a, b = int(indptr[lo]), int(indptr[hi])
        if a == b:
            continue
        rows = problem.row_of_pair[a:b] - lo
        reduced = (
            problem.pair_profit[a:b]
            - lam[problem.pair_flat[a:b]] * problem.pair_cru[a:b]
            - nu[problem.pair_bs[a:b]] * problem.pair_rrb[a:b]
        )

        counts = indptr[lo + 1 : hi + 1] - indptr[lo:hi]
        nonempty = counts > 0
        starts = (indptr[lo:hi] - a)[nonempty]
        seg_max = np.maximum.reduceat(reduced, starts)
        total += float(seg_max[seg_max > 0.0].sum())

        # First pair attaining each row's max; keep only positive rows.
        seg_full = np.full(hi - lo, -np.inf)
        seg_full[nonempty] = seg_max
        hit = np.flatnonzero(reduced == seg_full[rows])
        if hit.size:
            rows_hit = rows[hit]
            first = np.ones(hit.size, dtype=bool)
            first[1:] = rows_hit[1:] != rows_hit[:-1]
            chosen = hit[first]
            chosen = chosen[seg_full[rows[chosen]] > 0.0] + a
            if chosen.size:
                used_cru += np.bincount(
                    problem.pair_flat[chosen],
                    weights=problem.pair_cru[chosen],
                    minlength=used_cru.size,
                )
                used_rrb += np.bincount(
                    problem.pair_bs[chosen],
                    weights=problem.pair_rrb[chosen],
                    minlength=used_rrb.size,
                )
    return total, used_cru, used_rrb
