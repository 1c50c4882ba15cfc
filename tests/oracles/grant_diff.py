"""The pool diff an incremental object-engine run used to report.

``IterativeMatchingEngine.run(..., ledgers=pool, ue_ids=batch)`` returns
the grants the run added to a pre-loaded pool.  It used to find them by
scanning the whole pool twice: the ``(bs_id, ue_id)`` keys of every grant
held before the run, then every grant held after it whose key is not
among them, in :meth:`LedgerPool.all_grants` order.  The engine now
collects the grants as it books them; :func:`held_keys` and
:func:`new_grants` are the diff it replaced.
"""

from __future__ import annotations

from repro.compute.cru import Grant, LedgerPool

__all__ = ["held_keys", "new_grants"]


def held_keys(pool: LedgerPool) -> frozenset[tuple[int, int]]:
    """The ``(bs_id, ue_id)`` key of every grant ``pool`` holds."""
    return frozenset((grant.bs_id, grant.ue_id) for grant in pool.all_grants())


def new_grants(
    pool: LedgerPool, before: frozenset[tuple[int, int]]
) -> tuple[Grant, ...]:
    """The grants ``pool`` holds now whose key is not in ``before``, in
    :meth:`LedgerPool.all_grants` order."""
    return tuple(
        grant
        for grant in pool.all_grants()
        if (grant.bs_id, grant.ue_id) not in before
    )
