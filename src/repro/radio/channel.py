"""The radio map: precomputed link metrics for every candidate UE--BS pair.

Allocators never call path-loss or SINR code directly; they consume a
:class:`RadioMap` built once per scenario.  For each UE ``u`` and each BS
``i`` in its candidate set ``B_u`` the map stores the distance, the SINR
``lambda_{u,i}``, the per-RRB rate ``e_{u,i}``, and the RRB demand
``n_{u,i}`` — everything Eqs. 2--4 derive from geometry.

Internally the map is **columnar**: one NumPy array per field over all
candidate links, laid out by the network's candidate CSR (rows are UEs
in network order, each row's BS columns ascending), which the map keeps
as its own.  :func:`build_radio_map` fills those columns with
whole-array operations — distances from the network's candidate pairs,
Eq. 18 path loss, SINR, the Eq. 2 rate, and the Eq. 3 ``ceil`` demand
each evaluated once over all pairs — while the allocator-facing API
(:meth:`RadioMap.link`, :meth:`RadioMap.links_of_ue`, iteration) finds
a link through the network's id dicts and its row's run and hands out
lazily materialized :class:`LinkMetrics` views.

The parity suites pin the vectorized map against the original per-pair
scalar loop (``tests/oracles/radio_map.py``) link for link (exact
integer demands and candidate sets, float fields to ≤1e-9 relative), so
the fast path can never silently drift from Eqs. 2--4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.network import MECNetwork, _indptr, _splice
from repro.obs.telemetry import get_telemetry
from repro.radio.mcs import mcs_rate_bps, mcs_rate_bps_array
from repro.radio.ofdma import (
    per_rrb_rate_bps,
    per_rrb_rate_bps_array,
    rrbs_required_array,
)
from repro.radio.sinr import LinkBudget

__all__ = [
    "LinkMetrics",
    "RadioMap",
    "build_radio_map",
    "register_array_rate_model",
]

#: The displaced-fraction crossover of an incremental update: once more
#: than this fraction of the UEs moved, patching would redo most of a
#: fresh build plus the splicing, so the update rebuilds instead (same
#: values, different route).
REBUILD_FRACTION = 0.5

#: Signature of a per-RRB rate model: (rrb_bandwidth_hz, sinr) -> bits/s.
RateModel = Callable[[float, float], float]

#: Signature of a batched rate model: (rrb_bandwidth_hz, sinr_vector) -> bits/s.
ArrayRateModel = Callable[[float, np.ndarray], np.ndarray]

#: Known scalar rate models and their vectorized twins.  Unregistered
#: models still work — the builder falls back to an element-wise loop.
_ARRAY_RATE_MODELS: dict[RateModel, ArrayRateModel] = {
    per_rrb_rate_bps: per_rrb_rate_bps_array,
    mcs_rate_bps: mcs_rate_bps_array,
}


def register_array_rate_model(
    scalar_model: RateModel, array_model: ArrayRateModel
) -> None:
    """Teach :func:`build_radio_map` the batched twin of a rate model.

    Custom rate models without a registered twin are evaluated link by
    link (correct, but off the fast path).  The twin must agree with the
    scalar model to float64 precision — the parity tests assume it.
    """
    _ARRAY_RATE_MODELS[scalar_model] = array_model


@dataclass(frozen=True, slots=True)
class LinkMetrics:
    """Radio-level facts about one candidate UE--BS link."""

    ue_id: int
    bs_id: int
    distance_m: float
    sinr_linear: float
    per_rrb_rate_bps: float
    rrbs_required: int

    @property
    def feasible(self) -> bool:
        """Whether the link can carry the UE's demand with >= 1 RRB."""
        return self.rrbs_required >= 1 and self.per_rrb_rate_bps > 0


class RadioMap:
    """Immutable columnar lookup of link metrics per (UE, BS) pair.

    A map is relative to a network: its links form a CSR over that
    network's UE rows and BS columns (:meth:`csr`), rows in network
    order and each row's columns ascending, so link ``p`` is pair ``p``
    of the CSR.  A built map's CSR *is* the network's candidate CSR
    (the same arrays).  Only candidate links are present; querying any
    other pair raises :class:`UnknownEntityError`.  Fields live in
    per-link NumPy arrays; :class:`LinkMetrics` objects are
    materialized lazily on first access and cached, so the
    dict-of-objects API survives while whole-map math stays
    array-shaped.
    """

    __slots__ = (
        "_network",
        "_indptr",
        "_cols",
        "_ue_ids",
        "_bs_ids",
        "_distance_m",
        "_sinr",
        "_rate",
        "_rrbs",
        "_metrics",
    )

    def __init__(
        self,
        network: MECNetwork,
        indptr: np.ndarray,
        cols: np.ndarray,
        distance_m: np.ndarray,
        sinr_linear: np.ndarray,
        per_rrb_rate_bps: np.ndarray,
        rrbs_required: np.ndarray,
        _metrics: list[LinkMetrics | None] | None = None,
    ) -> None:
        """Wrap per-link columns laid out by the CSR ``(indptr, cols)``
        over ``network``'s rows and columns (see the class docstring)."""
        self._network = network
        self._indptr = indptr
        self._cols = cols
        self._ue_ids = None  # derived on first read: see ``ue_ids``
        self._bs_ids = None
        self._distance_m = _frozen(np.asarray(distance_m, dtype=float))
        self._sinr = _frozen(np.asarray(sinr_linear, dtype=float))
        self._rate = _frozen(np.asarray(per_rrb_rate_bps, dtype=float))
        self._rrbs = _frozen(np.asarray(rrbs_required, dtype=np.int64))
        if _metrics is None:
            _metrics = [None] * len(cols)
        self._metrics = _metrics

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_links(
        cls, links: Iterable[LinkMetrics], network: MECNetwork
    ) -> "RadioMap":
        """Build a map over ``network`` from materialized metrics (the
        scalar reference path).

        Each link is placed once, here, at its UE's row and its BS's
        column of ``network``.  A UE whose links come in several runs
        keeps its last run, and a BS repeated in that run keeps its last
        link; each row's columns end up ascending, as in every map.
        Raises :class:`UnknownEntityError` for a link whose UE or BS
        the network does not know.
        """
        runs: dict[int, dict[int, LinkMetrics]] = {}
        previous = None
        for link in links:
            if link.ue_id != previous:
                runs[link.ue_id] = {}  # a new run replaces the earlier ones
            runs[link.ue_id][link.bs_id] = link
            previous = link.ue_id
        placed = sorted(
            (network.row_of_ue(ue_id), network.col_of_bs(bs_id), link)
            for ue_id, run in runs.items()
            for bs_id, link in run.items()
        )
        rows = np.array([row for row, _, _ in placed], dtype=np.int64)
        cols = np.array([col for _, col, _ in placed], dtype=np.int64)
        links = [link for _, _, link in placed]
        return cls(
            network,
            indptr=_indptr(np.bincount(rows, minlength=network.ue_count)),
            cols=_frozen(cols),
            distance_m=np.array([m.distance_m for m in links]),
            sinr_linear=np.array([m.sinr_linear for m in links]),
            per_rrb_rate_bps=np.array([m.per_rrb_rate_bps for m in links]),
            rrbs_required=np.array([m.rrbs_required for m in links], dtype=np.int64),
            _metrics=links,  # already materialized; reuse as the cache
        )

    # ------------------------------------------------------------------
    # Allocator-facing API
    # ------------------------------------------------------------------

    def link(self, ue_id: int, bs_id: int) -> LinkMetrics:
        """Metrics for one candidate link."""
        return self._metric_at(self._position(ue_id, bs_id))

    def rrbs_required(self, ue_id: int, bs_id: int) -> int:
        """``n_{u,i}`` of one candidate link, read from the demand
        column (no :class:`LinkMetrics` is materialized)."""
        return int(self._rrbs[self._position(ue_id, bs_id)])

    def has_link(self, ue_id: int, bs_id: int) -> bool:
        """Whether the pair is a candidate link."""
        return self._find(ue_id, bs_id) >= 0

    def links_of_ue(self, ue_id: int) -> tuple[LinkMetrics, ...]:
        """All candidate links of one UE (its row's run)."""
        return tuple(map(self._metric_at, range(*self.ue_slice(ue_id))))

    def ue_slice(self, ue_id: int) -> tuple[int, int]:
        """``(start, stop)`` column range of one UE's links: its row's
        run.

        Indexes the columnar views (:attr:`bs_ids`, :attr:`rrb_demands`,
        ...); a UE with no candidate links, or unknown to the map's
        network, yields an empty range.  No :class:`LinkMetrics` is
        materialized.
        """
        row = self._network._ue_rows().get(ue_id)
        if row is None:
            return 0, 0
        start, stop = self._indptr[row:row + 2].tolist()
        return start, stop

    def ue_link_columns(
        self, ue_ids: Sequence[int]
    ) -> list[tuple[list[int], list[int], list[float]]]:
        """Each UE's links as ``(bs_ids, rrb_demands, distances_m)`` lists.

        One entry per id of ``ue_ids`` (distinct ids), in the map's
        column order within a UE; a UE without links gets empty lists.
        When those UEs hold every link of the map (a batch map), each
        column is converted once; otherwise each UE's slice is.  No
        :class:`LinkMetrics` is materialized.
        """
        spans = list(map(self.ue_slice, ue_ids))
        columns = (self.bs_ids, self._rrbs, self._distance_m)
        if sum(stop - start for start, stop in spans) == len(self._cols):
            bs_ids, rrbs, distances = (column.tolist() for column in columns)
            return [
                (bs_ids[start:stop], rrbs[start:stop], distances[start:stop])
                for start, stop in spans
            ]
        return [
            tuple(column[start:stop].tolist() for column in columns)
            for start, stop in spans
        ]

    def __len__(self) -> int:
        return len(self._cols)

    def __iter__(self) -> Iterator[LinkMetrics]:
        return map(self._metric_at, range(len(self._cols)))

    # ------------------------------------------------------------------
    # Columnar views
    # ------------------------------------------------------------------

    @property
    def network(self) -> MECNetwork:
        """The network whose rows and columns the links sit on."""
        return self._network

    def csr(self, network: MECNetwork) -> tuple[np.ndarray, np.ndarray]:
        """The links' ``(indptr, cols)`` over ``network``'s rows and
        columns: row ``r``'s links are positions ``indptr[r]`` up to
        ``indptr[r + 1]``, and link ``p`` is on BS column ``cols[p]``.

        Raises :class:`ConfigurationError` unless ``network`` has the
        map's UE ids by row and BS ids by column (the map's network, a
        moved copy of it, or an equal network): a map is never remapped
        by id.
        """
        own = self._network
        if network is not own and not (
            np.array_equal(network.ue_columns().ue_ids, own.ue_columns().ue_ids)
            and np.array_equal(
                network.bs_columns().bs_ids, own.bs_columns().bs_ids
            )
        ):
            raise ConfigurationError(
                "the radio map is over other UE rows or BS columns than "
                "this network's"
            )
        return self._indptr, self._cols

    def positions(
        self, network: MECNetwork, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Link position of each ``(row, col)`` pair of ``network``,
        ``-1`` where the map has no such link.

        A binary search of each pair's row run, all pairs at once: a
        run holds a handful of ascending columns, so a few whole-array
        steps place every pair.  Raises as :meth:`csr` does.
        """
        indptr, map_cols = self.csr(network)
        lo, hi = indptr[rows], indptr[rows + 1]
        last = len(map_cols) - 1
        left, right = lo, hi
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (left + right) >> 1
            less = map_cols[np.minimum(mid, last)] < cols
            open_ = left < right
            left = np.where(open_ & less, mid + 1, left)
            right = np.where(open_ & ~less, mid, right)
        found = left < hi
        found[found] = map_cols[left[found]] == cols[found]
        return np.where(found, left, -1)

    @property
    def ue_ids(self) -> np.ndarray:
        """Per-link UE ids (read-only, grouped by UE in network order):
        each row's UE id over its run, derived on first read and kept."""
        if self._ue_ids is None:
            ue_ids = self._network.ue_columns().ue_ids
            self._ue_ids = _frozen(np.repeat(ue_ids, np.diff(self._indptr)))
        return self._ue_ids

    @property
    def bs_ids(self) -> np.ndarray:
        """Per-link BS ids (read-only): each link's column's BS id,
        derived on first read and kept."""
        if self._bs_ids is None:
            bs_ids = self._network.bs_columns().bs_ids
            self._bs_ids = _frozen(bs_ids[self._cols])
        return self._bs_ids

    @property
    def distances_m(self) -> np.ndarray:
        """Per-link distances in meters (read-only)."""
        return self._distance_m

    @property
    def sinrs_linear(self) -> np.ndarray:
        """Per-link linear SINRs (read-only)."""
        return self._sinr

    @property
    def per_rrb_rates_bps(self) -> np.ndarray:
        """Per-link per-RRB rates in bits/s (read-only)."""
        return self._rate

    @property
    def rrb_demands(self) -> np.ndarray:
        """Per-link integer RRB demands ``n_{u,i}`` (read-only)."""
        return self._rrbs

    def estimated_bytes(self) -> int:
        """Approximate bytes held by the map's column arrays.

        Used by the scenario cache to bound its memory footprint; lazy
        per-link ``LinkMetrics`` objects are not counted, nor is the
        CSR, which the network holds.  The id columns count at full
        size whether or not they have been derived yet.
        """
        id_bytes = (
            self._network.ue_columns().ue_ids.itemsize
            + self._network.bs_columns().bs_ids.itemsize
        )
        return int(len(self._cols) * id_bytes + sum(
            arr.nbytes
            for arr in (self._distance_m, self._sinr, self._rate, self._rrbs)
        ))

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------

    def with_updated_ues(
        self,
        network: MECNetwork,
        budget: LinkBudget,
        ue_ids: Iterable[int],
        rate_model: RateModel | None = None,
    ) -> "RadioMap":
        """A new map over ``network`` with the given UEs' rows
        recomputed.

        The incremental mobility path: ``network`` is this map's network
        with those UEs moved (:meth:`MECNetwork.with_moved_ues`), and
        the new map takes its candidate CSR.  Moved UEs get their links
        re-evaluated (batched, exactly like a fresh
        :func:`build_radio_map`); every other row's run of this map —
        column entries and already-materialized :class:`LinkMetrics` —
        is spliced in by this map's ``indptr``.  Callers must ensure
        unlisted UEs genuinely kept their position (and hence candidate
        set).

        When more than :data:`REBUILD_FRACTION` of the population moved,
        splicing cannot beat a straight batched rebuild, so the call
        falls back to :func:`build_radio_map` — same values, different
        route.  Raises as :meth:`csr` does.
        """
        moved = set(ue_ids)
        if not moved:
            return self
        indptr, _ = self.csr(network)
        if len(moved) > REBUILD_FRACTION * network.ue_count:
            # Most of the population moved (e.g. a random walk): a
            # straight batched rebuild beats splicing per-UE runs.
            return build_radio_map(network, budget, rate_model=rate_model)
        rows = np.array(sorted(map(network.row_of_ue, moved)), dtype=np.intp)
        with get_telemetry().span(
            "radio.build", path="incremental", moved=len(rows),
            ues=network.ue_count,
        ):
            fresh = _link_columns(network, budget, rate_model, rows)
            cand_indptr = network._cand_indptr
            fresh_indptr = _indptr(cand_indptr[rows + 1] - cand_indptr[rows])
            old = (self._distance_m, self._sinr, self._rate, self._rrbs)
            spliced = [
                np.concatenate(_splice(o, f, indptr, rows, fresh_indptr))
                for o, f in zip(old, fresh)
            ]
            metrics = list(chain.from_iterable(_splice(
                self._metrics, [None] * int(fresh_indptr[-1]),
                indptr, rows, fresh_indptr,
            )))
            if len(metrics) != len(network._cand_cols):
                raise ConfigurationError(
                    "UEs outside ue_ids changed their candidate links"
                )
            return RadioMap(
                network, cand_indptr, network._cand_cols, *spliced,
                _metrics=metrics,
            )

    # ------------------------------------------------------------------

    def _find(self, ue_id: int, bs_id: int) -> int:
        """Column position of a candidate link, ``-1`` if absent: the
        network's id dicts give the row and column, as in
        :meth:`MECNetwork.distance_m`, then the row's run is scanned."""
        network = self._network
        row = network._ue_rows().get(ue_id)
        col = network._bs_col.get(bs_id)
        if row is None or col is None:
            return -1
        start, stop = self._indptr[row:row + 2].tolist()
        # A run holds a handful of columns: a list scan beats a search.
        run = self._cols[start:stop].tolist()
        return start + run.index(col) if col in run else -1

    def _position(self, ue_id: int, bs_id: int) -> int:
        """Column position of a candidate link."""
        position = self._find(ue_id, bs_id)
        if position < 0:
            raise UnknownEntityError(
                f"no candidate link UE {ue_id} -> BS {bs_id}"
            )
        return position

    def _metric_at(self, index: int) -> LinkMetrics:
        cached = self._metrics[index]
        if cached is None:
            cached = LinkMetrics(
                ue_id=int(self.ue_ids[index]),
                bs_id=int(self.bs_ids[index]),
                distance_m=float(self._distance_m[index]),
                sinr_linear=float(self._sinr[index]),
                per_rrb_rate_bps=float(self._rate[index]),
                rrbs_required=int(self._rrbs[index]),
            )
            self._metrics[index] = cached
        return cached


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only (the map is semantically immutable)."""
    if array.base is None and array.flags.owndata:
        array.setflags(write=False)
    return array


def _link_columns(
    network: MECNetwork,
    budget: LinkBudget,
    rate_model: RateModel | None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate Eqs. 2--4 over the candidate pairs as whole-array math.

    Returns the per-link distance, SINR, per-RRB rate and RRB demand
    columns in the network's candidate CSR order; ascending ``rows``
    restricts them to those UE rows (the incremental mobility path),
    ``None`` means every UE.
    """
    if rate_model is None:
        rate_model = per_rrb_rate_bps

    ues = network.ue_columns()
    ue_rows, cols, link_distances = network.candidate_pairs(rows)

    tx_power = ues.tx_power_dbm[ue_rows]
    rate_demand = ues.rate_demand_bps[ue_rows]
    over_budget = (network.bs_columns().bs_rrb_capacity + 1)[cols]

    sinr = budget.sinr_array(link_distances, tx_power)
    array_model = _ARRAY_RATE_MODELS.get(rate_model)
    if array_model is not None:
        rate = array_model(budget.rrb_bandwidth_hz, sinr)
    else:
        bandwidth = budget.rrb_bandwidth_hz
        rate = np.array(
            [rate_model(bandwidth, float(s)) for s in sinr], dtype=float
        )
    rrbs = rrbs_required_array(rate_demand, rate, over_budget)
    return link_distances, sinr, rate, rrbs


def build_radio_map(
    network: MECNetwork,
    budget: LinkBudget,
    rate_model: RateModel | None = None,
) -> RadioMap:
    """Evaluate the link budget over every candidate UE--BS pair, batched.

    ``rate_model`` maps ``(rrb_bandwidth_hz, sinr)`` to a per-RRB rate;
    the default is the paper's Shannon bound (Eq. 2), and
    :func:`repro.radio.mcs.mcs_rate_bps` gives the quantized LTE
    alternative.  Models registered via :func:`register_array_rate_model`
    run as whole-vector operations; others fall back to a per-link loop.

    Links whose per-RRB rate is zero (out of practical range) are kept
    with ``rrbs_required`` set high enough to exceed any BS budget, so
    allocators uniformly treat them as infeasible rather than special-
    casing missing entries.

    The map keeps the network's candidate CSR, the pairs it evaluated,
    as its own (:meth:`RadioMap.csr`).  Its links are interchangeable
    with the scalar per-pair loop in ``tests/oracles/radio_map.py``
    (pinned by the parity suites).
    """
    with get_telemetry().span("radio.build", path="batched") as span:
        radio_map = RadioMap(
            network, network._cand_indptr, network._cand_cols,
            *_link_columns(network, budget, rate_model),
        )
        span.set(links=len(radio_map), ues=network.ue_count)
    return radio_map
