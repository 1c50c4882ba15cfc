"""The radio map: precomputed link metrics for every candidate UE--BS pair.

Allocators never call path-loss or SINR code directly; they consume a
:class:`RadioMap` built once per scenario.  For each UE ``u`` and each BS
``i`` in its candidate set ``B_u`` the map stores the distance, the SINR
``lambda_{u,i}``, the per-RRB rate ``e_{u,i}``, and the RRB demand
``n_{u,i}`` — everything Eqs. 2--4 derive from geometry.

Internally the map is **columnar**: one NumPy array per field over all
candidate links, grouped by UE in network order (BS order within a UE's
group).  :func:`build_radio_map` fills those columns with whole-array
operations — distances from the network's candidate pairs, Eq. 18 path
loss, SINR, the Eq. 2 rate, and the Eq. 3 ``ceil`` demand each evaluated
once over all pairs — while the allocator-facing API
(:meth:`RadioMap.link`, :meth:`RadioMap.links_of_ue`, iteration) hands
out lazily materialized :class:`LinkMetrics` views.

The parity suites pin the vectorized map against the original per-pair
scalar loop (``tests/oracles/radio_map.py``) link for link (exact
integer demands and candidate sets, float fields to ≤1e-9 relative), so
the fast path can never silently drift from Eqs. 2--4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import UnknownEntityError
from repro.model.network import MECNetwork
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
#: fresh build plus the chunk stitching, so the update rebuilds instead
#: (same values, different route).
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

    Only candidate links (BS covers the UE and hosts its service) are
    present; querying any other pair raises :class:`UnknownEntityError`.
    Fields live in per-column NumPy arrays (grouped by UE, BS order
    within a group); :class:`LinkMetrics` objects are materialized lazily
    on first access and cached, so the dict-of-objects API survives
    unchanged while whole-map math stays array-shaped.
    """

    __slots__ = (
        "_ue_ids",
        "_bs_ids",
        "_distance_m",
        "_sinr",
        "_rate",
        "_rrbs",
        "_pos",
        "_ue_slice",
        "_metrics",
    )

    def __init__(
        self,
        ue_ids: np.ndarray,
        bs_ids: np.ndarray,
        distance_m: np.ndarray,
        sinr_linear: np.ndarray,
        per_rrb_rate_bps: np.ndarray,
        rrbs_required: np.ndarray,
        ue_slices: dict[int, tuple[int, int]] | None = None,
        _metrics: list[LinkMetrics | None] | None = None,
    ) -> None:
        """Wrap precomputed columns (grouped by UE; see class docstring).

        The ``(ue, bs) -> position`` hash index (and, when not supplied,
        the per-UE slice index) is built lazily on first point lookup:
        construction stays pure array work, and whole-map consumers that
        never call :meth:`link` never pay for the dict.
        """
        self._ue_ids = _frozen(np.asarray(ue_ids, dtype=np.int64))
        self._bs_ids = _frozen(np.asarray(bs_ids, dtype=np.int64))
        self._distance_m = _frozen(np.asarray(distance_m, dtype=float))
        self._sinr = _frozen(np.asarray(sinr_linear, dtype=float))
        self._rate = _frozen(np.asarray(per_rrb_rate_bps, dtype=float))
        self._rrbs = _frozen(np.asarray(rrbs_required, dtype=np.int64))
        self._pos: dict[tuple[int, int], int] | None = None
        self._ue_slice = ue_slices
        if _metrics is None:
            _metrics = [None] * len(self._ue_ids)
        self._metrics = _metrics

    @property
    def _position_index(self) -> dict[tuple[int, int], int]:
        """The (ue, bs) -> column position hash, built on first use."""
        if self._pos is None:
            self._pos = {
                pair: index
                for index, pair in enumerate(
                    zip(self._ue_ids.tolist(), self._bs_ids.tolist())
                )
            }
        return self._pos

    @property
    def _ue_index(self) -> dict[int, tuple[int, int]]:
        """The per-UE (start, stop) slice index, built on first use."""
        if self._ue_slice is None:
            self._ue_slice = _slices_from_grouped_ids(self._ue_ids.tolist())
        return self._ue_slice

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_links(cls, links: Iterable[LinkMetrics]) -> "RadioMap":
        """Build a map from materialized metrics (scalar reference path).

        ``links`` must already be grouped by UE (all of one UE's links
        contiguous), which is how both builders naturally emit them.
        """
        links = list(links)
        return cls(
            ue_ids=np.array([m.ue_id for m in links], dtype=np.int64),
            bs_ids=np.array([m.bs_id for m in links], dtype=np.int64),
            distance_m=np.array([m.distance_m for m in links]),
            sinr_linear=np.array([m.sinr_linear for m in links]),
            per_rrb_rate_bps=np.array([m.per_rrb_rate_bps for m in links]),
            rrbs_required=np.array([m.rrbs_required for m in links], dtype=np.int64),
            _metrics=links,  # already materialized; reuse as the cache
        )

    # ------------------------------------------------------------------
    # Allocator-facing API (unchanged from the dict-backed map)
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
        return (ue_id, bs_id) in self._position_index

    def links_of_ue(self, ue_id: int) -> tuple[LinkMetrics, ...]:
        """All candidate links of one UE (O(|B_u|) via the per-UE index)."""
        start, stop = self._ue_index.get(ue_id, (0, 0))
        return tuple(self._metric_at(i) for i in range(start, stop))

    def ue_slice(self, ue_id: int) -> tuple[int, int]:
        """``(start, stop)`` column range of one UE's links.

        Indexes the columnar views (:attr:`bs_ids`, :attr:`rrb_demands`,
        ...); a UE with no candidate links yields ``(0, 0)``.  This is
        how whole-run consumers (the SoA matching kernel) lift a UE's
        rows without materializing :class:`LinkMetrics` objects.
        """
        return self._ue_index.get(ue_id, (0, 0))

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
        spans = list(map(self._ue_index.get, ue_ids, repeat((0, 0))))
        columns = (self._bs_ids, self._rrbs, self._distance_m)
        if sum(stop - start for start, stop in spans) == len(self._ue_ids):
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
        return len(self._ue_ids)

    def __iter__(self) -> Iterator[LinkMetrics]:
        return (self._metric_at(i) for i in range(len(self._ue_ids)))

    # ------------------------------------------------------------------
    # Columnar views
    # ------------------------------------------------------------------

    @property
    def ue_ids(self) -> np.ndarray:
        """Per-link UE ids (read-only, grouped by UE)."""
        return self._ue_ids

    @property
    def bs_ids(self) -> np.ndarray:
        """Per-link BS ids (read-only)."""
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
        per-link ``LinkMetrics`` objects are not counted.
        """
        return int(sum(
            arr.nbytes
            for arr in (
                self._ue_ids, self._bs_ids, self._distance_m,
                self._sinr, self._rate, self._rrbs,
            )
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
        """A new map with the given UEs' rows recomputed against ``network``.

        The incremental mobility path: UEs whose position changed get
        their candidate links re-evaluated (batched, exactly like a
        fresh :func:`build_radio_map`), while every other UE's column
        entries — and already-materialized :class:`LinkMetrics` — are
        reused verbatim.  Callers must ensure unlisted UEs genuinely
        kept their position (and hence candidate set).

        When more than :data:`REBUILD_FRACTION` of the population moved,
        chunk-stitching cannot beat a straight batched rebuild, so the
        call falls back to :func:`build_radio_map` — same values,
        different route.
        """
        moved = set(ue_ids)
        if not moved:
            return self
        if len(moved) > REBUILD_FRACTION * network.ue_count:
            # Most of the population moved (e.g. a random walk): a
            # straight batched rebuild beats stitching per-UE chunks.
            return build_radio_map(network, budget, rate_model=rate_model)
        columns = network.columns()
        rows = np.flatnonzero(
            np.isin(columns.ue_ids, np.fromiter(moved, dtype=np.int64))
        )
        with get_telemetry().span(
            "radio.build", path="incremental", moved=len(rows),
            ues=network.ue_count,
        ):
            fresh = _vectorized_columns(
                network, budget, rate_model, only_rows=rows
            )
            # Where each network row's links sit in this map's columns
            # followed by the fresh ones: a moved row's fresh links,
            # else its last run here (none for a UE without links).
            n_old = len(self._ue_ids)
            run_start = np.ones(n_old, dtype=bool)
            run_start[1:] = self._ue_ids[1:] != self._ue_ids[:-1]
            starts = np.flatnonzero(run_start)
            stops = np.append(starts[1:], n_old)
            run_rows = columns.ue_rows(self._ue_ids[starts])
            runs = np.flatnonzero(run_rows >= 0)
            if np.any(run_rows[runs][1:] <= run_rows[runs][:-1]):
                # Out of row order, maybe repeated: keep each UE's last.
                runs = runs[::-1]
                runs = runs[np.unique(run_rows[runs], return_index=True)[1]]
            source = np.zeros(network.ue_count, dtype=np.int64)
            count = np.zeros(network.ue_count, dtype=np.int64)
            source[run_rows[runs]] = starts[runs]
            count[run_rows[runs]] = stops[runs] - starts[runs]
            lo = np.searchsorted(fresh["ue_rows"], rows)
            source[rows] = n_old + lo
            count[rows] = np.searchsorted(fresh["ue_rows"], rows, "right") - lo
            stop = np.cumsum(count)
            index = np.repeat(source - (stop - count), count) + np.arange(
                int(stop[-1]) if len(stop) else 0
            )
            # Materialized metrics move by slices: one per run of
            # consecutive positions, fresh links start uncached.
            metrics: list[LinkMetrics | None] = []
            cut = np.ones(len(index), dtype=bool)
            cut[1:] = (index[1:] != index[:-1] + 1) | (index[1:] == n_old)
            bounds = np.append(np.flatnonzero(cut), len(index)).tolist()
            for a, b in zip(bounds[:-1], bounds[1:]):
                first = int(index[a])
                metrics += (
                    self._metrics[first:first + b - a] if first < n_old
                    else [None] * (b - a)
                )

            def spliced(old: np.ndarray, name: str) -> np.ndarray:
                return np.concatenate((old, fresh[name]))[index]

            return RadioMap(
                ue_ids=spliced(self._ue_ids, "ue_ids"),
                bs_ids=spliced(self._bs_ids, "bs_ids"),
                distance_m=spliced(self._distance_m, "distance_m"),
                sinr_linear=spliced(self._sinr, "sinr"),
                per_rrb_rate_bps=spliced(self._rate, "rate"),
                rrbs_required=spliced(self._rrbs, "rrbs"),
                ue_slices=dict(zip(
                    columns.ue_ids.tolist(),
                    zip((stop - count).tolist(), stop.tolist()),
                )),
                _metrics=metrics,
            )

    # ------------------------------------------------------------------

    def _position(self, ue_id: int, bs_id: int) -> int:
        """Column position of a candidate link."""
        try:
            return self._position_index[(ue_id, bs_id)]
        except KeyError:
            raise UnknownEntityError(
                f"no candidate link UE {ue_id} -> BS {bs_id}"
            ) from None

    def _metric_at(self, index: int) -> LinkMetrics:
        cached = self._metrics[index]
        if cached is None:
            cached = LinkMetrics(
                ue_id=int(self._ue_ids[index]),
                bs_id=int(self._bs_ids[index]),
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


def _slices_from_grouped_ids(
    ue_list: Sequence[int],
) -> dict[int, tuple[int, int]]:
    """Per-UE (start, stop) ranges from a UE-grouped id column."""
    slices: dict[int, tuple[int, int]] = {}
    start = 0
    for index, uid in enumerate(ue_list):
        if uid != ue_list[start]:
            slices[ue_list[start]] = (start, index)
            start = index
    if ue_list:
        slices[ue_list[start]] = (start, len(ue_list))
    return slices


def _vectorized_columns(
    network: MECNetwork,
    budget: LinkBudget,
    rate_model: RateModel | None,
    only_rows: np.ndarray | None = None,
) -> dict:
    """Evaluate Eqs. 2--4 over the candidate pairs as whole-array math.

    ``only_rows`` (ascending) restricts the evaluation to those UE rows
    (the incremental mobility path); ``None`` means every UE.  The
    links come grouped by row, ascending, with their rows in
    ``"ue_rows"``.
    """
    if rate_model is None:
        rate_model = per_rrb_rate_bps

    ues = network.ue_columns()
    ue_rows, cols, link_distances = network.candidate_pairs(only_rows)

    tx_power = ues.tx_power_dbm[ue_rows]
    rate_demand = ues.rate_demand_bps[ue_rows]
    ue_id_col = ues.ue_ids[ue_rows]
    bs_side = network.bs_columns()
    bs_id_col = bs_side.bs_ids[cols]
    over_budget = (bs_side.bs_rrb_capacity + 1)[cols]

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

    return {
        "ue_ids": ue_id_col,
        "bs_ids": bs_id_col,
        "distance_m": link_distances,
        "sinr": sinr,
        "rate": rate,
        "rrbs": rrbs,
        "ue_rows": ue_rows,
    }


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

    The output is link-for-link interchangeable with the scalar
    per-pair loop in ``tests/oracles/radio_map.py`` (pinned by the
    parity suites).
    """
    with get_telemetry().span("radio.build", path="batched") as span:
        columns = _vectorized_columns(network, budget, rate_model)
        radio_map = RadioMap(
            ue_ids=columns["ue_ids"],
            bs_ids=columns["bs_ids"],
            distance_m=columns["distance_m"],
            sinr_linear=columns["sinr"],
            per_rrb_rate_bps=columns["rate"],
            rrbs_required=columns["rrbs"],
        )
        span.set(links=len(radio_map), ues=network.ue_count)
    return radio_map
