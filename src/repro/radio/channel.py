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

:func:`build_radio_map_reference` keeps the original per-pair scalar
loop; the parity suite pins the vectorized map against it link for link
(exact integer demands and candidate sets, float fields to ≤1e-9
relative), so the fast path can never silently drift from Eqs. 2--4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import UnknownEntityError
from repro.model.network import MECNetwork
from repro.obs.telemetry import get_telemetry
from repro.radio.mcs import mcs_rate_bps, mcs_rate_bps_array
from repro.radio.ofdma import (
    per_rrb_rate_bps,
    per_rrb_rate_bps_array,
    rrbs_required,
    rrbs_required_array,
)
from repro.radio.sinr import LinkBudget
from repro.radio.units import db_to_linear, dbm_to_mw

__all__ = [
    "LinkMetrics",
    "RadioMap",
    "build_radio_map",
    "build_radio_map_reference",
    "register_array_rate_model",
]

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
        try:
            index = self._position_index[(ue_id, bs_id)]
        except KeyError:
            raise UnknownEntityError(
                f"no candidate link UE {ue_id} -> BS {bs_id}"
            ) from None
        return self._metric_at(index)

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
        rebuild_fraction: float = 0.5,
    ) -> "RadioMap":
        """A new map with the given UEs' rows recomputed against ``network``.

        The incremental mobility path: UEs whose position changed get
        their candidate links re-evaluated (batched, exactly like a
        fresh :func:`build_radio_map`), while every other UE's column
        entries — and already-materialized :class:`LinkMetrics` — are
        reused verbatim.  Callers must ensure unlisted UEs genuinely
        kept their position (and hence candidate set).

        When at least ``rebuild_fraction`` of the population moved,
        chunk-stitching cannot beat a straight batched rebuild, so the
        call falls back to :func:`build_radio_map` — same values,
        different route.
        """
        moved = set(ue_ids)
        if not moved:
            return self
        if len(moved) > rebuild_fraction * network.ue_count:
            # Most of the population moved (e.g. a random walk): a
            # straight batched rebuild beats stitching per-UE chunks.
            return build_radio_map(network, budget, rate_model=rate_model)
        rows = [
            ue.ue_id for ue in network.user_equipments if ue.ue_id in moved
        ]
        with get_telemetry().span(
            "radio.build", path="incremental", moved=len(rows),
            ues=network.ue_count,
        ):
            fresh = _vectorized_columns(
                network, budget, rate_model, only_ues=rows
            )
            f_slices = fresh["ue_slices"]

            chunks: dict[str, list[np.ndarray]] = {
                name: []
                for name in ("ue", "bs", "dist", "sinr", "rate", "rrbs")
            }
            metrics: list[LinkMetrics | None] = []
            ue_slices: dict[int, tuple[int, int]] = {}
            cursor = 0
            for ue in network.user_equipments:
                uid = ue.ue_id
                if uid in moved:
                    start, stop = f_slices[uid]
                    chunks["ue"].append(fresh["ue_ids"][start:stop])
                    chunks["bs"].append(fresh["bs_ids"][start:stop])
                    chunks["dist"].append(fresh["distance_m"][start:stop])
                    chunks["sinr"].append(fresh["sinr"][start:stop])
                    chunks["rate"].append(fresh["rate"][start:stop])
                    chunks["rrbs"].append(fresh["rrbs"][start:stop])
                    metrics.extend([None] * (stop - start))
                    ue_slices[uid] = (cursor, cursor + stop - start)
                    cursor += stop - start
                else:
                    start, stop = self._ue_index.get(uid, (0, 0))
                    chunks["ue"].append(self._ue_ids[start:stop])
                    chunks["bs"].append(self._bs_ids[start:stop])
                    chunks["dist"].append(self._distance_m[start:stop])
                    chunks["sinr"].append(self._sinr[start:stop])
                    chunks["rate"].append(self._rate[start:stop])
                    chunks["rrbs"].append(self._rrbs[start:stop])
                    metrics.extend(self._metrics[start:stop])
                    ue_slices[uid] = (cursor, cursor + stop - start)
                    cursor += stop - start
            return RadioMap(
                ue_ids=np.concatenate(chunks["ue"]) if chunks["ue"] else np.empty(0, np.int64),
                bs_ids=np.concatenate(chunks["bs"]) if chunks["bs"] else np.empty(0, np.int64),
                distance_m=np.concatenate(chunks["dist"]) if chunks["dist"] else np.empty(0),
                sinr_linear=np.concatenate(chunks["sinr"]) if chunks["sinr"] else np.empty(0),
                per_rrb_rate_bps=np.concatenate(chunks["rate"]) if chunks["rate"] else np.empty(0),
                rrbs_required=np.concatenate(chunks["rrbs"]) if chunks["rrbs"] else np.empty(0, np.int64),
                ue_slices=ue_slices,
                _metrics=metrics,
            )

    # ------------------------------------------------------------------

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
    only_ues: Sequence[int] | None = None,
) -> dict:
    """Evaluate Eqs. 2--4 over the candidate pairs as whole-array math.

    ``only_ues`` restricts the evaluation to those UEs' rows (the
    incremental mobility path); ``None`` means every UE.
    """
    if rate_model is None:
        rate_model = per_rrb_rate_bps

    ues = network.ue_columns()
    if only_ues is None:
        # The map derives its per-UE slices from its UE-grouped ids
        # when first asked.
        ue_rows, cols, link_distances = network.candidate_pairs()
        ue_slices = None
    else:
        row_index = np.flatnonzero(
            np.isin(ues.ue_ids, np.fromiter(set(only_ues), dtype=np.int64))
        )
        ue_rows, cols, link_distances = network.candidate_pairs(row_index)
        offsets = np.searchsorted(
            ue_rows, np.append(row_index, network.ue_count)
        ).tolist()
        ue_slices = {
            ue_id: (offsets[i], offsets[i + 1])
            for i, ue_id in enumerate(ues.ue_ids[row_index].tolist())
        }

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
        "ue_slices": ue_slices,
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

    The output is link-for-link interchangeable with
    :func:`build_radio_map_reference` (pinned by the parity suite).
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
            ue_slices=columns["ue_slices"],
        )
        span.set(links=len(radio_map), ues=network.ue_count)
    return radio_map


def build_radio_map_reference(
    network: MECNetwork,
    budget: LinkBudget,
    rate_model: RateModel | None = None,
) -> RadioMap:
    """The original per-pair scalar builder (parity baseline).

    Kept as the executable specification the vectorized
    :func:`build_radio_map` is tested against.  Constant per-call
    attribute lookups (path-loss model, interference model, noise power)
    are hoisted out of the pair loop; the arithmetic is unchanged.
    """
    if rate_model is None:
        rate_model = per_rrb_rate_bps
    with get_telemetry().span("radio.build", path="reference") as span:
        loss_db = budget.pathloss.loss_db
        interference_mw = budget.interference.interference_mw
        noise_mw = budget.noise_mw
        bandwidth = budget.rrb_bandwidth_hz
        links: list[LinkMetrics] = []
        for ue in network.user_equipments:
            tx_power = ue.tx_power_dbm
            tx_mw = dbm_to_mw(tx_power)
            for bs_id in network.candidate_base_stations(ue.ue_id):
                distance = network.distance_m(ue.ue_id, bs_id)
                signal = tx_mw / db_to_linear(loss_db(distance))
                sinr = signal / (
                    noise_mw + interference_mw(distance, (), tx_power)
                )
                rate = rate_model(bandwidth, sinr)
                if rate > 0:
                    demand = rrbs_required(ue.rate_demand_bps, rate)
                else:
                    demand = network.base_station(bs_id).rrb_capacity + 1
                links.append(
                    LinkMetrics(
                        ue_id=ue.ue_id,
                        bs_id=bs_id,
                        distance_m=distance,
                        sinr_linear=sinr,
                        per_rrb_rate_bps=rate,
                        rrbs_required=demand,
                    )
                )
        span.set(links=len(links), ues=network.ue_count)
    return RadioMap.from_links(links)
