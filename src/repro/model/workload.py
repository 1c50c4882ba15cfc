"""Workload generation: UE demands per the paper's simulation setup.

§VI.A fixes, per UE: a uniformly chosen requested service, a CRU demand
``c_j^u ~ U{3..5}``, a rate demand ``w_u ~ U[2, 6] Mbps``, and 10 dBm
transmit power.  :class:`WorkloadModel` captures those distributions with
configurable bounds so ablations can stress other regimes (e.g. heavy
tasks or skewed service popularity).

:func:`draw_ue_columns` draws a whole population from one block of raw
PCG64 outputs and decodes it the way NumPy's per-call methods would have
consumed it, so the UE columns and the generator state left behind are
bit-identical to drawing UE by UE (see ``_decode_draws``).
:func:`generate_user_equipments` is that decode plus one
:class:`~repro.model.entities.UserEquipment` per UE.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.model.entities import UEColumns, UserEquipment
from repro.model.geometry import Point

__all__ = ["WorkloadModel", "draw_ue_columns", "generate_user_equipments"]


@dataclass(frozen=True, slots=True)
class WorkloadModel:
    """Distributions for per-UE demands.

    ``service_popularity`` optionally skews which service a UE requests;
    when ``None`` all services are equally likely (the paper's setting).
    """

    cru_demand_min: int = 3
    cru_demand_max: int = 5
    rate_demand_min_bps: float = 2e6
    rate_demand_max_bps: float = 6e6
    tx_power_dbm: float = 10.0
    service_popularity: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (
            not _finite(self.cru_demand_min, self.cru_demand_max)
            or self.cru_demand_min <= 0
            or self.cru_demand_max < self.cru_demand_min
        ):
            raise ConfigurationError(
                f"invalid CRU demand range "
                f"[{self.cru_demand_min}, {self.cru_demand_max}]"
            )
        if (
            not _finite(self.rate_demand_min_bps, self.rate_demand_max_bps)
            or self.rate_demand_min_bps <= 0
            or self.rate_demand_max_bps < self.rate_demand_min_bps
        ):
            raise ConfigurationError(
                f"invalid rate demand range "
                f"[{self.rate_demand_min_bps}, {self.rate_demand_max_bps}]"
            )
        if self.service_popularity is not None:
            weights = np.asarray(self.service_popularity, dtype=float)
            if (
                weights.size == 0
                or not np.all(np.isfinite(weights))
                or np.any(weights < 0)
                or weights.sum() <= 0
            ):
                raise ConfigurationError(
                    f"invalid service_popularity {self.service_popularity!r}"
                )

    def draw_service(self, service_count: int, rng: np.random.Generator) -> int:
        """Pick the requested service id for one UE."""
        if service_count <= 0:
            raise ConfigurationError("service_count must be > 0")
        if self.service_popularity is None:
            return int(rng.integers(service_count))
        weights = np.asarray(self.service_popularity, dtype=float)
        if weights.size != service_count:
            raise ConfigurationError(
                f"service_popularity has {weights.size} entries "
                f"but there are {service_count} services"
            )
        probabilities = weights / weights.sum()
        return int(rng.choice(service_count, p=probabilities))

    def draw_cru_demand(self, rng: np.random.Generator) -> int:
        """Draw ``c_j^u`` (integer, inclusive bounds)."""
        return int(rng.integers(self.cru_demand_min, self.cru_demand_max + 1))

    def draw_rate_demand_bps(self, rng: np.random.Generator) -> float:
        """Draw ``w_u`` in bits/s."""
        return float(
            rng.uniform(self.rate_demand_min_bps, self.rate_demand_max_bps)
        )


def _finite(*values: float) -> bool:
    """Whether every value is a finite number (NaN and +-inf are not;
    Python ints always are, however large)."""
    return all(
        isinstance(value, int) or math.isfinite(value) for value in values
    )


def draw_ue_columns(
    xy: np.ndarray | Sequence[tuple[float, float]],
    sp_count: int,
    service_count: int,
    workload: WorkloadModel,
    rng: np.random.Generator,
    start_ue_id: int = 0,
) -> UEColumns:
    """Draw the demands of UEs at positions ``xy``, as columns.

    Each UE subscribes to a uniformly random SP (the paper gives no
    subscription skew) and requests one service per ``workload``; ids
    run from ``start_ue_id`` in row order.

    Per UE the draws are, in order: ``rng.integers(sp_count)``, the
    service (:meth:`WorkloadModel.draw_service`), the CRU demand and the
    rate demand.  The values and the state ``rng`` is left in are
    exactly those of making these calls UE by UE; on the common path
    they are decoded from one block of raw outputs instead
    (``_decode_draws``).  The per-UE calls remain the fallback for
    service popularity weights, one-value integer ranges, bit generators
    other than PCG64, a block whose decode would take Lemire's rejection
    branch, and a process whose one-time self-check finds the decode and
    NumPy's per-call draws differ.
    """
    if sp_count <= 0:
        raise ConfigurationError(f"sp_count must be > 0, got {sp_count}")
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    count = len(xy)
    draws = None
    if count and workload.service_popularity is None:
        draws = _decode_draws(
            rng,
            count,
            ((0, sp_count), (0, service_count),
             (workload.cru_demand_min, workload.cru_demand_max + 1)),
            (workload.rate_demand_min_bps, workload.rate_demand_max_bps),
        )
    if draws is None:
        draws = _draw_per_ue(count, sp_count, service_count, workload, rng)
    sp_ids, service_ids, cru_demands, rate_demands = draws
    return UEColumns(
        ue_ids=np.arange(start_ue_id, start_ue_id + count, dtype=np.int64),
        sp_ids=sp_ids,
        xy=xy,
        service_ids=service_ids,
        cru_demand=cru_demands,
        rate_demand_bps=rate_demands,
        tx_power_dbm=np.full(count, workload.tx_power_dbm, dtype=float),
    )


def generate_user_equipments(
    positions: Sequence[Point],
    sp_count: int,
    service_count: int,
    workload: WorkloadModel,
    rng: np.random.Generator,
    start_ue_id: int = 0,
) -> list[UserEquipment]:
    """Materialize UEs at the given positions with sampled demands.

    :func:`draw_ue_columns` followed by
    :meth:`~repro.model.entities.UEColumns.materialize`: the same draws,
    the same generator state afterwards, one object per UE.
    """
    return draw_ue_columns(
        [p.as_tuple() for p in positions], sp_count, service_count,
        workload, rng, start_ue_id,
    ).materialize()


def _draw_per_ue(
    count: int,
    sp_count: int,
    service_count: int,
    workload: WorkloadModel,
    rng: np.random.Generator,
) -> tuple[list, ...]:
    """The UE-by-UE draws that define :func:`draw_ue_columns`."""
    draws: tuple[list, ...] = ([], [], [], [])
    for _ in range(count):
        draws[0].append(int(rng.integers(sp_count)))
        draws[1].append(workload.draw_service(service_count, rng))
        draws[2].append(workload.draw_cru_demand(rng))
        draws[3].append(workload.draw_rate_demand_bps(rng))
    return draws


# ----------------------------------------------------------------------
# Bulk decode of NumPy's per-call draws
# ----------------------------------------------------------------------
#
# For ``Generator(PCG64)`` a scalar ``integers(low, high)`` whose range
# ``r = high - 1 - low`` satisfies ``0 < r < 2**32 - 1`` takes one 32-bit
# draw ``x`` and returns ``low + (x * (r + 1) >> 32)`` (Lemire's bounded
# integers), rejecting ``x`` and drawing again when the low 32 bits of
# ``x * (r + 1)`` fall below ``2**32 % (r + 1)``.  PCG64 serves 32-bit
# draws in halves of one 64-bit output: the low half now, the high half
# buffered (``has_uint32`` / ``uinteger``) for the next 32-bit draw.  A
# scalar ``uniform(low, high)`` takes one 64-bit output ``v``, bypassing
# the buffer, and returns ``low + (high - low) * ((v >> 11) * 2**-53)``.
# Replaying that schedule over ``random_raw`` outputs reproduces the
# per-call results and the generator's final state exactly.

#: ``2**-53``: scales a 53-bit integer to a double in ``[0, 1)``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW32 = np.uint64(0xFFFFFFFF)


def _decode_draws(
    rng: np.random.Generator,
    count: int,
    int_bounds: tuple[tuple[int, int], ...],
    rate_bounds: tuple[float, float],
) -> tuple[np.ndarray, ...] | None:
    """Per UE: one ``rng.integers(low, high)`` per ``int_bounds`` entry,
    then ``rng.uniform(*rate_bounds)``; ``count`` UEs, decoded in bulk.

    Returns one array per draw (int64 integer draws first, then the
    float64 rates), or ``None`` when the decode cannot reproduce the
    per-call draws; ``rng`` is then exactly as it was on entry.
    """
    if not isinstance(rng, np.random.Generator) or (
        type(rng.bit_generator) is not np.random.PCG64
    ):
        return None
    try:
        bounds = [
            (operator.index(low), operator.index(high))
            for low, high in int_bounds
        ]
    except TypeError:
        return None
    if not all(0 < high - 1 - low < 0xFFFFFFFF for low, high in bounds):
        return None
    if not _decoder_agrees():
        return None
    return _decode(rng.bit_generator, count, bounds, rate_bounds)


def _decode(
    bit_generator: np.random.PCG64,
    count: int,
    bounds: list[tuple[int, int]],
    rate_bounds: tuple[float, float],
) -> tuple[np.ndarray, ...] | None:
    """The decode proper (see the comment block above)."""
    saved = bit_generator.state
    buffered = saved["has_uint32"]
    per_ue = len(bounds)
    # The 32-bit draws the buffer does not serve take one 64-bit output
    # per pair.  Pair p starts at 32-bit draw 2p + buffered, so the
    # doubles of the (2p + buffered) // per_ue UEs before it were drawn
    # first.  UE i's double follows the pairs its own 32-bit draws start.
    fresh = count * per_ue - buffered
    pairs = (fresh + 1) // 2
    raw = bit_generator.random_raw(pairs + count)
    pair = np.arange(pairs, dtype=np.int64)
    pair_raw = raw[pair + (2 * pair + buffered) // per_ue]
    ue = np.arange(count, dtype=np.int64)
    double_raw = raw[(per_ue * ue + per_ue - 1 - buffered) // 2 + 1 + ue]

    halves = np.empty((pairs, 2), dtype=np.uint64)
    halves[:, 0] = pair_raw & _LOW32
    halves[:, 1] = pair_raw >> np.uint64(32)
    words = halves.ravel()[:fresh]
    if buffered:
        words = np.concatenate(([np.uint64(saved["uinteger"])], words))
    words = words.reshape(count, per_ue)

    draws = []
    for k, (low, high) in enumerate(bounds):
        span = np.uint64(high - low)
        scaled = words[:, k] * span
        if np.any((scaled & _LOW32) < np.uint64((1 << 32) % (high - low))):
            bit_generator.state = saved
            return None
        draws.append((scaled >> np.uint64(32)).astype(np.int64) + low)
    low, high = float(rate_bounds[0]), float(rate_bounds[1])
    unit = (double_raw >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE
    draws.append(low + (high - low) * unit)

    state = bit_generator.state
    state["has_uint32"] = fresh & 1
    state["uinteger"] = int(pair_raw[-1] >> np.uint64(32))
    bit_generator.state = state
    return tuple(draws)


@functools.cache
def _decoder_agrees() -> bool:
    """Decode a short fixed probe both ways, bulk and per call, once per
    process.

    Compares every draw and the generator's state afterwards, from an
    empty and from a filled 32-bit buffer.  A difference (say, a NumPy
    build that fuses ``uniform``'s multiply-add) turns the bulk path off
    for the process.
    """
    bounds = [(0, 5), (0, 3), (3, 6)]
    rate_bounds = (2e6, 6e6)
    for prefill in (0, 1):
        bulk = np.random.Generator(np.random.PCG64(20190707))
        calls = np.random.Generator(np.random.PCG64(20190707))
        for rng in (bulk, calls):
            rng.integers(5, size=prefill)
        decoded = _decode(bulk.bit_generator, 7, bounds, rate_bounds)
        expected: list[list] = [[] for _ in range(len(bounds) + 1)]
        for _ in range(7):
            for k, (low, high) in enumerate(bounds):
                expected[k].append(int(calls.integers(low, high)))
            expected[-1].append(float(calls.uniform(*rate_bounds)))
        if decoded is None or [d.tolist() for d in decoded] != expected:
            return False
        if bulk.bit_generator.state != calls.bit_generator.state:
            return False
    return True
