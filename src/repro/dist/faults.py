"""Deterministic fault injection for the distributed deployment.

Faults are injected at the *sender* side, inside each node, by wrapping
the node's transport channel in a :class:`FaultyChannel`.  Only the
data plane (agent messages) is perturbed — the supervisor's control
frames (ticks, done-acks) are never dropped or delayed, mirroring a
deployment where the orchestration plane is reliable but the agent
gossip is not.

Determinism: each node derives its RNG from ``plan.seed`` XOR a CRC of
its own name, so a scenario replays bit-identically regardless of
transport, process interleaving, or wall-clock timing.

Faults are active only while ``round <= plan.horizon_rounds``: any
finite execution window sees finitely many faults, which is what makes
*guaranteed* termination provable rather than merely almost-sure — the
system provably quiesces once the fault window closes and held messages
drain.  BS crashes are scheduled separately (:attr:`FaultPlan.crashes`)
and executed by the supervisor via control frames; the channel wrapper
never sees them.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_SCENARIOS",
    "CrashEvent",
    "FaultPlan",
    "FaultyChannel",
    "scenario_plan",
]


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """BS ``bs_id`` crashes at the start of ``at_round`` and stays down
    for ``down_rounds`` full rounds, losing its ledger (epoch bump)."""

    bs_id: int
    at_round: int
    down_rounds: int = 2


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """What to inject, where, and for how long."""

    seed: int = 0
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_rounds: int = 2
    #: Restrict drop/delay to these wire kinds; ``None`` = all kinds.
    kinds: tuple[str, ...] | None = None
    #: Probabilistic faults fire only in rounds <= horizon_rounds.
    horizon_rounds: int = 12
    crashes: tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        # A frame dropped for sure could never get through, but one
        # delayed for sure still arrives: with ``delay_prob == 1`` every
        # eligible frame is held exactly ``delay_rounds`` (the staleness
        # ablation's plan), and the finite horizon still ends the run.
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigurationError(
                f"drop_prob must be in [0, 1), got {self.drop_prob}"
            )
        if not 0.0 <= self.delay_prob <= 1.0:
            raise ConfigurationError(
                f"delay_prob must be in [0, 1], got {self.delay_prob}"
            )
        if self.delay_rounds < 1:
            raise ConfigurationError(
                f"delay_rounds must be >= 1, got {self.delay_rounds}"
            )
        if self.horizon_rounds < 0:
            raise ConfigurationError(
                f"horizon_rounds must be >= 0, got {self.horizon_rounds}"
            )

    @property
    def last_crash_clear_round(self) -> int:
        """First round by which every scheduled crash has recovered."""
        return max(
            (c.at_round + c.down_rounds for c in self.crashes), default=0
        )


#: Named scenarios selectable via ``dmra agents --faults``.
FAULT_SCENARIOS = ("none", "drop", "delay", "stale", "crash")


def scenario_plan(
    name: str, seed: int = 0, crash_bs_id: int = 0
) -> FaultPlan | None:
    """The canonical fault plan for a named CLI/test scenario."""
    if name == "none":
        return None
    if name == "drop":
        return FaultPlan(seed=seed, drop_prob=0.25)
    if name == "delay":
        return FaultPlan(seed=seed, delay_prob=0.35, delay_rounds=2)
    if name == "stale":
        # Only resource broadcasts lag: UEs keep proposing on outdated
        # capacity views, the regime of the staleness ablation.
        return FaultPlan(
            seed=seed, delay_prob=0.5, delay_rounds=3, kinds=("bcast",)
        )
    if name == "crash":
        return FaultPlan(
            seed=seed,
            crashes=(CrashEvent(bs_id=crash_bs_id, at_round=3, down_rounds=2),),
        )
    raise ConfigurationError(
        f"unknown fault scenario {name!r}; choose one of "
        f"{', '.join(FAULT_SCENARIOS)}"
    )


@dataclass
class FaultStats:
    dropped: int = 0
    delayed: int = 0
    released: int = 0

    def as_dict(self) -> dict[str, int]:
        """The tallies as a plain dict (for done-acks and reports)."""
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "released": self.released,
        }


class FaultyChannel:
    """Sender-side channel wrapper injecting drops and delays.

    Wraps the transport channel a node runtime uses for *data* frames.
    Held (delayed) frames are flushed the next time the node is active
    in a round at or past their release round, and are counted in that
    phase's sent tally — the count-based barrier therefore stays exact
    under arbitrary delays.
    """

    def __init__(self, channel, plan: FaultPlan | None, node_name: str) -> None:
        self._channel = channel
        self._plan = plan
        self._rng = random.Random(
            0 if plan is None else plan.seed ^ zlib.crc32(node_name.encode())
        )
        self._held: list[tuple[int, str, dict]] = []  # (release, dst, frame)
        self.stats = FaultStats()

    @property
    def held_count(self) -> int:
        return len(self._held)

    def send_data(
        self, dst: str, frame: dict, round_no: int
    ) -> list[tuple[str, str, int]]:
        """Send a data frame through the fault plan.

        Returns the ``(dst, kind, bytes)`` records of frames actually
        put on the wire — empty when the frame was dropped or is being
        held for later release.  The caller folds these records into its
        done-ack so the supervisor's count-based barrier stays exact.
        """
        plan = self._plan
        kind = frame.get("msg", {}).get("k", "?")
        if plan is not None and round_no <= plan.horizon_rounds:
            eligible = plan.kinds is None or kind in plan.kinds
            if eligible and plan.drop_prob and self._rng.random() < plan.drop_prob:
                self.stats.dropped += 1
                return []
            if eligible and plan.delay_prob and self._rng.random() < plan.delay_prob:
                self.stats.delayed += 1
                self._held.append((round_no + plan.delay_rounds, dst, frame))
                return []
        return [(dst, kind, self._channel.send(dst, frame))]

    def flush(self, round_no: int) -> list[tuple[str, str, int]]:
        """Release held frames whose delay has elapsed; returns their
        ``(dst, kind, bytes)`` send records."""
        if not self._held:
            return []
        due = [h for h in self._held if h[0] <= round_no]
        if not due:
            return []
        self._held = [h for h in self._held if h[0] > round_no]
        records = []
        for _, dst, frame in due:
            kind = frame.get("msg", {}).get("k", "?")
            records.append((dst, kind, self._channel.send(dst, frame)))
            self.stats.released += 1
        return records
