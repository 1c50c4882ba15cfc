"""Node bodies of the distributed deployment: one per BS, SP, UE shard.

Each node is a :class:`NodeRuntime` that takes frames one at a time
through :meth:`NodeRuntime.deliver` — the in-process transport calls it
as each frame is sent, a forked node's :meth:`NodeRuntime.run` loop
after each receive — and delegates phase work to a handler that wraps
the transport-agnostic agents of :mod:`repro.core.agents`.  Nothing
here assumes a particular transport; the runtime sees only a channel.

## Frame protocol

Control plane (reliable, never fault-injected):

* ``{"t": "tick", "phase": p, "round": r, "expect": n}`` — run phase
  ``p``; exactly ``n`` data frames addressed to this node are in flight
  and must be consumed first (the count-based barrier).
* ``{"t": "done", "src", "round", "phase", "counts": {dst: n},
  "sent_kinds": {kind: n}, "held": h, "extra": {...}}`` — phase
  complete; ``counts`` feeds the next barriers, ``held`` reports frames
  the fault injector still delays.
* ``{"t": "crash", "down": k}`` — BS only: wipe the ledger (epoch
  bump), discard everything for ``k`` rounds.
* ``{"t": "collect"}`` / ``{"t": "result", ...}`` — final state and
  accounting harvest.
* ``{"t": "stop"}`` — exit.
* ``{"t": "fail", "src", "error"}`` — a forked node's last frame when
  its loop raises: the supervisor stops the run with the node's error
  instead of waiting out its receive timeout.

Data plane: ``{"t": "msg", "src": name, "msg": to_wire(message)}``,
routed sender → destination, subject to fault injection.
"""

from __future__ import annotations

from collections import Counter

from repro.core.agents import BSAgent, SPAgent, UEAgent
from repro.core.messages import (
    AssociationGrant,
    CloudFallbackNotice,
    ReleaseNotice,
    ResourceBroadcast,
    ServiceRequest,
    from_wire,
    to_wire,
)
from repro.dist.faults import FaultPlan, FaultyChannel
from repro.dist.transport import Channel, trace_context_of
from repro.errors import AllocationError
from repro.obs.histogram import DEFAULT_DEPTH_BOUNDS as _MSG_BOUNDS
from repro.obs.telemetry import FlightRecorder, Recorder
from repro.obs.trace import span_to_payload

__all__ = [
    "NodeRuntime",
    "BSNodeHandler",
    "SPNodeHandler",
    "UEHostHandler",
    "ue_host_name",
]


def ue_host_name(ue_id: int, ue_hosts: int) -> str:
    """The node hosting a UE: shard by ``ue_id`` modulo host count."""
    return f"ue:{ue_id % ue_hosts}"


class NodeRuntime:
    """Drives one node: barrier-consume data frames, run the handler,
    report counts.  Frames come in through :meth:`deliver`, called by
    the in-process transport as each frame is sent and by :meth:`run`
    in a forked node."""

    def __init__(
        self,
        channel: Channel,
        handler,
        plan: FaultPlan | None = None,
        recv_timeout: float = 60.0,
        trace: dict | None = None,
    ) -> None:
        self.channel = channel
        self.handler = handler
        self.faulty = FaultyChannel(channel, plan, channel.name)
        self.recv_timeout = recv_timeout
        self._data_buf: list[dict] = []
        # A tick waiting for its data frames; a node takes no other
        # control frame until the tick's phase has run.
        self._tick: dict | None = None
        self._stopped = False
        self.msgs_sent: Counter = Counter()  # kind -> frames
        self.bytes_sent: Counter = Counter()  # kind -> bytes
        # Mutable per-phase tallies, rebound in _run_phase.
        self._phase_counts: Counter = Counter()
        self._phase_kinds: Counter = Counter()
        self._round = 0
        # Cross-process tracing: when the supervisor runs a recorder it
        # ships {trace_id, epoch_s} at spawn; this node then records
        # its phase spans into its *own* recorder, on the supervisor's
        # timeline (perf_counter is fork-consistent on Linux), and the
        # harvest grafts them under the supervisor's phase spans.
        self.trace_id = None if trace is None else trace.get("trace_id")
        epoch_s = None if trace is None else trace.get("epoch_s")
        self.recorder = (
            Recorder(epoch_s=epoch_s)
            if self.trace_id is not None and epoch_s is not None
            else None
        )
        # Always-on bounded postmortem ring: one tuple append per
        # phase, dumped on crash frames.
        self.flight = FlightRecorder(capacity=128)
        self._postmortems: list[dict] = []

    # -- sending (handlers call this via the bound method) ---------------

    def send_message(self, dst: str, message) -> None:
        """Send one agent message through the fault injector."""
        frame = {"t": "msg", "src": self.channel.name, "msg": to_wire(message)}
        self._tally(self.faulty.send_data(dst, frame, self._round))

    def _tally(self, records: list[tuple[str, str, int]]) -> None:
        for dst, kind, nbytes in records:
            self._phase_counts[dst] += 1
            self._phase_kinds[kind] += 1
            self.msgs_sent[kind] += 1
            self.bytes_sent[kind] += nbytes

    # -- frame handling ---------------------------------------------------

    def run(self) -> None:
        """A forked node's loop: receive and deliver frames until stop.

        An error is reported to the supervisor as a ``fail`` frame
        before it propagates."""
        try:
            while not self._stopped:
                frame = self.channel.recv(timeout=self.recv_timeout)
                if frame is None:
                    if self._tick is None:
                        raise AllocationError(
                            f"node {self.channel.name}: no control frame "
                            f"within {self.recv_timeout}s (supervisor gone?)"
                        )
                    raise AllocationError(
                        f"node {self.channel.name}: expected "
                        f"{self._tick['expect']} data frames for phase "
                        f"{self._tick['phase']!r}, got {len(self._data_buf)}"
                    )
                self.deliver(frame)
        except Exception as exc:
            self.channel.send(
                "sup",
                {"t": "fail", "src": self.channel.name, "error": repr(exc)},
            )
            raise

    def deliver(self, frame: dict) -> None:
        """Take one frame without blocking: buffer a data frame, or
        handle one control frame.  A tick runs its phase once the data
        frames it expects (the count-based barrier) are all buffered."""
        kind = frame["t"]
        if kind == "msg":
            self._data_buf.append(frame)
        elif self._tick is not None:
            raise AllocationError(
                f"node {self.channel.name}: control frame {kind!r} "
                f"arrived mid-barrier"
            )
        elif kind == "tick":
            self._tick = frame
        elif kind == "stop":
            self._stopped = True
            self.channel.close()
        elif kind == "crash":
            # Snapshot the ring *before* the handler wipes state: the
            # postmortem must show the moments leading up to the crash,
            # not the recovery.
            self.flight.note("crash", down=frame["down"])
            self._postmortems.append(self.flight.dump())
            self.handler.on_crash(frame["down"])
        elif kind == "collect":
            self.channel.send("sup", self._result_frame())
        else:
            raise AllocationError(
                f"node {self.channel.name}: unexpected control frame "
                f"{kind!r}"
            )
        tick = self._tick
        if tick is not None and len(self._data_buf) >= tick["expect"]:
            self._tick = None
            self._run_phase(tick)

    def _run_phase(self, tick: dict) -> None:
        phase, expect = tick["phase"], tick["expect"]
        self._round = tick["round"]
        self.flight.note(
            "tick", phase=phase, round=self._round, expect=expect
        )
        if self.recorder is not None:
            _, parent_ref = trace_context_of(tick) or (
                None, f"r{self._round}.{phase}",
            )
            with self.recorder.span(
                f"node.{phase}",
                node=self.channel.name,
                round=self._round,
                trace_id=self.trace_id,
                parent_ref=parent_ref,
            ):
                self._phase_body(phase, expect)
        else:
            self._phase_body(phase, expect)

    def _phase_body(self, phase: str, expect: int) -> None:
        batch = self._data_buf[:expect]
        del self._data_buf[:expect]
        # Canonicalize the batch order: cross-sender interleaving is
        # scheduler-dependent, and the fault injector's RNG draws map to
        # sends in processing order — without this sort the same plan
        # would drop *different* messages run to run.  The sort is
        # stable, so the per-sender FIFO order (the one guarantee the
        # transports make) is preserved within each sender.
        batch.sort(key=lambda f: f["src"])
        messages = [from_wire(f["msg"]) for f in batch]

        self._phase_counts = Counter()
        self._phase_kinds = Counter()
        self.handler.on_tick(phase, self._round, messages, self.send_message)
        self._tally(self.faulty.flush(self._round))
        if self.recorder is not None:
            self.recorder.observe(
                f"dist.node_msgs.{phase}",
                sum(self._phase_counts.values()),
                bounds=_MSG_BOUNDS,
            )
        self.channel.send(
            "sup",
            {
                "t": "done",
                "src": self.channel.name,
                "round": self._round,
                "phase": phase,
                "counts": dict(self._phase_counts),
                "sent_kinds": dict(self._phase_kinds),
                "held": self.faulty.held_count,
                "extra": self.handler.done_extra(),
            },
        )

    def _result_frame(self) -> dict:
        frame = {
            "t": "result",
            "src": self.channel.name,
            "state": self.handler.state(),
            "msgs": dict(self.msgs_sent),
            "bytes": dict(self.bytes_sent),
            "faults": self.faulty.stats.as_dict(),
        }
        if self.recorder is not None:
            frame["spans"] = [
                span_to_payload(root) for root in self.recorder.roots
            ]
            frame["hists"] = {
                name: hist.to_payload()
                for name, hist in sorted(self.recorder.histograms.items())
            }
        if self._postmortems:
            frame["flight"] = list(self._postmortems)
        return frame


class BSNodeHandler:
    """One base station process: broadcast + decide phases."""

    def __init__(
        self,
        agent: BSAgent,
        bcast_dsts: tuple[str, ...],
        always_broadcast: bool,
    ) -> None:
        self.agent = agent
        self.bcast_dsts = bcast_dsts
        # Under fault injection a skipped re-broadcast could never be
        # retried, starving UEs of the state they need to converge; a
        # reliable transport keeps the skip-unchanged optimization.
        self.always_broadcast = always_broadcast
        self._last_sent: ResourceBroadcast | None = None
        self._ue_sp: dict[int, int] = {}
        self._down = 0
        self.regrants = 0
        self.releases = 0

    def on_crash(self, down_rounds: int) -> None:
        """Wipe the ledger (epoch bump) and go dark for ``down_rounds``."""
        self.agent.reset()
        self._last_sent = None
        self._down = down_rounds

    def on_tick(self, phase, round_no, messages, send) -> None:
        """Ingest requests; broadcast in ``bcast``, grant in ``decide``."""
        if phase not in ("bcast", "decide"):
            raise AllocationError(f"BS node: unexpected phase {phase!r}")
        # Requests normally arrive in the decide barrier, but a request
        # held by a fault injector can be released into the bcast one;
        # ingest in either phase (they wait in the mailbox until the
        # round's decide step).
        if self._down == 0:
            for request in messages:
                if isinstance(request, ReleaseNotice):
                    # A UE walked away from a proposal (or declined a
                    # duplicate grant): free the booking so it is not
                    # stranded at assembly.  Unknown UE / stale epoch
                    # notices are no-ops inside release().
                    if self.agent.release(request.ue_id, request.epoch):
                        self.releases += 1
                    continue
                if not isinstance(request, ServiceRequest):
                    continue
                self._ue_sp[request.ue_id] = request.sp_id
                existing = self.agent.grant_for(request.ue_id)
                if existing is not None:
                    # Duplicate/retried request from a UE we already
                    # serve: resend the grant instead of double-booking
                    # the ledger.
                    self.regrants += 1
                    send(f"sp:{request.sp_id}", existing)
                    continue
                self.agent.deliver(request)
        if phase == "bcast":
            if self._down > 0:
                return
            broadcast = self.agent.broadcast()
            if not self.always_broadcast and broadcast.same_resources(
                self._last_sent
            ):
                return
            self._last_sent = broadcast
            for dst in self.bcast_dsts:
                send(dst, broadcast)
            return
        if self._down > 0:
            # Down: the round's requests were discarded above; grant
            # nothing.  The down counter decrements once per round,
            # here, because decide is the round's last BS phase.
            self._down -= 1
            return
        for grant in self.agent.process_round():
            send(f"sp:{self._ue_sp[grant.ue_id]}", grant)

    def done_extra(self) -> dict:
        """Ack payload: rounds of outage remaining."""
        return {"down": self._down}

    def state(self) -> dict:
        """Harvest payload: booked grants, epoch, regrant count."""
        return {
            "grants": [to_wire(g) for g in map(self._as_message, self.agent.ledger.grants.values())],
            "epoch": self.agent.epoch,
            "regrants": self.regrants,
            "releases": self.releases,
        }

    def _as_message(self, grant) -> AssociationGrant:
        return AssociationGrant(
            bs_id=grant.bs_id,
            ue_id=grant.ue_id,
            service_id=grant.service_id,
            crus=grant.crus,
            rrbs=grant.rrbs,
            epoch=self.agent.epoch,
        )


class SPNodeHandler:
    """One service provider process: the relay layer, with round-based
    retry/timeout/backoff for requests that vanish between SP and BS."""

    def __init__(
        self,
        agent: SPAgent,
        ue_hosts: int,
        retry_timeout_rounds: int = 2,
        max_retries: int = 4,
    ) -> None:
        self.agent = agent
        self.ue_hosts = ue_hosts
        self.retry_timeout_rounds = retry_timeout_rounds
        self.max_retries = max_retries
        # ue_id -> [request, last_relay_round, sp_initiated_retries]
        self._pending: dict[int, list] = {}
        self.retransmits = 0
        self.releases_relayed = 0

    def on_tick(self, phase, round_no, messages, send) -> None:
        """Relay whatever arrived; sweep the retry table in relay_req."""
        if phase not in ("relay_req", "relay_grant"):
            raise AllocationError(f"SP node: unexpected phase {phase!r}")
        # Dispatch on message type, not phase: under injected delays a
        # late-released grant can land in a relay_req barrier (and a
        # late request in a relay_grant one) — both are still relayed.
        for message in messages:
            if isinstance(message, CloudFallbackNotice):
                # The UE gave up; nothing left to retry for it.
                self.agent.forward_to_cloud(message)
                self._pending.pop(message.ue_id, None)
            elif isinstance(message, ReleaseNotice):
                # The UE walked away from that BS: relay the release and
                # stop retrying the matching request, if any.
                self.releases_relayed += 1
                entry = self._pending.get(message.ue_id)
                if (
                    entry is not None
                    and entry[0].target_bs_id == message.bs_id
                ):
                    del self._pending[message.ue_id]
                send(f"bs:{message.bs_id}", message)
            elif isinstance(message, AssociationGrant):
                relayed = self.agent.relay_grant(message)
                self._pending.pop(relayed.ue_id, None)
                send(ue_host_name(relayed.ue_id, self.ue_hosts), relayed)
            elif isinstance(message, ServiceRequest):
                request = self.agent.relay_request(message)
                entry = self._pending.get(request.ue_id)
                if entry is None or entry[0].target_bs_id != request.target_bs_id:
                    self._pending[request.ue_id] = [request, round_no, 0]
                else:
                    entry[0], entry[1] = request, round_no
                send(f"bs:{request.target_bs_id}", request)
        if phase == "relay_req":
            self._retry_sweep(round_no, send)

    def _retry_sweep(self, round_no: int, send) -> None:
        """SP-initiated retransmission: a relayed request with no grant
        and no fresh re-proposal for ``timeout * 2^retries`` rounds is
        resent; after ``max_retries`` the entry is abandoned (the UE's
        own re-proposal loop remains the end-to-end backstop)."""
        exhausted = []
        for ue_id, entry in self._pending.items():
            request, last_round, retries = entry
            if retries >= self.max_retries:
                exhausted.append(ue_id)
                continue
            backoff = self.retry_timeout_rounds * (2**retries)
            if round_no - last_round >= backoff:
                self.retransmits += 1
                entry[1], entry[2] = round_no, retries + 1
                self.agent.requests_relayed += 1
                send(f"bs:{request.target_bs_id}", request)
        for ue_id in exhausted:
            del self._pending[ue_id]

    def done_extra(self) -> dict:
        """Ack payload: requests still awaiting a grant (termination gate)."""
        return {"pending": len(self._pending)}

    def state(self) -> dict:
        """Harvest payload: relay counters and cloud-forwarded UEs."""
        return {
            "sp_id": self.agent.sp_id,
            "requests_relayed": self.agent.requests_relayed,
            "grants_relayed": self.agent.grants_relayed,
            "cloud_forwards": self.agent.cloud_forwards,
            "cloud_ue_ids": sorted(self.agent.cloud_ue_ids),
            "retransmits": self.retransmits,
            "releases_relayed": self.releases_relayed,
        }


class UEHostHandler:
    """One UE shard process: observe broadcasts, propose, track grants."""

    def __init__(
        self, agents: dict[int, UEAgent], resend_releases: bool = False
    ) -> None:
        self.agents = agents
        self._order = sorted(agents)
        # BS id -> the agents it may broadcast to, from their initial
        # candidates: candidates only shrink, and a UE is associated
        # only with a BS it proposed to, so no later receiver is missed.
        self._covered: dict[int, list[UEAgent]] = {}
        for agent in agents.values():
            for bs_id in agent.candidate_bs_ids:
                self._covered.setdefault(bs_id, []).append(agent)
        # Release notices have no ack; under fault injection a dropped
        # one would strand the booking it frees, so the host keeps every
        # notice and re-sends the book each round (the BS ignores
        # duplicates).  A reliable transport sends each notice once.
        self.resend_releases = resend_releases
        self._release_book: dict[tuple[int, int, int], ReleaseNotice] = {}

    def on_tick(self, phase, round_no, messages, send) -> None:
        """Apply grants, then broadcasts, then run every UE's proposal."""
        if phase != "propose":
            raise AllocationError(f"UE host: unexpected phase {phase!r}")
        # Grants first: a grant voided by a crash (stale epoch) must be
        # applied before the epoch-bumped broadcast that disassociates
        # the UE, or the void association would survive the batch.
        for message in messages:
            if isinstance(message, AssociationGrant):
                self.agents[message.ue_id].receive_grant(message)
        for message in messages:
            if isinstance(message, ResourceBroadcast):
                bs_id = message.bs_id
                for agent in self._covered.get(bs_id, ()):
                    if agent.has_candidate(bs_id) or (
                        agent.associated_bs == bs_id
                    ):
                        agent.observe(message)
        for ue_id in self._order:
            proposal = self.agents[ue_id].propose()
            if proposal is not None:
                send(f"sp:{proposal.sp_id}", proposal)
        fresh: list[tuple[int, int, int]] = []
        for ue_id in self._order:
            for notice in self.agents[ue_id].drain_releases():
                key = (notice.ue_id, notice.bs_id, notice.epoch)
                if key not in self._release_book:
                    self._release_book[key] = notice
                    fresh.append(key)
        # Rescind releases for BSs the UE has since re-proposed to: a
        # re-sent notice arriving after the new grant would free the
        # legitimate booking and orphan the association.
        rescinded = [
            key
            for key in self._release_book
            if not self.agents[key[0]].still_released(key[1])
        ]
        for key in rescinded:
            del self._release_book[key]
            if key in fresh:
                fresh.remove(key)
        if self.resend_releases:
            for key in sorted(self._release_book):
                notice = self._release_book[key]
                send(f"sp:{notice.sp_id}", notice)
        else:
            for key in fresh:
                notice = self._release_book[key]
                send(f"sp:{notice.sp_id}", notice)

    def done_extra(self) -> dict:
        """Ack payload: UE hosts report nothing extra."""
        return {}

    def state(self) -> dict:
        """Harvest payload: each UE's association (or cloud fallback)."""
        return {
            "associated": {
                str(ue_id): agent.associated_bs
                for ue_id, agent in self.agents.items()
                if agent.associated_bs is not None
            },
            "cloud": sorted(
                ue_id
                for ue_id, agent in self.agents.items()
                if agent.associated_bs is None
            ),
        }
