"""The deployment supervisor: lockstep round protocol + accounting.

:class:`DistributedDMRAAllocator` is a drop-in
:class:`~repro.core.allocator.Allocator` that runs DMRA across real node
bodies — one per BS, one per SP, one per UE shard — over a pluggable
transport.  The supervisor is *not* a coordinator in the algorithmic
sense: it never sees resource state or makes allocation decisions; it
only sequences rounds and counts messages, the role a shared clock (or
the paper's implicit round synchrony) plays in Alg. 1.

## Round protocol

Every round runs five phases, each a tick/done exchange with one node
group::

    bcast (BS) -> propose (UE) -> relay_req (SP) -> decide (BS)
                                                 -> relay_grant (SP)

Barriers are **count-based**: every done-ack reports how many data
frames the node sent to each destination; the supervisor accumulates
them and stamps the total into the destination's next tick, which the
destination consumes before acting.  This makes the protocol exact
under arbitrary cross-channel reordering and fault-injected delays — no
transport ordering guarantee beyond per-sender FIFO is assumed.

## Termination

The run ends at the first round where (a) no UE sent a service request,
(b) no SP holds a retry-pending request, (c) no fault injector holds a
delayed frame, and (d) every scheduled BS crash has recovered.  Because
fault plans have a finite horizon, such a round provably arrives (the
``max_rounds`` backstop guards the claim).  ``Assignment.rounds``
counts productive rounds — rounds in which at least one service request
was sent — matching the in-process allocator's semantics.
"""

from __future__ import annotations

import time
import uuid
from collections import Counter, defaultdict
from pathlib import Path

from repro.compute.cru import Grant
from repro.core.agents import BSAgent, SPAgent, build_ue_agents
from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.core.messages import from_wire
from repro.dist.faults import FaultPlan
from repro.dist.nodes import (
    BSNodeHandler,
    NodeRuntime,
    SPNodeHandler,
    UEHostHandler,
    ue_host_name,
)
from repro.dist.transport import TRANSPORTS, make_transport, with_trace_context
from repro.econ.pricing import PaperPricing, PricingPolicy
from repro.errors import AllocationError, ConfigurationError
from repro.model.network import MECNetwork
from repro.obs import get_telemetry
from repro.obs.histogram import Histogram
from repro.obs.trace import span_from_payload
from repro.radio.channel import RadioMap

__all__ = ["DistributedDMRAAllocator"]

_PHASES = ("bcast", "propose", "relay_req", "decide", "relay_grant")


class DistributedDMRAAllocator(Allocator):
    """DMRA over node objects (or forked processes) and a message
    transport."""

    def __init__(
        self,
        transport: str = "inproc",
        pricing: PricingPolicy | None = None,
        rho: float = 10.0,
        max_rounds: int = 1000,
        ue_hosts: int = 2,
        fault_plan: FaultPlan | None = None,
        recv_timeout: float = 60.0,
        flight_dir: str | Path | None = None,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; choose one of "
                f"{', '.join(TRANSPORTS)}"
            )
        if rho < 0:
            raise ConfigurationError(f"rho must be >= 0, got {rho}")
        if ue_hosts < 1:
            raise ConfigurationError(f"ue_hosts must be >= 1, got {ue_hosts}")
        if max_rounds <= 0:
            raise ConfigurationError(f"max_rounds must be > 0, got {max_rounds}")
        self.transport_kind = transport
        self.pricing = pricing if pricing is not None else PaperPricing()
        self.rho = rho
        self.max_rounds = max_rounds
        self.ue_hosts = ue_hosts
        self.fault_plan = fault_plan
        self.recv_timeout = recv_timeout
        #: When set, node flight-recorder postmortems (crash rings) are
        #: written here as JSON files, one per crashed node.
        self.flight_dir = Path(flight_dir) if flight_dir else None
        self.name = f"dmra-dist-{transport}"
        #: Accounting of the most recent run (also emitted as telemetry).
        self.last_report: dict = {}

    # ------------------------------------------------------------------

    def allocate(self, network: MECNetwork, radio_map: RadioMap) -> Assignment:
        telemetry = get_telemetry()
        plan = self.fault_plan
        bs_names = tuple(f"bs:{bs.bs_id}" for bs in network.base_stations)
        sp_names = tuple(f"sp:{sp.sp_id}" for sp in network.providers)
        host_names = tuple(f"ue:{i}" for i in range(self.ue_hosts))
        names = ("sup",) + bs_names + sp_names + host_names

        # Topology the nodes need up front (inherited through fork or
        # shared memory — never sent over the wire).
        ue_agents = build_ue_agents(network, radio_map, self.pricing, self.rho)
        hosts_of_bs: dict[int, set[str]] = defaultdict(set)
        for ue_id, agent in ue_agents.items():
            for bs_id in agent.candidate_bs_ids:
                hosts_of_bs[bs_id].add(ue_host_name(ue_id, self.ue_hosts))

        # Cross-process trace context: nodes get the trace id and the
        # supervisor recorder's epoch, so their own recorders (created
        # inside the node body — fork keeps perf_counter consistent on
        # Linux) emit spans directly on the supervisor's timeline.
        trace_ctx = None
        if telemetry.enabled:
            trace_ctx = {
                "trace_id": uuid.uuid4().hex,
                "epoch_s": getattr(telemetry, "_epoch", None),
            }

        transport = make_transport(self.transport_kind, names)
        with telemetry.span(
            "dist.allocate",
            transport=self.transport_kind,
            ue_hosts=self.ue_hosts,
            faulty=plan is not None,
            **(
                {"trace_id": trace_ctx["trace_id"]}
                if trace_ctx is not None else {}
            ),
        ) as span:
            sup = transport.channel("sup")
            try:
                self._spawn_nodes(
                    transport, network, ue_agents, hosts_of_bs, plan,
                    trace_ctx,
                )
                outcome = self._run_rounds(
                    sup, bs_names, sp_names, host_names, plan, trace_ctx
                )
                results = self._collect(
                    sup, bs_names + sp_names + host_names
                )
            finally:
                try:
                    for name in bs_names + sp_names + host_names:
                        sup.send(name, {"t": "stop"})
                except Exception:  # pragma: no cover - teardown best effort
                    pass
                transport.shutdown()
                sup.close()

        assignment = self._assemble(results, outcome)
        self._record(telemetry, span, results, outcome, assignment)
        return assignment

    # ------------------------------------------------------------------

    def _spawn_nodes(
        self, transport, network, ue_agents, hosts_of_bs, plan, trace_ctx
    ):
        always_broadcast = plan is not None
        for bs in network.base_stations:
            handler = BSNodeHandler(
                BSAgent(bs),
                bcast_dsts=tuple(sorted(hosts_of_bs.get(bs.bs_id, ()))),
                always_broadcast=always_broadcast,
            )
            transport.spawn(
                f"bs:{bs.bs_id}",
                _node_factory(handler, plan, self.recv_timeout, trace_ctx),
            )
        for sp in network.providers:
            handler = SPNodeHandler(SPAgent(sp.sp_id), ue_hosts=self.ue_hosts)
            transport.spawn(
                f"sp:{sp.sp_id}",
                _node_factory(handler, plan, self.recv_timeout, trace_ctx),
            )
        for i in range(self.ue_hosts):
            shard = {
                ue_id: agent
                for ue_id, agent in ue_agents.items()
                if ue_id % self.ue_hosts == i
            }
            handler = UEHostHandler(shard, resend_releases=plan is not None)
            transport.spawn(
                f"ue:{i}",
                _node_factory(handler, plan, self.recv_timeout, trace_ctx),
            )

    # ------------------------------------------------------------------

    def _run_rounds(self, sup, bs_names, sp_names, host_names, plan, trace_ctx):
        groups = {
            "bcast": bs_names,
            "propose": host_names,
            "relay_req": sp_names,
            "decide": bs_names,
            "relay_grant": sp_names,
        }
        expected: Counter = Counter()
        done_buf: dict[tuple[str, str], dict] = {}
        crash_schedule = {} if plan is None else {
            c.at_round: c for c in plan.crashes
        }
        last_crash_clear = 0 if plan is None else plan.last_crash_clear_round

        tel = get_telemetry()
        tracing = tel.enabled
        clock = time.perf_counter

        round_no = 0
        productive = 0
        total_rounds = 0
        kind_totals: Counter = Counter()
        while True:
            round_no += 1
            if round_no > self.max_rounds:
                raise AllocationError(
                    f"distributed matching did not terminate within "
                    f"{self.max_rounds} rounds"
                )
            crash = crash_schedule.get(round_no)
            if crash is not None:
                sup.send(
                    f"bs:{crash.bs_id}",
                    {"t": "crash", "down": crash.down_rounds},
                )

            held: dict[str, int] = {}
            pending: dict[str, int] = {}
            round_kinds: Counter = Counter()
            round_start = clock() if tracing else 0.0
            with tel.span("dist.round", round=round_no):
                for phase in _PHASES:
                    group = groups[phase]
                    # span_ref anchors the per-node span forests the
                    # harvest grafts back under this phase span.
                    phase_ref = f"r{round_no}.{phase}"
                    phase_start = clock() if tracing else 0.0
                    with tel.span(
                        "dist.phase", phase=phase, round=round_no,
                    ) as phase_span:
                        if tracing:
                            phase_span.set(span_ref=phase_ref)
                        tick = {
                            "t": "tick",
                            "phase": phase,
                            "round": round_no,
                            "expect": 0,
                        }
                        if trace_ctx is not None:
                            with_trace_context(
                                tick, trace_ctx["trace_id"], phase_ref
                            )
                        for node in group:
                            sup.send(
                                node,
                                {**tick, "expect": expected.pop(node, 0)},
                            )
                        for node in group:
                            done = self._await(sup, done_buf, "done", node)
                            for dst, n in done["counts"].items():
                                expected[dst] += n
                            round_kinds.update(done["sent_kinds"])
                            held[node] = done["held"]
                            if "pending" in done["extra"]:
                                pending[node] = done["extra"]["pending"]
                    if tracing:
                        tel.observe(
                            f"dist.phase_wall_s.{phase}",
                            clock() - phase_start,
                        )
            if tracing:
                tel.observe("dist.round_wall_s", clock() - round_start)

            total_rounds = round_no
            kind_totals.update(round_kinds)
            if round_kinds.get("req", 0) > 0:
                productive += 1
                continue
            if (
                sum(held.values()) == 0
                and sum(pending.values()) == 0
                and round_no >= last_crash_clear
            ):
                break
        return {
            "rounds": productive,
            "total_rounds": total_rounds,
            "kind_totals": dict(kind_totals),
        }

    def _await(self, sup, buf, frame_type, src) -> dict:
        """The next ``frame_type`` frame from ``src``.  A ``fail`` frame
        from ``src`` raises its error; one from another node waits in
        ``buf`` until that node is awaited, so the node named is the
        first failed one in await order, whatever the arrival order."""
        key = (frame_type, src)
        while key not in buf:
            failed = buf.get(("fail", src))
            if failed is not None:
                raise AllocationError(
                    f"supervisor: node {src!r} failed: {failed['error']}"
                )
            frame = sup.recv(timeout=self.recv_timeout)
            if frame is None:
                raise AllocationError(
                    f"supervisor: node {src!r} sent no {frame_type!r} frame "
                    f"within {self.recv_timeout}s"
                )
            buf[(frame["t"], frame["src"])] = frame
        return buf.pop(key)

    def _collect(self, sup, names) -> dict[str, dict]:
        buf: dict[tuple[str, str], dict] = {}
        for name in names:
            sup.send(name, {"t": "collect"})
        return {
            name: self._await(sup, buf, "result", name) for name in names
        }

    # ------------------------------------------------------------------

    def _assemble(self, results, outcome) -> Assignment:
        # The UEs' own view first: which BS each believes serves it.
        associated: dict[int, int] = {}
        cloud = set()
        for name, result in results.items():
            if not name.startswith("ue:"):
                continue
            cloud.update(result["state"]["cloud"])
            for ue_id, bs_id in result["state"]["associated"].items():
                associated[int(ue_id)] = bs_id
        # A BS ledger entry counts only when the UE agrees it is served
        # there.  Under lost grants a UE can be booked at two BSs (it
        # re-proposed elsewhere while the first grant was in flight);
        # exporting both would double-serve the UE.  The extra booking
        # is a *stranded* reservation — resources held for nobody, the
        # real cost of an unacknowledged grant — and is reported as
        # such.  Under a reliable transport every ledger entry matches
        # the UE view and this filter passes everything through.
        grants = []
        granted_ues = set()
        stranded = 0
        for name, result in results.items():
            if not name.startswith("bs:"):
                continue
            for wire_grant in result["state"]["grants"]:
                message = from_wire(wire_grant)
                if associated.get(message.ue_id) != message.bs_id:
                    stranded += 1
                    continue
                grants.append(
                    Grant(
                        bs_id=message.bs_id,
                        ue_id=message.ue_id,
                        service_id=message.service_id,
                        crus=message.crus,
                        rrbs=message.rrbs,
                    )
                )
                granted_ues.add(message.ue_id)
        # A UE can believe it is associated while no BS ledger backs it
        # (its grant predates a crash it never learned about).
        # Reconcile to cloud: the task is genuinely unserved.
        orphans = {
            ue_id for ue_id in associated if ue_id not in granted_ues
        }
        outcome["orphans"] = len(orphans)
        outcome["stranded"] = stranded
        return Assignment(
            grants=tuple(grants),
            cloud_ue_ids=frozenset(cloud | orphans),
            rounds=outcome["rounds"],
        )

    def _record(self, telemetry, span, results, outcome, assignment) -> None:
        msgs: Counter = Counter()
        bytes_: Counter = Counter()
        faults: Counter = Counter()
        sp_stats: dict[int, dict] = {}
        postmortems: dict[str, list] = {}
        regrants = 0
        releases = 0
        for name, result in results.items():
            msgs.update(result["msgs"])
            bytes_.update(result["bytes"])
            faults.update(result["faults"])
            if name.startswith("sp:"):
                sp_stats[result["state"]["sp_id"]] = result["state"]
            if name.startswith("bs:"):
                regrants += result["state"]["regrants"]
                releases += result["state"]["releases"]
                faults["crashes"] += result["state"]["epoch"]
            if result.get("flight"):
                postmortems[name] = result["flight"]
        faults["stranded"] += outcome["stranded"]
        self._merge_node_telemetry(telemetry, results)
        self._write_postmortems(postmortems)

        for kind, n in sorted(msgs.items()):
            telemetry.count(f"dist.messages.{kind}", n)
        for kind, n in sorted(bytes_.items()):
            telemetry.count(f"dist.bytes.{kind}", n)
        for sp_id, stats in sorted(sp_stats.items()):
            telemetry.count(f"dist.sp_requests.{sp_id}", stats["requests_relayed"])
            telemetry.count(f"dist.sp_grants.{sp_id}", stats["grants_relayed"])
            telemetry.count(f"dist.sp_retries.{sp_id}", stats["retransmits"])
        for event, n in sorted(faults.items()):
            if n:
                telemetry.count(f"dist.faults.{event}", n)
        if regrants:
            telemetry.count("dist.faults.regrants", regrants)
        if releases:
            # Honored ReleaseNotices: bookings freed instead of stranded.
            telemetry.count("dist.faults.releases", releases)
        telemetry.gauge("dist.rounds", outcome["rounds"])
        telemetry.gauge("dist.total_rounds", outcome["total_rounds"])
        span.set(
            rounds=outcome["rounds"],
            total_rounds=outcome["total_rounds"],
            messages=sum(msgs.values()),
            bytes=sum(bytes_.values()),
            grants=len(assignment.grants),
            cloud=len(assignment.cloud_ue_ids),
            orphans=outcome["orphans"],
        )
        self.last_report = {
            "rounds": outcome["rounds"],
            "total_rounds": outcome["total_rounds"],
            "messages": dict(msgs),
            "bytes": dict(bytes_),
            "faults": dict(faults),
            "regrants": regrants,
            "releases": releases,
            "orphans": outcome["orphans"],
            "stranded": outcome["stranded"],
            "sp": sp_stats,
            "postmortems": postmortems,
        }

    def _merge_node_telemetry(self, telemetry, results) -> None:
        """Graft per-node span forests and fold node histograms.

        Each node root span carries a ``parent_ref`` attribute naming
        the supervisor-side phase span (``span_ref``) it causally
        belongs to; the graft makes the merged trace one rooted tree
        with cross-process parent edges.
        """
        if not telemetry.enabled:
            return
        for name in sorted(results):
            result = results[name]
            for payload in result.get("spans", ()):
                root = span_from_payload(payload)
                ref = root.attrs.get("parent_ref")
                if ref is not None:
                    telemetry.graft_at(ref, [root])
                else:  # pragma: no cover - nodes always tag their roots
                    telemetry.graft_at("", [root])
            for hist_name, payload in sorted(
                result.get("hists", {}).items()
            ):
                incoming = Histogram.from_payload(payload)
                mine = telemetry.histograms.get(hist_name)
                if mine is None:
                    telemetry.histograms[hist_name] = incoming
                else:
                    mine.merge(incoming)

    def _write_postmortems(self, postmortems: dict[str, list]) -> None:
        if not postmortems or self.flight_dir is None:
            return
        import json

        self.flight_dir.mkdir(parents=True, exist_ok=True)
        for name, dumps in sorted(postmortems.items()):
            target = self.flight_dir / f"flight_{name.replace(':', '_')}.json"
            target.write_text(
                json.dumps(dumps, sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )


def _node_factory(handler, plan, recv_timeout, trace_ctx=None):
    """Bind a node's runtime for Transport.spawn (in-process or fork)."""

    def factory(channel):
        return NodeRuntime(
            channel, handler, plan=plan, recv_timeout=recv_timeout,
            trace=trace_ctx,
        )

    return factory
