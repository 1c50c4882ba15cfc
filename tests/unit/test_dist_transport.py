"""Unit tests for the distributed deployment's plumbing.

Three layers, bottom up: the wire codec (:mod:`repro.core.messages`
``to_wire``/``from_wire`` through the byte framing), the three
transports behind one :class:`~repro.dist.transport.Channel` interface
(an echo round-trip each, including the forked ``mp`` and ``tcp``
paths), and the sender-side fault injector
(:class:`~repro.dist.faults.FaultyChannel`) whose determinism and
count conservation the supervisor's barrier protocol depends on.
"""

import pytest

from repro.core.messages import (
    AssociationGrant,
    CloudFallbackNotice,
    ResourceBroadcast,
    ServiceRequest,
    from_wire,
    to_wire,
)
from repro.dist.faults import (
    FAULT_SCENARIOS,
    CrashEvent,
    FaultPlan,
    FaultyChannel,
    scenario_plan,
)
from repro.dist.transport import (
    TRANSPORTS,
    decode_frame,
    encode_frame,
    make_transport,
)
from repro.errors import ConfigurationError

# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

WIRE_MESSAGES = [
    ServiceRequest(
        ue_id=7,
        sp_id=2,
        target_bs_id=11,
        service_id=1,
        cru_demand=4,
        rrbs_required=3,
        coverage_count=5,
    ),
    AssociationGrant(
        bs_id=11, ue_id=7, service_id=1, crus=4, rrbs=3, epoch=2
    ),
    ResourceBroadcast(
        bs_id=11,
        remaining_crus={0: 16, 1: 20},
        remaining_rrbs=7,
        seq=9,
        epoch=2,
    ),
    CloudFallbackNotice(ue_id=7, sp_id=2),
]


class TestWireCodec:
    @pytest.mark.parametrize(
        "message", WIRE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trips_through_json_bytes(self, message):
        """Every message survives to_wire -> JSON bytes -> from_wire —
        including the int keys of a broadcast's CRU map, which JSON
        stringifies."""
        restored = from_wire(decode_frame(encode_frame(to_wire(message))))
        assert restored == message

    def test_unknown_wire_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown wire"):
            from_wire({"k": "gossip"})

    def test_unencodable_message_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot encode"):
            to_wire(object())

    def test_grant_epoch_defaults_for_old_payloads(self):
        payload = to_wire(AssociationGrant(0, 1, 0, 4, 2))
        del payload["epoch"]
        assert from_wire(payload).epoch == 0


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


class _EchoNode:
    """Bounces every frame back to ``sup`` until told to stop: called
    frame by frame in-process, or its ``run`` loop in a forked node."""

    def __init__(self, channel):
        self.channel = channel
        self.stopped = False

    def deliver(self, frame):
        if frame.get("t") == "stop":
            self.stopped = True
            self.channel.close()
            return
        self.channel.send("sup", {"echo": frame, "from": self.channel.name})

    def run(self):
        while not self.stopped:
            frame = self.channel.recv(timeout=30)
            if frame is None:
                break
            self.deliver(frame)


class TestTransports:
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_echo_round_trip(self, kind):
        """A frame to a spawned node (in-process object or forked
        process) comes back intact, and ``send`` reports the encoded
        byte length."""
        transport = make_transport(kind, ("sup", "node"))
        sup = transport.channel("sup")
        try:
            transport.spawn("node", _EchoNode)
            frame = {"t": "msg", "payload": [1, 2, 3]}
            nbytes = sup.send("node", frame)
            assert nbytes == len(encode_frame(frame))
            reply = sup.recv(timeout=30)
            assert reply == {"echo": frame, "from": "node"}
            sup.send("node", {"t": "stop"})
        finally:
            sup.close()
            transport.shutdown()

    def test_tcp_backlog_flush_keeps_fifo(self, monkeypatch):
        """Frames buffered before the node dials in are delivered ahead
        of the ones routed after it registers.  Slow sends widen the
        window in which the router used to let a new frame overtake
        the backlog flush."""
        import time

        import repro.dist.transport as transport_module

        send = transport_module._send_framed

        def slow_send(sock, data, lock):
            time.sleep(0.001)
            send(sock, data, lock)

        monkeypatch.setattr(transport_module, "_send_framed", slow_send)
        transport = make_transport("tcp", ("sup", "node"))
        sup = transport.channel("sup")
        try:
            transport.spawn("node", _EchoNode)
            for i in range(200):
                sup.send("node", {"t": "msg", "i": i})
            got = [sup.recv(timeout=30)["echo"]["i"] for _ in range(200)]
            assert got == list(range(200))
            sup.send("node", {"t": "stop"})
        finally:
            sup.close()
            transport.shutdown()

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_per_sender_fifo(self, kind):
        """Frames from one sender arrive in send order — the only
        ordering guarantee the round protocol relies on."""
        transport = make_transport(kind, ("sup", "node"))
        sup = transport.channel("sup")
        try:
            transport.spawn("node", _EchoNode)
            for i in range(10):
                sup.send("node", {"t": "msg", "i": i})
            got = [sup.recv(timeout=30)["echo"]["i"] for _ in range(10)]
            assert got == list(range(10))
            sup.send("node", {"t": "stop"})
        finally:
            sup.close()
            transport.shutdown()

    @pytest.mark.parametrize("kind", ["inproc", "mp"])
    def test_unknown_destination_rejected(self, kind):
        transport = make_transport(kind, ("sup",))
        sup = transport.channel("sup")
        try:
            with pytest.raises(ConfigurationError, match="unknown node"):
                sup.send("nope", {"t": "msg"})
        finally:
            sup.close()
            transport.shutdown()

    def test_inproc_delivers_before_send_returns_on_this_thread(self):
        """The in-process transport starts no thread: ``send`` hands the
        decoded frame to the node's ``deliver`` on the caller's thread,
        and the reply is in the mailbox by the time ``send`` returns."""
        import threading

        threads = threading.active_count()
        seen = []

        class Node(_EchoNode):
            def deliver(self, frame):
                seen.append(threading.current_thread())
                super().deliver(frame)

        transport = make_transport("inproc", ("sup", "node"))
        sup = transport.channel("sup")
        transport.spawn("node", Node)
        sup.send("node", {"t": "msg", "i": 1})
        assert seen == [threading.current_thread()]
        assert sup.recv(timeout=0) == {
            "echo": {"t": "msg", "i": 1}, "from": "node",
        }
        assert threading.active_count() == threads
        transport.shutdown()

    def test_inproc_frames_sent_before_spawn_are_delivered_first(self):
        transport = make_transport("inproc", ("sup", "node"))
        sup = transport.channel("sup")
        sup.send("node", {"t": "msg", "i": 0})
        transport.spawn("node", _EchoNode)
        sup.send("node", {"t": "msg", "i": 1})
        got = [sup.recv(timeout=0)["echo"]["i"] for _ in range(2)]
        assert got == [0, 1]
        transport.shutdown()

    def test_recv_timeout_returns_none(self):
        transport = make_transport("inproc", ("sup",))
        sup = transport.channel("sup")
        try:
            assert sup.recv(timeout=0.01) is None
        finally:
            sup.close()
            transport.shutdown()

    def test_unknown_transport_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown transport"):
            make_transport("carrier-pigeon", ("sup",))

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            make_transport("inproc", ("sup", "sup"))


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


class _StubChannel:
    """Records sends; byte length mimics the real Channel accounting."""

    def __init__(self):
        self.sent = []

    def send(self, dst, frame):
        self.sent.append((dst, frame))
        return len(encode_frame(frame))


def data_frame(kind="req", i=0):
    return {"t": "msg", "src": "ue:0", "msg": {"k": kind, "i": i}}


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drop_prob=1.5),
            dict(drop_prob=-0.1),
            dict(delay_prob=1.5),
            dict(delay_rounds=0),
            dict(horizon_rounds=-1),
            dict(drop_prob=1.0),
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_last_crash_clear_round(self):
        plan = FaultPlan(
            crashes=(
                CrashEvent(bs_id=0, at_round=3, down_rounds=2),
                CrashEvent(bs_id=1, at_round=5, down_rounds=1),
            )
        )
        assert plan.last_crash_clear_round == 6
        assert FaultPlan().last_crash_clear_round == 0

    def test_named_scenarios(self):
        assert scenario_plan("none") is None
        for name in FAULT_SCENARIOS[1:]:
            plan = scenario_plan(name, seed=3)
            assert isinstance(plan, FaultPlan)
        assert scenario_plan("stale").kinds == ("bcast",)
        assert scenario_plan("crash", crash_bs_id=4).crashes[0].bs_id == 4
        with pytest.raises(ConfigurationError, match="unknown fault"):
            scenario_plan("meteor")


class TestFaultyChannel:
    def test_no_plan_is_transparent(self):
        stub = _StubChannel()
        channel = FaultyChannel(stub, None, "ue:0")
        records = channel.send_data("bs:0", data_frame(), round_no=1)
        assert len(records) == 1
        dst, kind, nbytes = records[0]
        assert (dst, kind) == ("bs:0", "req")
        assert nbytes == len(encode_frame(data_frame()))
        assert channel.stats.as_dict() == {
            "dropped": 0, "delayed": 0, "released": 0,
        }

    def test_counts_are_conserved(self):
        """sent-now + dropped + held == offered, always — the invariant
        the supervisor's count-based barrier rests on."""
        stub = _StubChannel()
        plan = FaultPlan(seed=5, drop_prob=0.3, delay_prob=0.3)
        channel = FaultyChannel(stub, plan, "ue:0")
        sent_now = 0
        for i in range(200):
            sent_now += len(channel.send_data("bs:0", data_frame(i=i), 1))
        stats = channel.stats
        assert stats.dropped > 0 and stats.delayed > 0
        assert sent_now + stats.dropped + channel.held_count == 200
        assert len(stub.sent) == sent_now

    def test_deterministic_per_node_name(self):
        """Same plan + same node name replays the identical fault
        sequence (the cross-transport reproducibility guarantee)."""
        plan = FaultPlan(seed=9, drop_prob=0.4, delay_prob=0.2)
        outcomes = []
        for _ in range(2):
            stub = _StubChannel()
            channel = FaultyChannel(stub, plan, "ue:1")
            pattern = [
                len(channel.send_data("bs:0", data_frame(i=i), 1))
                for i in range(50)
            ]
            outcomes.append((pattern, channel.stats.as_dict()))
        assert outcomes[0] == outcomes[1]

    def test_delayed_frames_release_after_delay_rounds(self):
        """At ``delay_prob`` 0.99 most frames are held, at 1.0 (the
        staleness ablation's plan) every one; either way each held frame
        is released exactly ``delay_rounds`` later, and none is held
        past the horizon."""
        for delay_prob in (0.99, 1.0):
            stub = _StubChannel()
            plan = FaultPlan(
                seed=0, delay_prob=delay_prob, delay_rounds=2,
                horizon_rounds=4,
            )
            channel = FaultyChannel(stub, plan, "ue:0")
            for i in range(20):
                channel.send_data("bs:0", data_frame(i=i), round_no=1)
            held = channel.held_count
            assert held > 0
            if delay_prob == 1.0:
                assert held == 20 and stub.sent == []
            assert channel.flush(round_no=2) == []  # not due yet
            records = channel.flush(round_no=3)  # 1 + delay_rounds
            assert len(records) == held
            assert channel.held_count == 0
            assert channel.stats.released == channel.stats.delayed
        # At 1.0, a frame of the horizon's last round (4) is held to
        # round 6; one of the round after it goes out at once.
        assert channel.send_data("bs:0", data_frame(i=20), 4) == []
        assert len(channel.send_data("bs:0", data_frame(i=21), 5)) == 1
        assert channel.flush(round_no=5) == []
        assert len(channel.flush(round_no=6)) == 1
        assert channel.held_count == 0

    def test_kinds_filter_limits_faults_to_matching_frames(self):
        stub = _StubChannel()
        plan = FaultPlan(seed=0, drop_prob=0.9, delay_prob=0.09, kinds=("bcast",))
        channel = FaultyChannel(stub, plan, "bs:0")
        for i in range(30):
            records = channel.send_data("sp:0", data_frame("req", i), 1)
            assert len(records) == 1  # "req" is never eligible
        assert channel.stats.as_dict() == {
            "dropped": 0, "delayed": 0, "released": 0,
        }
        faulted = sum(
            not channel.send_data("ue:0", data_frame("bcast", i), 1)
            for i in range(30)
        )
        assert faulted > 0

    def test_horizon_silences_faults_in_late_rounds(self):
        stub = _StubChannel()
        plan = FaultPlan(seed=0, drop_prob=0.9, horizon_rounds=4)
        channel = FaultyChannel(stub, plan, "ue:0")
        for i in range(30):
            records = channel.send_data("bs:0", data_frame(i=i), round_no=5)
            assert len(records) == 1
        assert channel.stats.dropped == 0
