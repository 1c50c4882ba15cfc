"""Unit tests for the live observability plane (``repro.obs.live``)."""

import json

import pytest

from repro.obs import (
    FlightRecorder,
    LiveServer,
    Recorder,
    http_get,
    live_snapshot_document,
    parse_exposition,
    read_metrics,
)


@pytest.fixture
def recorder() -> Recorder:
    rec = Recorder(meta={"command": "test"})
    rec.count("stream.events", 3)
    rec.gauge("stream.queue_depth", 7)
    rec.observe("stream.event_latency_s.arrival", 0.002)
    rec.observe("stream.event_latency_s.arrival", 0.004)
    return rec


@pytest.fixture
def server(recorder):
    live = LiveServer(recorder, listen="127.0.0.1:0").start()
    yield live
    live.stop()


class TestSnapshot:
    def test_snapshot_reflects_scalar_state(self, recorder):
        doc = live_snapshot_document(recorder)
        assert doc.family("dmra_stream_events_total").sample() == 3
        latency = doc.family("dmra_stream_event_latency_s")
        assert latency.sample(event="arrival", stat="count") == 2

    def test_snapshot_never_materializes_spans(self, recorder):
        with recorder.span("outer"):
            live_snapshot_document(recorder)
        # The open span above would make tree materialization blow up
        # or record a half-open span; scalar snapshots must not care.
        assert recorder.counters["stream.events"] == 3


class TestEndpoints:
    def test_healthz_is_immediately_live(self, server):
        status, body = http_get(server.url + "/healthz")
        assert (status, body) == (200, "ok\n")

    def test_readyz_transitions_on_first_flush(self, server):
        assert http_get(server.url + "/readyz")[0] == 503
        server.flush_to_disk()  # no flush path: just marks ready
        assert http_get(server.url + "/readyz")[0] == 200

    def test_metrics_scrape_parses_and_matches_recorder(self, server):
        status, body = http_get(server.url + "/metrics")
        assert status == 200
        doc = parse_exposition(body)
        assert doc.family("dmra_stream_events_total").sample() == 3
        latency = doc.family("dmra_stream_event_latency_s")
        assert latency.sample(event="arrival", stat="count") == 2
        assert server.scrapes == 1

    def test_scrape_tracks_recorder_updates(self, recorder, server):
        recorder.count("stream.events", 5)
        doc = parse_exposition(http_get(server.url + "/metrics")[1])
        assert doc.family("dmra_stream_events_total").sample() == 8

    def test_unknown_path_404s(self, server):
        assert http_get(server.url + "/nope")[0] == 404

    def test_flightz_404s_without_flight_recorder(self, server):
        assert http_get(server.url + "/flightz")[0] == 404


class TestFlightEndpoint:
    def test_flightz_serves_ring_dump(self, recorder):
        flight = FlightRecorder(capacity=4)
        for i in range(6):
            flight.note("tick", i=i)
        live = LiveServer(recorder, flight=flight).start()
        try:
            status, body = http_get(live.url + "/flightz")
        finally:
            live.stop()
        assert status == 200
        dump = json.loads(body)
        assert dump["schema"] == "dmra.flight/1"
        assert dump["total_noted"] == 6
        assert [e["i"] for e in dump["entries"]] == [2, 3, 4, 5]

    def test_note_refuses_fields_named_like_entry_keys(self):
        flight = FlightRecorder(capacity=4)
        for key in ("seq", "t_s", "kind"):
            with pytest.raises(ValueError, match=key):
                flight.note("event", **{key: "arrival"})
        assert flight.total_noted == len(flight) == 0

    def test_flight_occupancy_exported_as_gauge(self, recorder):
        flight = FlightRecorder(capacity=4)
        flight.note("tick")
        live = LiveServer(recorder, flight=flight).start()
        try:
            doc = parse_exposition(http_get(live.url + "/metrics")[1])
        finally:
            live.stop()
        fam = doc.family("dmra_flight_entries")
        assert fam.sample(stat="held") == 1
        assert fam.sample(stat="noted") == 1


class TestFlush:
    def test_periodic_flush_writes_document_and_marks_ready(
        self, recorder, tmp_path
    ):
        target = tmp_path / "live.json"
        live = LiveServer(
            recorder, flush_path=target, flush_interval_s=0.05
        ).start()
        try:
            deadline = 100
            while not live.ready and deadline:
                import time

                time.sleep(0.05)
                deadline -= 1
            assert live.ready
            assert http_get(live.url + "/readyz")[0] == 200
        finally:
            live.stop()
        doc = read_metrics(target)
        assert doc.family("dmra_stream_events_total").sample() == 3
        assert live.flushes >= 1

    def test_final_flush_on_stop_captures_last_state(
        self, recorder, tmp_path
    ):
        target = tmp_path / "final.json"
        live = LiveServer(recorder, flush_path=target).start()
        recorder.count("stream.events", 100)
        live.stop()
        doc = read_metrics(target)
        assert doc.family("dmra_stream_events_total").sample() == 103


class TestLifecycle:
    def test_bad_listen_spec_rejected(self, recorder):
        with pytest.raises(ValueError):
            LiveServer(recorder, listen="9090")

    def test_start_and_stop_are_idempotent(self, recorder):
        live = LiveServer(recorder).start()
        assert live.start() is live
        live.stop()
        live.stop()

    def test_ephemeral_port_reported(self, server):
        assert server.port and server.port > 0
        assert str(server.port) in server.url
