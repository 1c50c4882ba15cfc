"""Unit tests for the asyncio service loop and the ``dmra serve`` CLI."""

import pytest
from oracles.stream import run_from_scratch

from repro.cli import main
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.stream import (
    StreamConfig,
    StreamDispatcher,
    run_stream,
    serve_stream,
)

CONFIG = ScenarioConfig.paper()


def short_stream(move_fraction=0.1):
    return StreamConfig(
        horizon_s=60.0,
        arrivals=PoissonArrivals(rate_per_s=2.0),
        holding=ExponentialHolding(mean_s=30.0),
        move_fraction=move_fraction,
    )


class TestServeStream:
    def test_service_equals_sync_replay(self):
        stream = short_stream()
        served = serve_stream(CONFIG, stream, seed=3)
        replayed = run_stream(CONFIG, stream, seed=3)
        assert served.digest == replayed.digest
        assert served.events_processed == replayed.events_processed
        assert served.total_profit == replayed.total_profit
        assert served.profit_by_sp == replayed.profit_by_sp

    def test_backpressure_queue_of_one(self):
        # maxsize=1 forces a producer suspension on every event; the
        # outcome must be unchanged.
        stream = short_stream()
        tight = serve_stream(CONFIG, stream, seed=4, queue_maxsize=1)
        loose = serve_stream(CONFIG, stream, seed=4, queue_maxsize=1024)
        assert tight.digest == loose.digest

    def test_service_mode_parity(self, monkeypatch):
        monkeypatch.setenv("DMRA_DEBUG_STREAM", "1")
        stream = short_stream()
        inc = serve_stream(CONFIG, stream, seed=5)
        res = run_from_scratch(CONFIG, stream, seed=5)
        assert inc.digest == res.digest

    def test_bad_queue_maxsize_rejected(self):
        with pytest.raises(ConfigurationError, match="queue_maxsize"):
            serve_stream(CONFIG, short_stream(), seed=1, queue_maxsize=0)

    def test_queue_depth_recorded_as_span_attr(self):
        from repro.obs import Recorder, telemetry_session

        recorder = Recorder()
        with telemetry_session(recorder):
            serve_stream(CONFIG, short_stream(), seed=6)
        spans = [
            span for span in recorder.all_spans()
            if span.name == "stream.serve"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["queue_max_depth"] >= 1

    def test_queue_depth_reaches_gauge_and_histogram(self):
        from repro.obs import Recorder, telemetry_session

        recorder = Recorder()
        with telemetry_session(recorder):
            outcome = serve_stream(CONFIG, short_stream(), seed=6)
        depth = recorder.histograms["stream.queue_depth_hist"]
        assert depth.count == outcome.events_processed
        assert recorder.gauges["stream.queue_depth"].max >= 1

    def test_per_event_latency_histograms_by_kind(self):
        from repro.obs import Recorder, telemetry_session

        recorder = Recorder()
        with telemetry_session(recorder):
            outcome = serve_stream(CONFIG, short_stream(), seed=6)
        by_kind = {
            name.rpartition(".")[2]: hist
            for name, hist in recorder.histograms.items()
            if name.startswith("stream.event_latency_s.")
        }
        assert set(by_kind) >= {"arrival", "departure"}
        assert sum(h.count for h in by_kind.values()) == (
            outcome.events_processed
        )
        assert all(h.sum >= 0.0 for h in by_kind.values())

    def test_flight_recorder_notes_every_event(self):
        from repro.obs import FlightRecorder

        flight = FlightRecorder(capacity=10_000)
        outcome = serve_stream(
            CONFIG, short_stream(), seed=6, flight=flight
        )
        dump = flight.dump()
        # One note per event plus the final "finish" entry.
        assert dump["total_noted"] == outcome.events_processed + 1
        assert dump["entries"][-1]["kind"] == "finish"
        assert dump["entries"][-1]["events"] == outcome.events_processed


SERVE_ARGS = [
    "serve", "--rate", "2", "--horizon", "45", "--holding", "20",
    "--move-fraction", "0.1", "--seed", "3",
]

#: The tape CI's stream-smoke job serves.
CI_SERVE_ARGS = [
    "serve", "--rate", "4", "--horizon", "120", "--holding", "30",
    "--move-fraction", "0.1", "--seed", "1",
]
CI_STREAM = StreamConfig(
    horizon_s=120.0,
    arrivals=PoissonArrivals(rate_per_s=4.0),
    holding=ExponentialHolding(mean_s=30.0),
    move_fraction=0.1,
)


class TestServeCli:
    def test_serve_smoke(self, capsys):
        assert main(SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "kernel=auto" in out
        assert "digest:" in out
        assert "events/s" in out

    def test_mode_documents_diff_clean(self, tmp_path, capsys, monkeypatch):
        """The outcome document ``dmra serve --metrics`` writes for CI's
        tape must equal, under ``dmra trace diff``, the one derived from
        the from-scratch replay of the same tape."""
        from repro.obs import metrics_from_stream, read_metrics, write_metrics

        monkeypatch.setenv("DMRA_DEBUG_STREAM", "1")
        served = tmp_path / "served.json"
        scratch = tmp_path / "scratch.json"
        assert main(CI_SERVE_ARGS + ["--metrics", str(served)]) == 0
        out = capsys.readouterr().out
        assert "digest:              00457ea5" in out
        assert "1021 (" in out and "49 moves" in out

        outcome = run_from_scratch(CONFIG, CI_STREAM, seed=1)
        assert outcome.digest.startswith("00457ea5")
        assert (outcome.events_processed, outcome.moves) == (1021, 49)
        assert outcome.admitted_cloud == 0
        manifest = read_metrics(served).manifest
        write_metrics(scratch, metrics_from_stream(outcome, manifest))
        assert main(["trace", "diff", str(served), str(scratch)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "manifest: aligned" in out

    def test_mode_documents_carry_aligned_manifests(self, tmp_path):
        from repro.obs import read_metrics

        inc = tmp_path / "inc.json"
        assert main(SERVE_ARGS + ["--metrics", str(inc)]) == 0
        doc = read_metrics(inc)
        assert doc.manifest is not None
        assert doc.family("dmra_stream_arrivals_total").sample() > 0
        # Wall throughput is present but under the diff-ignored prefix.
        assert doc.has_family("dmra_wall_stream_events_per_s")

    def test_serve_trace_recorded(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        assert main(SERVE_ARGS + ["--trace", str(trace)]) == 0
        assert trace.exists()
        assert "wrote trace" in capsys.readouterr().out

    def test_listen_writes_port_file_and_final_flush(
        self, tmp_path, capsys
    ):
        from repro.obs import read_metrics

        port_file = tmp_path / "port"
        flush = tmp_path / "live.json"
        assert main(SERVE_ARGS + [
            "--listen", "127.0.0.1:0",
            "--port-file", str(port_file),
            "--flush", str(flush),
        ]) == 0
        out = capsys.readouterr().out
        assert "live endpoint:" in out
        port = int(port_file.read_text().strip())
        assert port > 0
        # The exit-path flush captures the replay's final totals.
        doc = read_metrics(flush)
        latency = doc.family("dmra_stream_event_latency_s")
        assert latency.sample(event="arrival", stat="count") > 0
        assert doc.has_family("dmra_stream_queue_depth_hist")
        assert doc.has_family("dmra_flight_entries")

    def test_flight_dump_written(self, tmp_path, capsys):
        import json

        dump_path = tmp_path / "flight.json"
        assert main(SERVE_ARGS + ["--flight-dump", str(dump_path)]) == 0
        assert "wrote flight dump" in capsys.readouterr().out
        dump = json.loads(dump_path.read_text())
        assert dump["schema"] == "dmra.flight/1"
        assert dump["entries"][-1]["kind"] == "finish"

    def test_failed_serve_dumps_flight_ring_without_final_flush(
        self, tmp_path, capsys, monkeypatch
    ):
        """A replay that raises at its Nth event writes the flight ring,
        does no final live-plane flush, and lets the error out."""
        import json
        import threading

        from repro.obs import LiveServer

        fail_at = 200
        dispatch = StreamDispatcher.dispatch
        failed = threading.Event()

        def failing_dispatch(self, event):
            if self.events_processed + 1 == fail_at:
                failed.set()
                raise RuntimeError("injected dispatch failure")
            dispatch(self, event)

        flush = LiveServer.flush_to_disk
        late_flushes = []

        def watched_flush(self):
            # The final flush runs on the command's thread; the periodic
            # flusher runs on a worker thread.
            if failed.is_set() and threading.current_thread() is (
                threading.main_thread()
            ):
                late_flushes.append(self)
            flush(self)

        monkeypatch.setattr(StreamDispatcher, "dispatch", failing_dispatch)
        monkeypatch.setattr(LiveServer, "flush_to_disk", watched_flush)
        dump_path = tmp_path / "flight.json"
        with pytest.raises(RuntimeError, match="injected"):
            main(CI_SERVE_ARGS + [
                "--listen", "127.0.0.1:0",
                "--flush", str(tmp_path / "live.json"),
                "--flush-interval", "60",
                "--flight-dump", str(dump_path),
            ])
        assert failed.is_set()
        assert not late_flushes
        assert "wrote flight dump" in capsys.readouterr().out
        dump = json.loads(dump_path.read_text())
        entries = dump["entries"]
        assert entries[-1]["kind"] == "failed"
        assert "injected" in entries[-1]["error"]
        # One note per event before the failing one, then the failure.
        assert dump["total_noted"] == len(entries) == fail_at
        assert [entry["kind"] for entry in entries[:-1]] == (
            ["event"] * (fail_at - 1)
        )
        assert {entry["event"] for entry in entries[:-1]} <= {
            "arrival", "departure", "move",
        }
