"""The live observability plane: ``/metrics``, ``/healthz``, ``/readyz``.

Everything else in :mod:`repro.obs` is post-mortem — traces and metrics
documents materialize after the run ends.  :class:`LiveServer` makes a
running ``dmra serve`` / ``dmra agents`` process inspectable *while it
runs*:

* ``GET /metrics`` — Prometheus text exposition snapshotted from the
  in-flight recorder.  The snapshot reads only the recorder's scalar
  aggregates (counters, gauges, histograms) — never the span event
  buffer — so scraping neither pauses the instrumented loop nor races
  its lazy span materialization.
* ``GET /healthz`` — liveness: 200 as soon as the server accepts.
* ``GET /readyz`` — readiness: 503 until the first metrics flush
  completes (set via :meth:`LiveServer.mark_ready` or the periodic
  flusher), 200 after.
* Both answer 503 with the error once :meth:`LiveServer.mark_failed`
  reports that the run failed.
* ``GET /flightz`` — the flight recorder's ring as a JSON postmortem
  document (404 when no flight recorder is attached).

The HTTP layer is a deliberately minimal HTTP/1.1 GET responder on
``asyncio.start_server`` — no framework dependency, a few kB of code,
close-delimited responses.  The server runs on its own daemon-thread
event loop, so the same class serves both the asyncio streaming service
and the synchronous dist supervisor without either embedding in the
other's loop.

Snapshot consistency: the instrumented loop mutates the recorder's
dicts while we read them.  Every read path here only iterates dicts of
scalars/aggregates and copies them (histograms via
:meth:`~repro.obs.histogram.Histogram.snapshot`); on the rare
``RuntimeError`` from a dict growing mid-iteration the scrape simply
retries.  Values may be one update stale — a scrape is a sample, not a
barrier — but after the loop quiesces a scrape equals the post-run
totals exactly, which is the acceptance contract.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path

from repro.obs.metrics import (
    MetricFamily,
    MetricSample,
    MetricsDocument,
    metrics_from_trace,
    prometheus_exposition,
    write_metrics,
)
from repro.obs.telemetry import FlightRecorder, Recorder
from repro.obs.trace import Trace

__all__ = [
    "LiveServer",
    "http_get",
    "live_snapshot_document",
]


def live_snapshot_document(
    recorder: Recorder, manifest: dict | None = None
) -> MetricsDocument:
    """A metrics document from a recorder's *scalar* state, span-free.

    Reuses the trace-derivation naming (labeled counter folding,
    histogram families) by building a span-less :class:`Trace` from
    copies of the recorder's counter/gauge/timer/histogram dicts.
    Safe to call from another thread while the recorder is live; spans
    are never materialized.
    """
    for _ in range(64):
        try:
            shadow = Trace(
                meta={},
                spans=[],
                counters=dict(recorder.counters),
                gauges=dict(recorder.gauges),
                timers=dict(recorder.timers),
                histograms={
                    name: hist.snapshot()
                    for name, hist in recorder.histograms.items()
                },
            )
            break
        except RuntimeError:
            continue  # dict mutated during iteration: retry the copy
    else:  # pragma: no cover - would need a pathologically hot mutator
        raise RuntimeError("could not snapshot live recorder state")
    return metrics_from_trace(shadow, manifest=manifest)


def _flight_families(flight: FlightRecorder | None) -> list[MetricFamily]:
    if flight is None:
        return []
    return [
        MetricFamily(
            name="dmra_flight_entries",
            kind="gauge",
            help="Flight-recorder ring occupancy",
            samples=(
                MetricSample.of(len(flight), stat="held"),
                MetricSample.of(flight.total_noted, stat="noted"),
            ),
        )
    ]


class LiveServer:
    """Background HTTP endpoint over a live :class:`Recorder`.

    Start with :meth:`start`, stop with :meth:`stop` (both idempotent).
    ``listen`` is ``host:port``; port 0 binds an ephemeral port, the
    actual one is :attr:`port` after :meth:`start` returns.
    """

    def __init__(
        self,
        recorder: Recorder,
        listen: str = "127.0.0.1:0",
        manifest: dict | None = None,
        flight: FlightRecorder | None = None,
        flush_path: str | Path | None = None,
        flush_interval_s: float = 1.0,
    ) -> None:
        host, _, port_text = listen.rpartition(":")
        if not host or not port_text:
            raise ValueError(
                f"listen must be host:port, got {listen!r}"
            )
        self._host = host
        self._want_port = int(port_text)
        self._recorder = recorder
        self._manifest = manifest
        self._flight = flight
        self._flush_path = Path(flush_path) if flush_path else None
        self._flush_interval_s = max(flush_interval_s, 0.05)
        self._ready = threading.Event()
        self._started = threading.Event()
        self._stop_requested = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._start_error: BaseException | None = None
        self._failure: str | None = None
        self.port: int | None = None
        self.scrapes = 0
        self.flushes = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self, timeout_s: float = 10.0) -> "LiveServer":
        """Bind and serve on a daemon thread; returns once listening."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_thread, name="dmra-live", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("live endpoint did not start in time")
        if self._start_error is not None:
            raise RuntimeError(
                f"live endpoint failed to bind on "
                f"{self._host}:{self._want_port}: {self._start_error}"
            )
        return self

    def stop(self, final_flush: bool = True) -> None:
        """Shut the endpoint down and join its thread.  A failed run
        (:meth:`mark_failed`) gets no final flush."""
        if self._thread is None:
            return
        self._stop_requested.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(lambda: None)  # wake the waiter
        self._thread.join(timeout=10.0)
        self._thread = None
        if final_flush and self._failure is None and self._flush_path is not None:
            self.flush_to_disk()

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def mark_ready(self) -> None:
        """Flip ``/readyz`` to 200 (first flush / warmup completed)."""
        self._ready.set()

    def mark_failed(self, error: BaseException) -> None:
        """The run failed: from now on ``/healthz`` and ``/readyz``
        answer 503 with ``repr(error)``, no flush is written, and the
        flight ring (if attached) gets one ``failed`` note."""
        self._failure = repr(error)
        if self._flight is not None:
            self._flight.note("failed", error=self._failure)

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- snapshots ---------------------------------------------------------

    def snapshot_document(self) -> MetricsDocument:
        """The current scalar state as a metrics document."""
        doc = live_snapshot_document(self._recorder, self._manifest)
        extra = _flight_families(self._flight)
        if extra:
            doc = MetricsDocument(
                families=tuple(
                    sorted(
                        list(doc.families) + extra, key=lambda f: f.name
                    )
                ),
                manifest=doc.manifest,
            )
        return doc

    def flush_to_disk(self) -> None:
        """Write the current snapshot to the flush path and mark ready."""
        if self._flush_path is None:
            self.mark_ready()
            return
        write_metrics(self._flush_path, self.snapshot_document())
        self.flushes += 1
        self.mark_ready()

    # -- server internals --------------------------------------------------

    def _run_thread(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(loop))
        finally:
            loop.close()
            self._loop = None

    async def _serve(self, loop: asyncio.AbstractEventLoop) -> None:
        try:
            server = await asyncio.start_server(
                self._handle, self._host, self._want_port
            )
        except OSError as exc:
            self._start_error = exc
            self._started.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        flusher = (
            asyncio.ensure_future(self._flush_loop())
            if self._flush_path is not None
            else None
        )
        try:
            while not self._stop_requested.is_set():
                await asyncio.sleep(0.05)
        finally:
            if flusher is not None:
                flusher.cancel()
            server.close()
            await server.wait_closed()

    async def _flush_loop(self) -> None:
        while self._failure is None:
            try:
                await asyncio.to_thread(self.flush_to_disk)
            except Exception:  # noqa: BLE001 - flush must not kill serving
                pass
            await asyncio.sleep(self._flush_interval_s)

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            # Drain the remaining headers; GET requests have no body.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            method = parts[0] if parts else ""
            if method != "GET":
                status, ctype, body = 405, "text/plain", b"method not allowed\n"
            else:
                status, ctype, body = self._route(path.partition("?")[0])
            payload = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1") + body
            writer.write(payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, path: str) -> tuple[int, str, bytes]:
        if path == "/metrics":
            self.scrapes += 1
            text = prometheus_exposition(self.snapshot_document())
            return 200, "text/plain", text.encode()
        if path in ("/healthz", "/readyz") and self._failure is not None:
            return 503, "text/plain", f"failed: {self._failure}\n".encode()
        if path == "/healthz":
            return 200, "text/plain", b"ok\n"
        if path == "/readyz":
            if self._ready.is_set():
                return 200, "text/plain", b"ready\n"
            return 503, "text/plain", b"not ready (no flush yet)\n"
        if path == "/flightz":
            if self._flight is None:
                return 404, "text/plain", b"no flight recorder attached\n"
            body = json.dumps(
                self._flight.dump(), sort_keys=True, indent=2
            ).encode()
            return 200, "application/json", body + b"\n"
        return 404, "text/plain", b"not found\n"


_REASONS = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


def http_get(url: str, timeout_s: float = 5.0) -> tuple[int, str]:
    """Tiny dependency-free HTTP GET for tests and smoke scripts.

    Returns ``(status, body)``.  Understands only what
    :class:`LiveServer` emits (close-delimited HTTP/1.1 responses).
    """
    import socket
    from urllib.parse import urlparse

    parsed = urlparse(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    path = parsed.path or "/"
    deadline = time.monotonic() + timeout_s
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        chunks = []
        while True:
            sock.settimeout(max(deadline - time.monotonic(), 0.05))
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1])
    return status, body.decode()
