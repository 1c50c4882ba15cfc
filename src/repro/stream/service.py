"""Asyncio service loop around the stream dispatcher.

``serve_stream`` splits a tape replay into a producer coroutine (reads
the tape) and a consumer coroutine (dispatches into the engine),
joined by a **bounded** :class:`asyncio.Queue`.  When the allocator
falls behind, ``await queue.put`` suspends the producer — the
tape is the backpressure boundary, so memory stays bounded by the queue
size no matter how bursty the event stream is.  In production the
producer would read a socket or broker; here it reads the deterministic
tape, which is what lets the service be regression-tested: for the same
``(config, stream, seed)`` the service's outcome — including its
bit-exact digest — equals :func:`repro.stream.runner.run_stream`'s.

Queue depth is observed as a real labeled gauge (``stream.queue_depth``)
and a depth histogram (``stream.queue_depth_hist``), so it reaches
metrics documents and ``dmra trace diff``; the peak also remains a span
attribute for the trace report.  Depth depends on scheduler
interleaving, so it stays out of the *outcome-only* metrics document
that ``dmra serve --metrics`` writes and the from-scratch equivalence
test diffs.  Per-event dispatch latency lands in the
``stream.event_latency_s.<kind>`` histograms (one per event kind,
folded into one ``event``-labeled Prometheus family).
"""

from __future__ import annotations

import asyncio
import time

from repro.core.matching import MatchingPolicy
from repro.errors import ConfigurationError
from repro.obs import DEFAULT_DEPTH_BOUNDS, get_telemetry
from repro.sim.config import ScenarioConfig
from repro.stream.runner import StreamDispatcher, StreamOutcome
from repro.stream.tape import StreamConfig, open_tape

__all__ = ["serve_stream", "serve_stream_async"]

#: Producer/consumer handoff buffer (events). Small by design: the
#: point of the service loop is backpressure, not buffering.
DEFAULT_QUEUE_MAXSIZE = 256

_STOP = object()


async def serve_stream_async(
    config: ScenarioConfig,
    stream: StreamConfig,
    seed: int,
    *,
    kernel: str = "auto",
    policy: MatchingPolicy | None = None,
    series_stride: int = 1,
    queue_maxsize: int = DEFAULT_QUEUE_MAXSIZE,
    flight=None,
) -> StreamOutcome:
    """Replay one churn tape through the backpressured service loop.

    ``flight`` optionally takes a
    :class:`~repro.obs.telemetry.FlightRecorder`; the loop notes every
    batch boundary and completion into its ring for postmortems.
    """
    if queue_maxsize <= 0:
        raise ConfigurationError(
            f"queue_maxsize must be > 0, got {queue_maxsize}"
        )
    tel = get_telemetry()
    with tel.span(
        "stream.serve", kernel=kernel, queue_maxsize=queue_maxsize,
    ) as serve_span:
        tape = open_tape(config, stream, seed)
        dispatcher = StreamDispatcher(
            tape, kernel=kernel, policy=policy, series_stride=series_stride
        )
        queue: asyncio.Queue = asyncio.Queue(maxsize=queue_maxsize)
        max_depth = 0

        async def produce() -> None:
            # A full queue suspends this coroutine — backpressure.
            for event in dispatcher.events():
                await queue.put(event)
            await queue.put(_STOP)

        recording = tel.enabled
        clock = time.perf_counter

        async def consume() -> None:
            nonlocal max_depth
            while True:
                event = await queue.get()
                depth = queue.qsize() + 1
                if depth > max_depth:
                    max_depth = depth
                if event is _STOP:
                    return
                if recording:
                    tel.gauge("stream.queue_depth", depth)
                    tel.observe(
                        "stream.queue_depth_hist", depth,
                        bounds=DEFAULT_DEPTH_BOUNDS,
                    )
                    t0 = clock()
                    dispatcher.dispatch(event)
                    tel.observe(
                        "stream.event_latency_s."
                        f"{event.kind.name.lower()}",
                        clock() - t0,
                    )
                else:
                    dispatcher.dispatch(event)
                if flight is not None:
                    flight.note(
                        "event", event=event.kind.name.lower(),
                        ue=event.ue_id, t=event.time_s, depth=depth,
                    )
                # Dispatch is synchronous CPU work; yield so the
                # producer (or a surrounding application) can run
                # between events even when the queue never fills.
                await asyncio.sleep(0)

        start = time.perf_counter()
        await asyncio.gather(produce(), consume())
        outcome = dispatcher.finish(wall_s=time.perf_counter() - start)
        if flight is not None:
            flight.note(
                "finish", events=outcome.events_processed,
                queue_max_depth=max_depth,
            )
        serve_span.set(
            events=outcome.events_processed,
            queue_max_depth=max_depth,
            admitted_edge=outcome.admitted_edge,
            admitted_cloud=outcome.admitted_cloud,
            readmitted=outcome.readmitted,
        )
    return outcome


def serve_stream(
    config: ScenarioConfig,
    stream: StreamConfig,
    seed: int,
    **kwargs,
) -> StreamOutcome:
    """Synchronous entry point: run the service loop to completion."""
    return asyncio.run(
        serve_stream_async(config, stream, seed, **kwargs)
    )
