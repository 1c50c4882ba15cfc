"""Event-driven streaming allocation: churn tapes, the incremental
engine, and the backpressured service loop.

See ``docs/streaming.md`` for the dirty-neighborhood invariant and the
from-scratch replay (``tests/oracles/stream.py``) the engine is held
equal to.
"""

from repro.stream.engine import SOA_BATCH_THRESHOLD, IncrementalShardEngine
from repro.stream.events import StreamEvent
from repro.stream.runner import (
    StreamDispatcher,
    StreamOutcome,
    replay_tape,
    run_stream,
)
from repro.stream.service import serve_stream, serve_stream_async
from repro.stream.tape import ChurnTape, StreamConfig, open_tape

__all__ = [
    "SOA_BATCH_THRESHOLD",
    "ChurnTape",
    "IncrementalShardEngine",
    "StreamConfig",
    "StreamDispatcher",
    "StreamEvent",
    "StreamOutcome",
    "open_tape",
    "replay_tape",
    "run_stream",
    "serve_stream",
    "serve_stream_async",
]
