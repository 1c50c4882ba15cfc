"""Structured telemetry: counters, gauges, timers, and nested spans.

The instrumented hot paths (matching engine, radio-map builders, the
online event loop, failure repair, sweeps) all report through one
process-wide backend obtained via :func:`get_telemetry`.  Two backends
exist:

* :class:`NullTelemetry` — the **default**.  Every operation is a no-op
  on a shared singleton: no allocation, no clock read, no branching
  beyond one attribute call.  Instrumentation left in a hot loop costs
  one method dispatch when telemetry is off, which is the subsystem's
  zero-overhead guarantee: every untraced benchmark op runs through
  these null spans.
* :class:`Recorder` — an in-memory collector.  Spans form a tree
  (``span("match")`` inside ``span("sweep.cell")`` nests), counters
  accumulate sums, gauges keep last/min/max, timers aggregate named
  durations, and histograms (:mod:`repro.obs.histogram`) bucket
  distributions such as per-event latency.  A recorder serializes to
  the versioned JSONL trace format (:mod:`repro.obs.trace`) rendered
  by ``dmra trace``.

Recording is buffered: ``span()`` and its ``__exit__`` append flat
event tuples to one per-recorder list and defer all tree/dict
construction (:class:`SpanRecord` nodes, attribute dicts, child lists)
to flush time — the first access of :attr:`Recorder.roots`, typically
when the trace is written.  An enabled span on the hot path therefore
costs two clock reads, two tuple allocations, and two list appends; a
traced benchmark run reports the resulting overhead
(``obs.trace_overhead``).

Backends are installed process-wide with :func:`set_telemetry` or,
preferably, scoped with the :func:`telemetry_session` context manager.
Recorders are single-threaded by design; parallel sweep workers each
record into their own recorder (sharing the parent's epoch via
:meth:`Recorder.child`) and the parent grafts the results into one
merged trace with :meth:`Recorder.absorb`.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.obs.histogram import Histogram

__all__ = [
    "FlightRecorder",
    "GaugeStat",
    "NullTelemetry",
    "Recorder",
    "SpanRecord",
    "TimerStat",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
]


@dataclass
class SpanRecord:
    """One finished (or still open) span in a recorder's tree.

    Times are seconds relative to the recorder's epoch, so spans from a
    worker recorder created via :meth:`Recorder.child` land directly on
    the parent's timeline.
    """

    name: str
    start_s: float
    end_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def walk(self) -> Iterator["SpanRecord"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class GaugeStat:
    """Aggregated samples of one gauge: last value plus its envelope."""

    value: float
    min: float
    max: float
    count: int = 1

    def update(self, value: float) -> None:
        """Fold one more sample into the aggregate."""
        self.value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.count += 1


@dataclass
class TimerStat:
    """Aggregated durations of one named timer."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one more measured duration into the aggregate."""
        self.min_s = seconds if self.count == 0 else min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)
        self.count += 1
        self.total_s += seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class _NullSpan:
    """Shared no-op span/timer handle returned by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The default backend: everything is a no-op, nothing is recorded."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        """No-op span: returns the shared null handle."""
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        """No-op counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """No-op gauge sample."""

    def timer(self, name: str) -> _NullSpan:
        """No-op timer: returns the shared null handle."""
        return _NULL_SPAN

    def observe(
        self, name: str, value: float,
        bounds: Sequence[float] | None = None,
    ) -> None:
        """No-op histogram observation."""


#: The shared null backend; ``get_telemetry()`` returns this by default.
NULL = NullTelemetry()


class _ActiveSpan:
    """Context-manager handle for one open span on a recorder.

    Holds only the recorder and the span's serial number; every
    operation appends an event tuple — no tree node exists until the
    recorder flushes.
    """

    __slots__ = ("_recorder", "_serial")

    def __init__(self, recorder: "Recorder", serial: int) -> None:
        self._recorder = recorder
        self._serial = serial

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        recorder._events.append((
            _EV_END,
            self._serial,
            recorder._clock(),
            None if exc_type is None else exc_type.__name__,
        ))
        return False

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes to the span (JSON-serializable values)."""
        self._recorder._events.append((_EV_ATTRS, self._serial, attrs))
        return self


class _ActiveTimer:
    """Context-manager handle aggregating one duration into a timer."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_ActiveTimer":
        self._start = self._recorder._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.record_timer(
            self._name, self._recorder._clock() - self._start
        )
        return False

    def set(self, **attrs) -> "_ActiveTimer":  # signature parity with spans
        return self


# Event tags for the recorder's buffered event list.  Each entry is a
# flat tuple: (tag, ...) — see Recorder._materialize for the layouts.
_EV_OPEN = 0
_EV_END = 1
_EV_ATTRS = 2
_EV_GRAFT = 3
_EV_GRAFT_AT = 4


class Recorder:
    """In-memory telemetry collector (spans, counters, gauges, timers).

    Span events buffer into ``_events`` (flat tuples holding absolute
    ``perf_counter`` readings); the :class:`SpanRecord` tree is built
    lazily by the :attr:`roots` property and cached until new events
    arrive.  Counters, gauges, and timers aggregate eagerly — they are
    O(1) dict updates with no deferred work to win.
    """

    enabled = True

    def __init__(
        self,
        meta: dict | None = None,
        epoch_s: float | None = None,
    ) -> None:
        self._clock = time.perf_counter
        self._epoch = self._clock() if epoch_s is None else epoch_s
        self.meta: dict = dict(meta or {})
        self._events: list[tuple] = []
        self._next_serial = 1
        self._built_roots: list[SpanRecord] = []
        self._built_events = 0
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, GaugeStat] = {}
        self.timers: dict[str, TimerStat] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def now_s(self) -> float:
        """Seconds since this recorder's epoch."""
        return self._clock() - self._epoch

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span nested under the currently open one (if any)."""
        serial = self._next_serial
        self._next_serial = serial + 1
        self._events.append((
            _EV_OPEN, serial, name, self._clock(), attrs or None,
        ))
        return _ActiveSpan(self, serial)

    @property
    def roots(self) -> list[SpanRecord]:
        """The span forest, materialized from the event buffer.

        Rebuilt (and re-cached) whenever events were appended since the
        last flush; still-open spans appear with ``end_s == 0.0``.
        """
        if self._built_events != len(self._events):
            self._materialize()
        return self._built_roots

    def _materialize(self) -> None:
        """Replay the event buffer into a fresh :class:`SpanRecord` tree."""
        epoch = self._epoch
        roots: list[SpanRecord] = []
        stack: list[tuple[int, SpanRecord]] = []
        by_serial: dict[int, SpanRecord] = {}
        anchored: list[tuple[str, list[SpanRecord]]] = []
        for event in self._events:
            tag = event[0]
            if tag == _EV_OPEN:
                _, serial, name, at, attrs = event
                record = SpanRecord(
                    name=name,
                    start_s=at - epoch,
                    attrs={} if attrs is None else dict(attrs),
                )
                by_serial[serial] = record
                (stack[-1][1].children if stack else roots).append(record)
                stack.append((serial, record))
            elif tag == _EV_END:
                _, serial, at, error = event
                end_s = at - epoch
                record = by_serial.get(serial)
                if record is not None and error is not None:
                    record.attrs.setdefault("error", error)
                # Pop through any children left open (exception unwound
                # past their __exit__); close them at the same instant.
                while stack:
                    top_serial, top = stack.pop()
                    top.end_s = end_s
                    if top_serial == serial:
                        break
            elif tag == _EV_ATTRS:
                _, serial, attrs = event
                record = by_serial.get(serial)
                if record is not None:
                    record.attrs.update(attrs)
            elif tag == _EV_GRAFT:  # absorbed recorder's roots
                target = stack[-1][1].children if stack else roots
                target.extend(event[1])
            else:  # _EV_GRAFT_AT: spans anchored to a span_ref attribute
                anchored.append((event[1], event[2]))
        if anchored:
            # Resolve anchors only after the full replay: the span
            # carrying the matching ``span_ref`` attribute may have
            # been recorded after the graft event was appended.
            by_ref: dict[str, SpanRecord] = {}
            for root in roots:
                for record in root.walk():
                    ref = record.attrs.get("span_ref")
                    if ref is not None and ref not in by_ref:
                        by_ref[ref] = record
            for ref, spans in anchored:
                target = by_ref.get(ref)
                (target.children if target is not None else roots).extend(
                    spans
                )
        self._built_roots = roots
        self._built_events = len(self._events)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a named monotonically accumulating counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the current value of a named gauge."""
        stat = self.gauges.get(name)
        if stat is None:
            self.gauges[name] = GaugeStat(value=value, min=value, max=value)
        else:
            stat.update(value)

    def timer(self, name: str) -> _ActiveTimer:
        """Context manager timing its body into a named aggregate."""
        return _ActiveTimer(self, name)

    def record_timer(self, name: str, seconds: float) -> None:
        """Directly add one duration to a named timer aggregate."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.add(seconds)

    def observe(
        self, name: str, value: float,
        bounds: Sequence[float] | None = None,
    ) -> None:
        """Fold one observation into a named histogram.

        ``bounds`` picks the bucket ladder when the histogram is first
        created (default: the latency ladder); it is ignored on every
        later observation — bounds are fixed for a metric's lifetime.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds=bounds)
        hist.observe(value)

    # ------------------------------------------------------------------
    # Cross-recorder composition (parallel sweep workers)
    # ------------------------------------------------------------------

    def child(self) -> "Recorder":
        """A fresh recorder sharing this one's epoch.

        Sweep cells record into children (one per cell, possibly in a
        forked worker — ``time.perf_counter`` is fork-consistent on
        Linux) so their span times stay on the parent timeline and
        :meth:`absorb` is a straight graft.
        """
        return Recorder(epoch_s=self._epoch)

    def absorb(self, other: "Recorder") -> None:
        """Merge another recorder into this one.

        The other recorder's root spans become children of the span
        currently open here (or roots), and its counters, gauges,
        timers, and histograms fold into this recorder's aggregates.
        """
        self._events.append((_EV_GRAFT, list(other.roots)))
        self.merge_stats(other)

    def graft_at(self, span_ref: str, spans: list[SpanRecord]) -> None:
        """Graft foreign spans under the span tagged ``span_ref``.

        The anchor is the first recorded span whose attributes contain
        ``span_ref == span_ref`` (set via ``span.set(span_ref=...)``);
        if no span carries the tag the grafted spans surface as roots
        rather than being dropped.  Used by the dist supervisor to hang
        each node's per-phase span forest under the supervisor-side
        phase span it causally belongs to.
        """
        self._events.append((_EV_GRAFT_AT, span_ref, list(spans)))

    def merge_stats(self, other: "Recorder") -> None:
        """Fold another recorder's scalar aggregates (counters, gauges,
        timers, histograms) into this one, without touching spans."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, stat in other.gauges.items():
            mine = self.gauges.get(name)
            if mine is None:
                self.gauges[name] = GaugeStat(
                    value=stat.value, min=stat.min, max=stat.max,
                    count=stat.count,
                )
            else:
                mine.value = stat.value
                mine.min = min(mine.min, stat.min)
                mine.max = max(mine.max, stat.max)
                mine.count += stat.count
        for name, stat in other.timers.items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = TimerStat(
                    count=stat.count, total_s=stat.total_s,
                    min_s=stat.min_s, max_s=stat.max_s,
                )
            elif stat.count:
                mine.min_s = (
                    stat.min_s if mine.count == 0
                    else min(mine.min_s, stat.min_s)
                )
                mine.max_s = max(mine.max_s, stat.max_s)
                mine.count += stat.count
                mine.total_s += stat.total_s
        for name, hist in other.histograms.items():
            mine_h = self.histograms.get(name)
            if mine_h is None:
                self.histograms[name] = hist.snapshot()
            else:
                mine_h.merge(hist)

    def all_spans(self) -> Iterator[SpanRecord]:
        """Pre-order traversal over every recorded span."""
        for root in self.roots:
            yield from root.walk()


class FlightRecorder:
    """Bounded ring buffer of recent telemetry notes for postmortems.

    Always-on and nearly free: ``note()`` costs one tuple allocation
    and one deque append (old entries fall off the far end), no clock
    formatting, no I/O.  On a crash — a ``--faults crash`` control
    frame, an unhandled exception in a node body, or an explicit dump
    request — :meth:`dump` renders the last N entries into plain
    dicts, newest last, so the final moments before the failure are
    readable without any trace having been configured.

    Each entry is ``(seq, t_s, kind, fields)`` where ``t_s`` is seconds
    on the monotonic clock relative to the ring's construction.
    """

    __slots__ = ("_ring", "_clock", "_epoch", "_seq")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._ring: deque = deque(maxlen=capacity)
        self._clock = time.perf_counter
        self._epoch = self._clock()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def total_noted(self) -> int:
        """How many notes were ever taken (>= ``len`` once wrapped)."""
        return self._seq

    def note(self, kind: str, /, **fields) -> None:
        """Append one entry; evicts the oldest when the ring is full."""
        self._seq += 1
        self._ring.append(
            (self._seq, self._clock() - self._epoch, kind, fields or None)
        )

    def dump(self) -> dict:
        """The ring as a JSON-safe postmortem document, oldest first."""
        return {
            "schema": "dmra.flight/1",
            "capacity": self.capacity,
            "total_noted": self._seq,
            "entries": [
                {
                    "seq": seq,
                    "t_s": round(t_s, 6),
                    "kind": kind,
                    **(fields or {}),
                }
                for seq, t_s, kind, fields in self._ring
            ],
        }

    def dump_to(self, path) -> None:
        """Write :meth:`dump` as canonical JSON to ``path``."""
        import json
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.dump(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------

_ACTIVE: NullTelemetry | Recorder = NULL


def get_telemetry() -> NullTelemetry | Recorder:
    """The currently installed backend (the null backend by default)."""
    return _ACTIVE


def set_telemetry(
    backend: NullTelemetry | Recorder,
) -> NullTelemetry | Recorder:
    """Install a backend process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = backend
    return previous


@contextmanager
def telemetry_session(backend: Recorder | None = None):
    """Scope a backend: install it, yield it, restore the previous one.

    ``backend=None`` creates a fresh :class:`Recorder`.
    """
    recorder = Recorder() if backend is None else backend
    previous = set_telemetry(recorder)
    try:
        yield recorder
    finally:
        set_telemetry(previous)
