"""Span-based tracing on the virtual clock.

The paper's evidence is a *timeline*: dmesg error chains, FIO latency
tails, and time-to-crash numbers all describe when things happened on
the victim's clock.  :class:`Tracer` records that timeline explicitly —
completed spans (attack points, drive commands, journal commits, WAL
syncs, compactions) and instant events (retries, aborts, kernel log
lines), every one stamped with **virtual** seconds from the component's
own :class:`~repro.sim.clock.VirtualClock`.

Tracing is opt-in.  When no telemetry is installed components skip the
recorder entirely (a single ``is not None`` check), and
:data:`NULL_TRACER` gives campaign code an always-valid ``track``/``span``
pair that does nothing — the hot paths stay bit-identical and within
their wall-time budget with telemetry off.

Spans carry a ``track`` label (a Perfetto thread row).  Components
record against the tracer's *current* track, which campaign code sets
with :meth:`Tracer.track` around each sweep/range point, so every
point's rig gets its own labelled row in the exported trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError

__all__ = ["SpanRecord", "EventRecord", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(frozen=True)
class SpanRecord:
    """One completed operation on the virtual timeline."""

    name: str
    category: str
    start_s: float
    end_s: float
    track: str
    status: str = "ok"
    args: Optional[Dict[str, Any]] = None

    @property
    def duration_s(self) -> float:
        """Virtual seconds the operation took."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class EventRecord:
    """One instant on the virtual timeline (a point, not a range)."""

    name: str
    category: str
    ts_s: float
    track: str
    args: Optional[Dict[str, Any]] = None


class Tracer:
    """Records spans and instant events, bounded, snapshot/mergeable.

    Args:
        max_records: cap on spans + events kept; beyond it new records
            are dropped (counted in :attr:`dropped`), mirroring the
            dmesg ring's overflow discipline.
        detail: ``"commands"`` records one span per drive command;
            ``"attempts"`` additionally records every media attempt
            (seek + settle + transfer or retry revolution) as its own
            span — much bigger traces, per-revolution resolution.
    """

    def __init__(self, max_records: int = 1_000_000, detail: str = "commands") -> None:
        if max_records <= 0:
            raise ConfigurationError(f"max_records must be positive: {max_records}")
        if detail not in ("commands", "attempts"):
            raise ConfigurationError(f"unknown trace detail {detail!r}")
        self.max_records = max_records
        self.detail = detail
        # Hot-path storage: spans/events are kept as plain slot tuples in
        # SpanRecord/EventRecord field order — appending a tuple is several
        # times cheaper than constructing a frozen dataclass per drive
        # command, which BENCH_PR6 measured as ~12x traced overhead.  The
        # record views below materialize dataclasses on each read; the
        # Chrome exporter streams from the tuples and never builds them.
        self._spans: List[tuple] = []
        self._events: List[tuple] = []
        self.dropped = 0
        self._track_stack: List[str] = []

    @property
    def spans(self) -> List[SpanRecord]:
        """Completed spans as :class:`SpanRecord` objects (a fresh list)."""
        return [SpanRecord(*row) for row in self._spans]

    @property
    def events(self) -> List[EventRecord]:
        """Instant events as :class:`EventRecord` objects (a fresh list)."""
        return [EventRecord(*row) for row in self._events]

    # -- tracks --------------------------------------------------------------

    @property
    def current_track(self) -> str:
        """The track new records land on (default ``"main"``)."""
        return self._track_stack[-1] if self._track_stack else "main"

    @contextmanager
    def track(self, name: str) -> Iterator[None]:
        """Route records inside the block onto track ``name``."""
        self._track_stack.append(name)
        try:
            yield
        finally:
            self._track_stack.pop()

    # -- recording -----------------------------------------------------------

    def _full(self) -> bool:
        if len(self._spans) + len(self._events) >= self.max_records:
            self.dropped += 1
            return True
        return False

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        category: str = "",
        status: str = "ok",
        args: Optional[Dict[str, Any]] = None,
        track: Optional[str] = None,
    ) -> None:
        """Append an already-completed span (the cheap hot-path form)."""
        spans = self._spans
        if len(spans) + len(self._events) >= self.max_records:
            self.dropped += 1
            return
        if track is None:
            stack = self._track_stack
            track = stack[-1] if stack else "main"
        spans.append((name, category, start_s, end_s, track, status, args))

    @contextmanager
    def span(
        self,
        name: str,
        clock,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        """Record a span around the block, stamped by ``clock.now``.

        An exception escaping the block marks the span ``status="error"``
        (and still re-raises) — failed journal commits and WAL syncs
        show up red in the trace viewer.
        """
        start = clock.now
        try:
            yield
        except BaseException:
            self.record(name, start, clock.now, category=category, status="error", args=args)
            raise
        self.record(name, start, clock.now, category=category, args=args)

    def instant(
        self,
        name: str,
        ts_s: float,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
        track: Optional[str] = None,
    ) -> None:
        """Append an instant event at virtual time ``ts_s``."""
        if self._full():
            return
        if track is None:
            stack = self._track_stack
            track = stack[-1] if stack else "main"
        self._events.append((name, category, ts_s, track, args))

    def ingest_dmesg(self, buffer, track: str = "dmesg") -> int:
        """Copy a :class:`~repro.storage.oskernel.dmesg.DmesgBuffer`'s
        entries in as instant events; returns how many were ingested.

        Uses the buffer's :meth:`to_events` export so kernel log lines
        carry their virtual-clock timestamps (and the ring's eviction
        marker) into the trace.
        """
        ingested = 0
        for event in buffer.to_events():
            self.instant(
                event["name"],
                event["ts_s"],
                category=event.get("category", "dmesg"),
                args=event.get("args"),
                track=track,
            )
            ingested += 1
        return ingested

    # -- transport (worker processes) ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of everything recorded (for worker transport).

        The internal tuples already hold the snapshot's field order, so
        each list is a copy of the row tuples (``json.dumps`` writes a
        tuple as an array) — no attribute walks, no per-row copies.
        """
        return {
            "spans": list(self._spans),
            "events": list(self._events),
            "dropped": self.dropped,
        }

    def ingest(self, snapshot: Dict[str, Any]) -> None:
        """Merge a :meth:`snapshot` from another tracer (append order).

        Keeps and drops exactly what one :meth:`record` per span, then
        one :meth:`instant` per event, would: the rows that fit under
        ``max_records`` are appended in bulk, spans first, and the rest
        are counted in ``dropped``, as is the snapshot's own ``dropped``.
        The rows are kept as they are, so each must be a tuple of its
        record's width (a pickled snapshot's are); any other row raises
        :class:`~repro.errors.ConfigurationError` before anything is kept.
        """
        spans = snapshot["spans"]
        events = snapshot["events"]
        if not (_tuples_of(spans, 7) and _tuples_of(events, 5)):
            raise ConfigurationError(
                "snapshot rows must be tuples of 7 (spans) and 5 (events) fields"
            )
        room = max(self.max_records - len(self._spans) - len(self._events), 0)
        kept_spans = spans[:room]
        kept_events = events[: room - len(kept_spans)]
        self._spans.extend(kept_spans)
        self._events.extend(kept_events)
        self.dropped += (
            len(spans) - len(kept_spans) + len(events) - len(kept_events)
            + snapshot.get("dropped", 0)
        )

    # -- introspection -------------------------------------------------------

    def find_spans(self, name: str, track: Optional[str] = None) -> List[SpanRecord]:
        """Spans with the given name (optionally on one track)."""
        return [
            SpanRecord(*row)
            for row in self._spans
            if row[0] == name and (track is None or row[4] == track)
        ]

    def __len__(self) -> int:
        return len(self._spans) + len(self._events)


def _tuples_of(rows: List[Any], width: int) -> bool:
    """Whether every row is a plain tuple of ``width`` fields."""
    return set(map(type, rows)) <= {tuple} and set(map(len, rows)) <= {width}


class NullTracer:
    """:class:`Tracer`'s two context managers, as no-ops.

    Campaign code enters ``track`` and ``span`` unconditionally; while
    telemetry is off it holds the shared :data:`NULL_TRACER` instead of
    a :class:`Tracer`, and checks for a bundle before anything else.
    """

    def track(self, name: str):
        """A do-nothing context manager."""
        return _NOOP_CONTEXT

    def span(self, name: str, clock, category: str = "", args=None):
        """A do-nothing context manager; ``clock`` is not read."""
        return _NOOP_CONTEXT


class _NoopContext:
    """A reusable, reentrant do-nothing context manager."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()

#: The shared disabled recorder.
NULL_TRACER = NullTracer()
