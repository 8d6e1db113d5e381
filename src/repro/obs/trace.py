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
:data:`NULL_TRACER` gives callers that want an always-valid tracer a
recorder whose every method is a no-op — the hot paths of PR 2 stay
bit-identical and within their wall-time budget with telemetry off.

Spans carry a ``track`` label (a Perfetto thread row).  Components
record against the tracer's *current* track, which campaign code sets
with :meth:`Tracer.track` around each sweep/range point, so every
point's rig gets its own labelled row in the exported trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
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

    enabled = True

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
        this is a plain list copy — no attribute walks.
        """
        return {
            "spans": [list(row) for row in self._spans],
            "events": [list(row) for row in self._events],
            "dropped": self.dropped,
        }

    def ingest(self, snapshot: Dict[str, Any], track_prefix: str = "") -> None:
        """Merge a :meth:`snapshot` from another tracer (append order)."""
        for name, category, start_s, end_s, track, status, args in snapshot["spans"]:
            self.record(
                name,
                start_s,
                end_s,
                category=category,
                status=status,
                args=args,
                track=track_prefix + track,
            )
        for name, category, ts_s, track, args in snapshot["events"]:
            self.instant(
                name, ts_s, category=category, args=args, track=track_prefix + track
            )
        self.dropped += snapshot.get("dropped", 0)

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


class NullTracer:
    """A recorder whose every method is a no-op.

    Shares the :class:`Tracer` surface so code holding "a tracer" never
    needs an enabled check; the shared :data:`NULL_TRACER` instance is
    what :func:`repro.obs.tracer` hands out while telemetry is off.
    """

    enabled = False
    detail = "commands"
    dropped = 0
    spans: List[SpanRecord] = []
    events: List[EventRecord] = []
    current_track = "main"

    _NOOP_CM = None  # filled in below; one shared reusable context manager

    def record(self, *args, **kwargs) -> None:
        """Drop the span."""

    def instant(self, *args, **kwargs) -> None:
        """Drop the instant event."""

    def ingest_dmesg(self, buffer, track: str = "dmesg") -> int:
        """Ingest nothing; returns 0."""
        return 0

    def snapshot(self) -> Dict[str, Any]:
        """An empty :meth:`Tracer.snapshot`."""
        return {"spans": [], "events": [], "dropped": 0}

    def ingest(self, snapshot: Dict[str, Any], track_prefix: str = "") -> None:
        """Drop the snapshot's records."""

    def find_spans(self, name: str, track: Optional[str] = None) -> List[SpanRecord]:
        """No spans are ever recorded: always ``[]``."""
        return []

    def track(self, name: str):
        """A do-nothing context manager."""
        return _NOOP_CONTEXT

    def span(self, name: str, clock, category: str = "", args=None):
        """A do-nothing context manager; ``clock`` is not read."""
        return _NOOP_CONTEXT

    def __len__(self) -> int:
        return 0


class _NoopContext:
    """A reusable, reentrant do-nothing context manager."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()

#: The shared disabled recorder.
NULL_TRACER = NullTracer()
