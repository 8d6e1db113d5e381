"""A deterministic discrete-event engine on the virtual clock.

Most of the reproduction advances time synchronously through
:class:`repro.sim.clock.VirtualClock`, but periodic activity — journal
commit timers, background compaction, attack schedule changes, watchdog
monitors — is expressed as events on an :class:`EventQueue` driven by
:class:`EventScheduler`, the fleet-scale engine documented in
``docs/SIMULATION.md``: stable ``(time, lane, seq)`` ordering,
label-forked per-actor RNG streams, and ``repro.obs`` counters/series
describing the event loop itself.

Determinism contract (see docs/SIMULATION.md):

* time is virtual seconds only — no wall clock anywhere (deepcheck
  DC01); the clock advances exactly to each event's timestamp;
* simultaneous events fire in ``(lane, seq)`` order, so cross-actor
  phases (attack edges before service ticks before monitors) resolve
  identically on every run and at every sharding width;
* randomness comes from :meth:`EventScheduler.rng_for`, which forks a
  child stream from a string label — a stream's values depend on the
  scheduler seed and the label, never on fork order or event order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs import telemetry as obs
from repro.rng import ReproRandom, make_rng

from .clock import VirtualClock

__all__ = [
    "LANE_ATTACK",
    "LANE_SERVICE",
    "LANE_DEFAULT",
    "LANE_REPAIR",
    "LANE_MONITOR",
    "Event",
    "EventQueue",
    "EventScheduler",
]

# Tie-breaking lanes for simultaneous events, fired in ascending order.
# Physics edges must land before the service work that samples them, and
# monitors must observe the post-service state; repairs sit in between so
# a rebuild completing exactly at a monitor tick is visible to it.
LANE_ATTACK = 0
LANE_SERVICE = 10
LANE_DEFAULT = LANE_SERVICE
LANE_REPAIR = 20
LANE_MONITOR = 30


@dataclass(order=True)
class Event:
    """A scheduled callback; ordering is ``(when, lane, seq)``.

    ``seq`` is a queue-global monotone counter, so events at the same
    virtual time and lane fire in scheduling order — the final, total
    tie-break that makes the engine deterministic.
    """

    when: float
    lane: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark this event so the scheduler skips it when it fires."""
        self.cancelled = True


class EventQueue:
    """A min-heap of :class:`Event` objects keyed ``(when, lane, seq)``."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(
        self,
        when: float,
        action: Callable[[], None],
        label: str = "",
        lane: int = LANE_DEFAULT,
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``when`` seconds."""
        event = Event(
            when=when, lane=lane, seq=next(self._counter), action=action, label=label
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest live event, or None if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].when if self._heap else None


class EventScheduler:
    """The fleet-scale event engine: one clock, many actors, one seed.

    Drives an :class:`EventQueue` against a :class:`VirtualClock`, with
    the two facilities a multi-actor simulation needs
    (docs/SIMULATION.md documents both contracts):

    * **per-actor RNG** — :meth:`rng_for` forks a child stream off the
      scheduler's root :class:`~repro.rng.ReproRandom` by string label
      and caches it, so ``rng_for("rack3/service")`` returns the same
      stream no matter when (or in which process shard) it is first
      requested;
    * **observability** — each fired event increments the
      ``sim_events_fired_total`` counter and records one point on the
      ``sim/events`` series through the ambient ``repro.obs`` bundle.
      Both are read via ``obs.get()`` and skipped entirely when
      telemetry is off, so the engine stays observationally invisible
      and draw-for-draw identical either way.
    """

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        rng: Optional[ReproRandom] = None,
        name: str = "sim",
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.queue = EventQueue()
        self.fired = 0
        self.name = name
        self.rng = rng if rng is not None else make_rng().fork(name)
        self._actor_rngs: Dict[str, ReproRandom] = {}

    @property
    def now(self) -> float:
        """Current simulated time in virtual seconds."""
        return self.clock.now

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
        lane: int = LANE_DEFAULT,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` virtual seconds from now."""
        if delay < 0.0:
            raise ConfigurationError(f"cannot schedule in the past: {delay}")
        return self.queue.push(self.clock.now + delay, action, label=label, lane=lane)

    def schedule_at(
        self,
        when: float,
        action: Callable[[], None],
        label: str = "",
        lane: int = LANE_DEFAULT,
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``when`` seconds."""
        if when < self.clock.now:
            raise ConfigurationError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        return self.queue.push(when, action, label=label, lane=lane)

    def schedule_every(
        self,
        interval: float,
        action: Callable[[], None],
        label: str = "",
        until: Optional[float] = None,
        lane: int = LANE_DEFAULT,
    ) -> Event:
        """Schedule ``action`` every ``interval`` seconds; returns the first event.

        Cancelling the returned event only cancels the next firing; use
        ``until`` (inclusive) to bound a periodic chain, or raise
        StopIteration from ``action`` to end it.
        """
        if interval <= 0.0:
            raise ConfigurationError(f"interval must be positive: {interval}")

        def fire_and_reschedule() -> None:
            try:
                action()
            except StopIteration:
                return
            next_time = self.clock.now + interval
            if until is None or next_time <= until:
                self.queue.push(next_time, fire_and_reschedule, label=label, lane=lane)

        return self.schedule(interval, fire_and_reschedule, label=label, lane=lane)

    def run_until(self, deadline: float) -> None:
        """Fire every event scheduled at or before ``deadline``.

        The clock always lands exactly on ``deadline`` so that callers can
        interleave synchronous work with event processing.
        """
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
        self.clock.advance_to(deadline)

    def rng_for(self, label: str) -> ReproRandom:
        """The deterministic RNG stream for actor ``label``.

        Forked from the scheduler's root stream by label (never by call
        order) and cached, so repeated calls return the *same* stream
        object and its draw sequence depends only on (seed, label).
        """
        rng = self._actor_rngs.get(label)
        if rng is None:
            rng = self.rng.fork(label)
            self._actor_rngs[label] = rng
        return rng

    def step(self) -> bool:
        """Fire the earliest event, then record it to the obs bundle."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.when)
        event.action()
        self.fired += 1
        tel = obs.get()
        if tel is not None:
            tel.metrics.counter(
                "sim_events_fired_total",
                description="Events fired by the discrete-event scheduler.",
                scheduler=self.name,
            ).inc()
            tel.series.record("sim/events", event.when, 1.0)
        return True
