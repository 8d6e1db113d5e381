"""Virtual clock and discrete-event simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue, EventScheduler


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            VirtualClock().advance(-0.1)

    def test_advance_to_never_goes_backward(self):
        clock = VirtualClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0

    def test_elapsed_since(self):
        clock = VirtualClock()
        start = clock.now
        clock.advance(3.25)
        assert clock.elapsed_since(start) == pytest.approx(3.25)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualClock(-1.0)


class TestEventQueue:
    def test_pop_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_push_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append(1))
        queue.push(1.0, lambda: order.append(2))
        queue.pop().action()
        queue.pop().action()
        assert order == [1, 2]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None
        assert len(queue) == 0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0


class TestSimulator:
    """The event loop itself, as :class:`EventScheduler` runs it."""

    def test_step_advances_clock_to_event_time(self):
        sim = EventScheduler()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        assert sim.step() is True
        assert fired == [5.0]
        assert sim.now == 5.0

    def test_run_until_fires_only_due_events(self):
        sim = EventScheduler()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_schedule_every_repeats(self):
        sim = EventScheduler()
        fired = []
        sim.schedule_every(1.0, lambda: fired.append(sim.now), until=4.5)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_schedule_every_stops_on_stopiteration(self):
        sim = EventScheduler()
        fired = []

        def action():
            fired.append(sim.now)
            if len(fired) >= 2:
                raise StopIteration

        sim.schedule_every(1.0, action)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            EventScheduler().schedule(-1.0, lambda: None)
