"""Tests for the event queue and the simulator engine."""

import pytest

from repro.exceptions import SchedulingError, SimulationError
from repro.net.clock import NodeClock, SimClock
from repro.net.events import EventQueue
from repro.net.simulator import Simulator


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        while (item := queue.pop()) is not None:
            item[1]()
        assert fired == ["a", "b", "c"]

    def test_fifo_within_same_time(self):
        queue = EventQueue()
        fired = []
        for name in "abcde":
            queue.schedule(1.0, lambda n=name: fired.append(n))
        while (item := queue.pop()) is not None:
            item[1]()
        assert fired == list("abcde")

    def test_cancel(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        queue.schedule(2.0, lambda: fired.append("y"))
        handle.cancel()
        assert handle.cancelled
        while (item := queue.pop()) is not None:
            item[1]()
        assert fired == ["y"]

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        h = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        h.cancel()
        assert len(queue) == 1

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        h = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        h.cancel()
        assert queue.peek_time() == 2.0

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        # A NaN entry compares false both ways and silently breaks heap
        # order for every later event.
        queue = EventQueue()
        queue.schedule(2.0, lambda: None)
        with pytest.raises(SchedulingError):
            queue.schedule(float("nan"), lambda: None)
        assert queue.size() == 1
        assert queue.peek_time() == 2.0

    def test_handle_reports_time_and_cancellation(self):
        queue = EventQueue()
        handle = queue.schedule(1.5, lambda: None)
        assert handle.time == 1.5
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        assert handle.time == 1.5
        assert not hasattr(handle, "__dict__")

    def test_ties_never_compare_actions(self):
        # Uncomparable actions at the same instant: ordering is settled by
        # the insertion sequence alone.
        class Opaque:
            def __call__(self):
                pass

            def __lt__(self, other):
                raise AssertionError("heap compared two actions")

        queue = EventQueue()
        actions = [Opaque() for _ in range(20)]
        for action in actions:
            queue.schedule(1.0, action)
        popped = []
        while (item := queue.pop()) is not None:
            popped.append(item[1])
        assert popped == actions

    def test_empty_pop(self):
        assert EventQueue().pop() is None
        assert EventQueue().peek_time() is None


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_no_backwards_travel(self):
        clock = SimClock(start=10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.0)


class TestNodeClock:
    def test_skew_applied(self):
        clock = SimClock(start=100.0)
        node_clock = NodeClock(clock, skew=0.5)
        assert node_clock.now == 100.5

    def test_freshness_window(self):
        clock = SimClock(start=10.0)
        node_clock = NodeClock(clock, skew=0.0)
        assert node_clock.is_fresh(timestamp=9.95, max_age=0.1)
        assert not node_clock.is_fresh(timestamp=9.0, max_age=0.1)

    def test_freshness_tolerates_future_within_window(self):
        # A node whose clock runs behind sees slightly-future timestamps.
        clock = SimClock(start=10.0)
        node_clock = NodeClock(clock, skew=-0.05)
        assert node_clock.is_fresh(timestamp=10.0, max_age=0.1)
        assert not node_clock.is_fresh(timestamp=10.5, max_age=0.1)


class TestSimulator:
    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1]
        assert sim.now == 1.5
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_schedule_in_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.0, lambda: sim.schedule_in(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.5]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        processed = sim.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_events_spawned_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule_in(0.1, lambda: cascade(depth + 1))

        sim.schedule_at(0.0, lambda: cascade(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule_at(0.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_schedule_at_before_now_refused(self):
        """A past time fails at the call, before any other event runs,
        not later at dispatch."""
        sim = Simulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.5, lambda: None)
        sim.schedule_at(2.0, lambda: None)  # now itself is allowed
        assert sim.run() == 1

    def test_schedule_in_negative_delay_refused(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SchedulingError):
            sim.schedule_in(-0.5, lambda: None)
        sim.schedule_in(0.0, lambda: None)
        assert sim.run() == 1

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        handle.cancel()
        assert sim.run() == 1
        assert fired == [2]
        assert sim.events_processed == 1

    def test_max_events_before_until_keeps_rest_runnable(self):
        """A run cut by ``max_events`` leaves the clock at the next
        pending event, so a later run dispatches the rest in order."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        assert sim.run(until=10.0, max_events=2) == 2
        assert sim.now == 2.0
        assert sim.run(until=10.0) == 3
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 10.0
