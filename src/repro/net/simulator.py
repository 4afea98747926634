"""The discrete-event engine.

Minimal by design: a clock, an event queue, and deterministic random
streams. Protocol agents and links schedule callbacks; :meth:`Simulator.run`
drains the queue in time order. There is no parallelism and no wall-clock
coupling — simulated seconds are free, which is what lets the storage
experiments replay the paper's 1000-packets-per-second workloads exactly.

With a metrics registry active when the simulator is constructed, the run
loop publishes ``sim.events`` counters labeled by the dispatched
callback's qualified name and a ``sim.queue_depth`` gauge — the engine's
own health metrics. With the (default) null registry the loop takes a
single pre-computed branch per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, Optional

from repro.exceptions import SchedulingError
from repro.net.clock import SimClock
from repro.net.events import _ACTION, _CANCELLED, _TIME, EventHandle, EventQueue
from repro.net.rng import RngFactory
from repro.obs.registry import Counter, get_registry


class Simulator:
    """Discrete-event engine.

    Parameters
    ----------
    seed:
        Root seed for all random streams in this simulation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = SimClock()
        self.queue = EventQueue(self.clock)
        self.rng = RngFactory(seed)
        self._events_processed = 0
        self._path_ids = itertools.count()
        registry = get_registry()
        self._metrics = registry if registry.enabled else None
        self._event_counters: Dict[str, Counter] = {}
        self._queue_gauge = registry.gauge("sim.queue_depth")

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.clock._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def next_path_id(self) -> int:
        """Allocate the next path id on this simulator (0, 1, ...).

        Path ids are scoped to the simulator — not the process — so the
        ids stamped on trace spans depend only on construction order
        within one experiment and are identical run-to-run, whether the
        experiment executes serially or in a parallel worker.
        """
        return next(self._path_ids)

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute simulation ``time``.

        Raises :class:`SchedulingError` when ``time`` lies before
        :attr:`now` (the queue checks): every event enters the queue at
        or after the current time, so the run loop never moves the clock
        backwards.
        """
        return self.queue.schedule(time, action)

    def schedule_in(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` after ``delay`` seconds from now.

        Raises :class:`SchedulingError` for a negative ``delay``.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule with negative delay {delay!r}")
        return self.queue.schedule(self.clock._now + delay, action)

    def _count_event(self, action: Callable[[], None]) -> None:
        """Count one dispatched event, labeled by callback qualname."""
        name = getattr(action, "__qualname__", None) or type(action).__name__
        counter = self._event_counters.get(name)
        if counter is None:
            # "Link.transmit.<locals>.deliver" -> "Link.transmit.deliver";
            # closures are how links/timers schedule, so flatten the noise.
            label = name.replace(".<locals>", "")
            counter = self._metrics.counter("sim.events", type=label)
            self._event_counters[name] = counter
        counter.inc()
        self._queue_gauge.set(float(self.queue.size()))

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time (the
            clock is left at ``until``).
        max_events:
            Safety valve for tests; stop after this many events. A run
            cut short before ``until`` leaves the clock at the next
            pending event instead, so the events it left stay runnable.

        Returns the number of events processed by this call.

        An exception raised by an event's action propagates to the caller
        with the event's scheduled time attached (``sim_event_time``
        attribute, plus an exception note on Python ≥3.11); the event
        counters and clock remain consistent — the failing event counts
        as processed, since it was dequeued and dispatched.
        """
        # One loop over the heap: cancelled heads are dropped here, and
        # the clock is set without a backwards check, since schedule_at /
        # schedule_in admit no event before the current time.
        heap = self.queue._heap
        heappop = heapq.heappop
        clock = self.clock
        metrics_on = self._metrics is not None
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        processed = 0
        while heap:
            if processed >= limit:
                break
            entry = heap[0]
            if entry[_CANCELLED]:
                heappop(heap)
                continue
            time = entry[_TIME]
            if time > horizon:
                break
            heappop(heap)
            clock._now = time
            processed += 1
            self._events_processed += 1
            action = entry[_ACTION]
            if metrics_on:
                self._count_event(action)
            try:
                action()
            except Exception as exc:
                exc.sim_event_time = time
                if hasattr(exc, "add_note"):
                    exc.add_note(
                        f"while dispatching simulation event scheduled at "
                        f"t={time!r}"
                    )
                raise
        if until is not None and until > clock._now:
            # A run cut short by max_events stops the clock at the first
            # event it left behind, so that event stays runnable.
            next_time = self.queue.peek_time()
            if next_time is not None and next_time < until:
                until = next_time
            clock.advance_to(until)
        return processed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Drain the queue completely."""
        return self.run(until=None, max_events=max_events)
