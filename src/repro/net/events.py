"""Event queue for the discrete-event engine.

A classic binary-heap future event list. Events scheduled for the same
instant fire in insertion order (a monotone sequence number breaks ties),
which keeps runs deterministic — essential for reproducing packet-level
traces from a seed.

Each heap entry is an :class:`EventHandle`: a list ``[time, sequence,
action, cancelled]`` that is also the handle :meth:`EventQueue.schedule`
returns, so scheduling allocates one object and ``heapq`` orders entries
with the C-level list comparison. The sequence number is unique per
queue, so a comparison is always settled by ``(time, sequence)`` and
never reaches the action.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Tuple

from repro.exceptions import SchedulingError
from repro.net.clock import SimClock

# Heap entry slots.
_TIME = 0
_ACTION = 2
_CANCELLED = 3


class EventHandle(list):
    """Heap entry returned by :meth:`EventQueue.schedule`; supports cancel()."""

    __slots__ = ()

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired."""
        self[_CANCELLED] = True

    @property
    def cancelled(self) -> bool:
        return self[_CANCELLED]

    @property
    def time(self) -> float:
        return self[_TIME]


class EventQueue:
    """Time-ordered queue of callbacks.

    Parameters
    ----------
    clock:
        The clock the queue's events advance (the simulator's). The
        queue refuses any event before its current time, so the heap
        never holds the past; a standalone queue gets its own clock,
        left at 0.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._clock = clock if clock is not None else SimClock()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[_CANCELLED])

    def size(self) -> int:
        """O(1) heap size *including* cancelled entries.

        The cheap variant the engine's ``sim.queue_depth`` gauge samples
        every event; ``len()`` walks the heap to skip cancelled entries.
        """
        return len(self._heap)

    def schedule(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Enqueue ``action`` to fire at absolute ``time``.

        Raises :class:`SchedulingError` when ``time`` is NaN or lies
        before the clock's current time.
        """
        # Written so that NaN fails too: a NaN entry would break heap order.
        if not time >= self._clock._now:
            raise SchedulingError(
                f"cannot schedule at t={time!r}, before now="
                f"{self._clock._now!r} (or NaN)"
            )
        entry = EventHandle([time, next(self._counter), action, False])
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> Optional[Tuple[float, Callable[[], None]]]:
        """Remove and return the next live ``(time, action)``, or None."""
        heap = self._heap
        while heap:
            time, _, action, cancelled = heapq.heappop(heap)
            if not cancelled:
                return time, action
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it, or None."""
        heap = self._heap
        while heap and heap[0][_CANCELLED]:
            heapq.heappop(heap)
        return heap[0][_TIME] if heap else None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
