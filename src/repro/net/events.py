"""Event queue for the discrete-event engine.

A classic binary-heap future event list. Events scheduled for the same
instant fire in insertion order (a monotone sequence number breaks ties),
which keeps runs deterministic — essential for reproducing packet-level
traces from a seed.

Each heap entry is a list ``[time, sequence, action, cancelled]``, so
``heapq`` orders entries with the C-level list comparison. The sequence
number is unique per queue, so a comparison is always settled by
``(time, sequence)`` and never reaches the action.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Tuple

from repro.exceptions import SchedulingError

# Heap entry slots.
_TIME = 0
_CANCELLED = 3


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`; supports cancel()."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired."""
        self._entry[_CANCELLED] = True

    @property
    def cancelled(self) -> bool:
        return self._entry[_CANCELLED]

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class EventQueue:
    """Time-ordered queue of callbacks."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[_CANCELLED])

    def size(self) -> int:
        """O(1) heap size *including* cancelled entries.

        The cheap variant the engine's ``sim.queue_depth`` gauge samples
        every event; ``len()`` walks the heap to skip cancelled entries.
        """
        return len(self._heap)

    def schedule(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Enqueue ``action`` to fire at absolute ``time``."""
        # Written so that NaN fails too: a NaN entry would break heap order.
        if not time >= 0:
            raise SchedulingError(f"cannot schedule at negative or NaN time {time}")
        entry = [time, next(self._counter), action, False]
        heapq.heappush(self._heap, entry)
        return EventHandle(entry)

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
