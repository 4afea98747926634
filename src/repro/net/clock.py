"""Simulation time and loose synchronization.

The engine keeps one global :class:`SimClock`. Each node reads time through
its own :class:`NodeClock`, which adds a fixed skew — the paper's loose
time-synchronization assumption (§5): clock error between adjacent nodes is
smaller than ``min(r_0)``, the minimum source round-trip time. Timestamp
freshness checks (phase 1 of both PAAI protocols) run against the node
clock, so a too-large skew makes honest nodes discard packets — behavior
exercised in the tests of the withholding attack.
"""

from __future__ import annotations

from repro.exceptions import SimulationError


class SimClock:
    """Monotonic simulation clock advanced only by the engine."""

    def __init__(self, start: float = 0.0) -> None:
        # Read directly on the engine's per-event path (event queue,
        # simulator, node clocks, links); written only here, by
        # advance_to, and by Simulator.run, whose queue admits no event
        # before it.
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward; rejects travel into the past."""
        if timestamp < self._now:
            raise SimulationError(
                f"clock cannot move backwards ({timestamp} < {self._now})"
            )
        self._now = timestamp


class NodeClock:
    """A node's skewed view of simulation time.

    Parameters
    ----------
    clock:
        The global simulation clock.
    skew:
        Constant offset (seconds) between this node's clock and true time.
        Positive skew means the node's clock runs ahead.
    """

    def __init__(self, clock: SimClock, skew: float = 0.0) -> None:
        self._clock = clock
        self._skew = float(skew)
        self._drift_rate = 0.0
        self._drift_origin = 0.0

    @property
    def skew(self) -> float:
        """This node's base clock offset (excluding drift)."""
        return self._skew

    def set_skew(self, skew: float) -> None:
        """Replace the base offset (fault injection: a clock *step*)."""
        self._skew = float(skew)

    def step(self, delta: float) -> None:
        """Shift the base offset by ``delta`` (relative clock step)."""
        self._skew += float(delta)

    @property
    def drift_rate(self) -> float:
        """Seconds of extra offset accumulated per simulated second."""
        return self._drift_rate

    def set_drift(self, rate: float, origin: float = 0.0) -> None:
        """Make the offset grow linearly: ``rate`` seconds per simulated
        second, measured from engine time ``origin`` (fault injection:
        a drifting oscillator). ``rate=0`` restores a constant skew."""
        self._drift_rate = float(rate)
        self._drift_origin = float(origin)

    @property
    def now(self) -> float:
        """The node's local time."""
        engine_now = self._clock._now
        local = engine_now + self._skew
        if self._drift_rate:
            local += self._drift_rate * (engine_now - self._drift_origin)
        return local

    def is_fresh(self, timestamp: float, max_age: float) -> bool:
        """Timestamp freshness check used on incoming data packets.

        A packet is fresh when its embedded source timestamp is no older
        than ``max_age`` by this node's local clock (future timestamps
        within the same tolerance are accepted, absorbing skew).
        """
        age = self.now - timestamp
        return -max_age <= age <= max_age
