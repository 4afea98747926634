"""Link latency models.

§8.1 sets "per-link bi-directional latency distributed within 0 to 5 ms
uniformly at random": each traversal of a link, in each direction, draws an
independent uniform delay. The worst-case source round-trip time on the
d=6 path is therefore 60 ms — the value that makes Table 2's storage
bounds come out to 12 and 3.2 packets.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.exceptions import ConfigurationError


class LatencyModel(ABC):
    """Per-traversal propagation delay."""

    @abstractmethod
    def delay(self, rng: random.Random) -> float:
        """Draw one traversal delay in seconds."""

    @property
    @abstractmethod
    def maximum(self) -> float:
        """Worst-case delay (drives wait-timer and storage bounds)."""


class FixedLatency(LatencyModel):
    """Constant delay."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(f"latency must be non-negative, got {value}")
        self._value = value

    def delay(self, rng: random.Random) -> float:
        return self._value

    @property
    def maximum(self) -> float:
        return self._value


class UniformLatency(LatencyModel):
    """Uniform delay on ``[low, high]`` — the paper's model with low=0."""

    def __init__(self, high: float, low: float = 0.0) -> None:
        if low < 0 or high < low:
            raise ConfigurationError(
                f"need 0 <= low <= high, got low={low}, high={high}"
            )
        self._low = low
        self._high = high

    def delay(self, rng: random.Random) -> float:
        # ``random.uniform``'s own formula, bit for bit, without its frame.
        return self._low + (self._high - self._low) * rng.random()

    @property
    def maximum(self) -> float:
        return self._high
