# repro: module=repro.experiments.fake_telemetry
"""Fixture: the allowed/suppressed twins of bad_determinism.py."""

import random
import time

_EXCUSED_RNG = random.Random(7)  # repro: allow(DET002)


def jitter(stream: random.Random) -> float:
    # Injected stream — instance methods never touch global state.
    return stream.random()


def elapsed(start: float) -> float:
    # Monotonic timing inside telemetry scope (repro.experiments).
    return time.monotonic() - start


def excused_jitter() -> float:
    return random.random()  # repro: allow(DET005)
