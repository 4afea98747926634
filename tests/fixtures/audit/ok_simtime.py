# repro: module=repro.net.fake_node_ok
"""Fixture: simulator code reading simulated time only."""

import time  # repro: allow(ST002)


def ack_deadline(clock) -> float:
    # The injected NodeClock view of SimClock — the sanctioned source.
    return clock.now + 1.0


def excused_timer() -> float:
    return time.monotonic()  # repro: allow(ST002)
