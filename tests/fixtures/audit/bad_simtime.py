# repro: module=repro.net.fake_node
"""Fixture: host clocks inside simulator scope (length-0 ST002)."""

import time
from datetime import datetime


def ack_deadline() -> float:
    # Even a monotonic host timer is banned in simulator scope.
    return time.monotonic() + 1.0


def freshness_now():
    return datetime.now()
