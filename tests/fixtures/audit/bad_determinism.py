# repro: module=repro.core.fake_determinism
"""Fixture: DET002 and the length-0 DET005/ST002 findings must fire here.

Never imported — read as data by tests/unit/test_audit_rules.py.
"""

import os
import random
import time

import numpy as np

_SHARED_RNG = random.Random(7)


def jitter():
    return random.random()


def np_jitter():
    return np.random.uniform(0.0, 1.0)


def stamp():
    return time.time()


def hurry(start):
    # repro.core is not telemetry scope, so even monotonic timers flag.
    return time.monotonic() - start


def nonce():
    return os.urandom(16)
