# repro: module=repro.net.fake_rngflow
"""Fixture: every rng-flow rule (RNG001, RNG002) must fire here.

Never imported — read as data by tests/unit/test_audit_rules.py.
"""

import os


def correlated_routes(factory):
    # Same `spawn` label twice: both "independent" children share a stream.
    first = factory.spawn("route-0")
    second = factory.spawn("route-0")
    return first, second


def correlated_streams(rng):
    alpha = rng.stream("adversary")
    beta = rng.stream("adversary")
    return alpha, beta


def tainted_by_pid(rng):
    # Worker-dependent label: the derived stream differs per process.
    return rng.stream(f"trial-{os.getpid()}")


def tainted_by_identity(rng, node):
    # `id(...)` varies across runs: label entropy in disguise.
    return rng.stream("node-" + str(id(node)))
