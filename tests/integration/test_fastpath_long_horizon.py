"""Integration: fastpath ↔ event byte identity over long horizons, the
statfl request checks every engine shares, and the coin tables' silence.

The property suite replays 40–80 rounds, which never crosses a
4,096-draw block of a stream and never skips a long run of clean rounds.
These pinned cases run thousands of rounds — including honest paths with
long clean stretches, an always-dropping adversary and a near-silent
one — and compare convictions, estimates, ledger JSONL and the scoped
counters of both engines.
"""

import json

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.mc.detection import DetectionExperiment
from repro.net.backend import DetectionRequest, get_backend
from repro.net.fastpath import clear_coin_tables
from repro.obs.ledger import EvidenceLedger, using_ledger
from repro.obs.registry import (
    MetricsRegistry,
    deterministic_view,
    using_registry,
)
from repro.workloads.scenarios import Scenario, paper_scenario

#: Counter families that must match across engines (nonzero series).
SCOPED_COUNTERS = frozenset({
    "net.link.transmissions",
    "net.link.natural_losses",
    "net.node.drops",
    "protocol.rounds",
    "protocol.probes_sent",
    "protocol.acks_verified",
    "protocol.report_timeouts",
    "protocol.sampling_hits",
})

#: (protocol, rho, adversaries, rounds).
LONG_CASES = [
    ("full-ack", 0.0, {2: 1.0}, 700),
    ("full-ack", 0.01, {4: 0.02}, 2_500),
    ("paai1", 0.02, {1: 0.3, 5: 0.001}, 3_000),
    ("statfl", 0.0, {3: 0.05}, 1_500),
    ("statfl", 0.01, {}, 3_000),
]


def _run(backend_name, request):
    registry = MetricsRegistry()
    ledger = EvidenceLedger()
    with using_registry(registry), using_ledger(ledger):
        result = get_backend(backend_name).run(request)
    counters = {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
        for entry in registry.snapshot()["counters"]
        if entry["name"] in SCOPED_COUNTERS and entry["value"]
    }
    return result, counters, list(ledger.to_jsonl_lines())


@pytest.mark.parametrize(
    "protocol, rho, adversaries, rounds",
    LONG_CASES,
    ids=[f"{case[0]}-rho{case[1]}-{case[3]}" for case in LONG_CASES],
)
def test_long_horizon_engines_identical(protocol, rho, adversaries, rounds):
    scenario = Scenario(
        params=ProtocolParams(natural_loss=rho), malicious_nodes=adversaries
    )
    request = DetectionRequest(
        protocol=protocol,
        scenario=scenario,
        runs=1,
        horizon=rounds,
        checkpoints=[rounds // 4, rounds // 2, rounds],
        seed=11,
        # Enough report requests that statfl's interval machinery runs
        # between the clean stretches many times over.
        fl_sampling=0.25,
        fl_interval=100,
    )
    fast, fast_counters, fast_ledger = _run("fastpath", request)
    event, event_counters, event_ledger = _run("event", request)
    assert fast.engines == ["fastpath"]
    assert np.array_equal(fast.convictions, event.convictions)
    assert fast.estimates_last.tobytes() == event.estimates_last.tobytes()
    assert fast_counters == event_counters
    assert fast_ledger and fast_ledger == event_ledger


#: statfl parameters every engine must refuse.
BAD_SKETCH = [
    {"fl_interval": -5},
    {"fl_interval": 0},
    {"fl_sampling": 0.0},
    {"fl_sampling": 1.5},
]


class TestSketchParameterChecks:
    @pytest.mark.parametrize("backend", ["model", "fastpath", "event"])
    @pytest.mark.parametrize(
        "bad", BAD_SKETCH, ids=[str(bad) for bad in BAD_SKETCH]
    )
    def test_every_engine_refuses(self, backend, bad):
        with pytest.raises(ConfigurationError):
            DetectionExperiment(
                "statfl", paper_scenario(), runs=1, horizon=200,
                seed=3, backend=backend, **bad,
            ).run()

    @pytest.mark.parametrize(
        "bad", BAD_SKETCH, ids=[str(bad) for bad in BAD_SKETCH]
    )
    def test_request_refuses(self, bad):
        with pytest.raises(ConfigurationError):
            DetectionRequest(
                "statfl", paper_scenario(), runs=1, horizon=200,
                checkpoints=[200], seed=3, **bad,
            )


def _batch(protocol, seed, jobs=1):
    """A 4-run, 2-shard fastpath batch: convictions, estimates, ledger
    JSONL and the metrics' deterministic view."""
    registry = MetricsRegistry()
    ledger = EvidenceLedger()
    with using_registry(registry), using_ledger(ledger):
        result = DetectionExperiment(
            protocol, paper_scenario(), runs=4, horizon=2_500, seed=seed,
            backend="fastpath", shards=2, fl_sampling=0.25, fl_interval=100,
        ).run(jobs=jobs)
    assert result.engines == ["fastpath"] * 4
    return (
        result.convictions.tobytes(),
        result.estimates_last.tobytes(),
        list(ledger.to_jsonl_lines()),
        json.dumps(deterministic_view(registry.snapshot()), sort_keys=True),
    )


@pytest.mark.parametrize("protocol", ["paai1", "statfl"])
def test_coin_tables_change_no_output(protocol):
    """A batch's outputs do not depend on the coin tables it finds: a
    cold-table run, a warm-table run at another seed, a re-run after
    warming and a two-worker run under a warm parent all match the runs
    of an empty table."""
    clear_coin_tables()
    cold = _batch(protocol, seed=5)
    warm_other = _batch(protocol, seed=6)
    clear_coin_tables()
    cold_other = _batch(protocol, seed=6)
    rerun = _batch(protocol, seed=5)
    parallel = _batch(protocol, seed=5, jobs=2)
    assert warm_other == cold_other
    assert rerun == cold
    assert parallel == cold
    assert cold_other[2] != cold[2]  # the two seeds are distinct runs
