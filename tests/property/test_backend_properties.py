"""Property suite: the fastpath replay is byte-identical to the event
engine — detection outcomes, metrics snapshots, evidence-ledger JSONL,
and conviction rounds — for every ported protocol, across random seeds,
loss placements, and adversary configurations; requests it cannot replay
exactly provably route to the event engine.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams
from repro.faults.spec import preset
from repro.net.backend import DetectionRequest, get_backend
from repro.net.fastpath import PORTED_FAMILIES, classify_reasons
from repro.obs.ledger import EvidenceLedger, using_ledger
from repro.obs.registry import MetricsRegistry, using_registry
from repro.protocols.registry import available_protocols, protocol_class
from repro.workloads.scenarios import Scenario

#: Protocols with a vectorized round model (family in PORTED_FAMILIES).
PORTED = [
    name for name in available_protocols()
    if getattr(protocol_class(name), "fastpath_family", None)
    in PORTED_FAMILIES
]
UNPORTED = [name for name in available_protocols() if name not in PORTED]

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


def _scoped(registry):
    out = {}
    for entry in registry.snapshot()["counters"]:
        if entry["name"] in SCOPED_COUNTERS and entry["value"]:
            key = (entry["name"], tuple(sorted(entry["labels"].items())))
            out[key] = entry["value"]
    return out


def _run(backend_name, request):
    registry = MetricsRegistry()
    ledger = EvidenceLedger()
    with using_registry(registry), using_ledger(ledger):
        result = get_backend(backend_name).run(request)
    return result, _scoped(registry), list(ledger.to_jsonl_lines())


def _request(protocol, scenario, seed, horizon):
    return DetectionRequest(
        protocol=protocol,
        scenario=scenario,
        runs=1,
        horizon=horizon,
        checkpoints=[horizon // 2, horizon],
        seed=seed,
        # Aggressive statfl sketch parameters so short horizons exercise
        # the interval-request machinery several times over.
        fl_sampling=0.25,
        fl_interval=20,
    )


adversary_placements = st.dictionaries(
    keys=st.integers(min_value=1, max_value=5),
    values=st.floats(min_value=0.0, max_value=0.3,
                     allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=2,
)


class TestEngineEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        protocol=st.sampled_from(PORTED),
        seed=st.integers(min_value=0, max_value=2**48),
        placement=adversary_placements,
        # params require natural_loss < alpha (0.03 by default).
        rho=st.floats(min_value=0.0, max_value=0.025, allow_nan=False),
    )
    def test_outcomes_and_metrics_identical(
        self, protocol, seed, placement, rho
    ):
        params = ProtocolParams(natural_loss=rho)
        scenario = Scenario(params=params, malicious_nodes=placement)
        horizon = 40 if protocol in ("full-ack", "sig-ack") else 80
        request = _request(protocol, scenario, seed, horizon)
        fast, fast_counters, fast_ledger = _run("fastpath", request)
        event, event_counters, event_ledger = _run("event", request)
        assert fast.engines == ["fastpath"]
        assert np.array_equal(fast.convictions, event.convictions)
        assert np.array_equal(fast.estimates_last, event.estimates_last)
        assert fast_counters == event_counters
        # The provenance gate: both engines must emit byte-identical
        # evidence-ledger JSONL (same entries, same order, same floats).
        assert fast_ledger and fast_ledger == event_ledger

    @settings(max_examples=8, deadline=None)
    @given(
        protocol=st.sampled_from(PORTED),
        seed=st.integers(min_value=0, max_value=2**48),
    )
    def test_conviction_rounds_identical(self, protocol, seed):
        """Per-checkpoint conviction tensors agree at every checkpoint,
        so the first-conviction round is identical across engines."""
        scenario = Scenario(malicious_nodes={4: 0.15})
        horizon = 60
        request = DetectionRequest(
            protocol=protocol,
            scenario=scenario,
            runs=1,
            horizon=horizon,
            checkpoints=[15, 30, 45, 60],
            seed=seed,
            fl_sampling=0.25,
            fl_interval=20,
        )
        fast, _, _ = _run("fastpath", request)
        event, _, _ = _run("event", request)
        first_fast = np.argmax(fast.convictions.any(axis=2), axis=0)
        first_event = np.argmax(event.convictions.any(axis=2), axis=0)
        assert np.array_equal(fast.convictions, event.convictions)
        assert np.array_equal(first_fast, first_event)


class TestFallbackRouting:
    def test_unported_protocols_delegate_to_event(self):
        scenario = Scenario(malicious_nodes={4: 0.02})
        for protocol in UNPORTED:
            request = _request(protocol, scenario, seed=3, horizon=20)
            reasons = classify_reasons(request)
            assert len(reasons) == 1 and "vectorized" in reasons[0]
            result, _, _ = _run("fastpath", request)
            assert result.engines == ["event"]
            assert result.reasons == reasons

    def test_fault_schedules_route_to_event(self):
        scenario = Scenario(malicious_nodes={4: 0.02})
        request = _request("full-ack", scenario, seed=3, horizon=20)
        request.faults = preset("benign-jitter")
        [reason] = classify_reasons(request)
        assert "fault schedule" in reason
        result, _, _ = _run("fastpath", request)
        assert result.engines == ["event"]

    def test_bidirectional_adversaries_route_to_event(self):
        scenario = Scenario(
            malicious_nodes={4: 0.02}, bidirectional=True
        )
        request = _request("full-ack", scenario, seed=3, horizon=20)
        [reason] = classify_reasons(request)
        assert "reverse path" in reason
        result, _, _ = _run("fastpath", request)
        assert result.engines == ["event"]

    def test_adversarial_timing_knobs_route_to_event(self):
        scenario_for = lambda params: Scenario(  # noqa: E731
            params=params, malicious_nodes={4: 0.02}
        )
        retried = _request(
            "full-ack", scenario_for(ProtocolParams(probe_retries=2)),
            seed=3, horizon=20,
        )
        [reason] = classify_reasons(retried)
        assert "retransmission" in reason
        windowed = _request(
            "full-ack", scenario_for(ProtocolParams(score_window=50)),
            seed=3, horizon=20,
        )
        [reason] = classify_reasons(windowed)
        assert "windowed" in reason
        params = ProtocolParams()
        tight = _request(
            "full-ack",
            scenario_for(
                ProtocolParams(freshness_window=0.1 * params.r0)
            ),
            seed=3, horizon=20,
        )
        [reason] = classify_reasons(tight)
        assert "freshness" in reason

    def test_eligible_request_classifies_clean(self):
        scenario = Scenario(malicious_nodes={4: 0.02})
        for protocol in PORTED:
            assert classify_reasons(
                _request(protocol, scenario, seed=3, horizon=20)
            ) == []

class TestClassifyReasonsProperties:
    """classify_reasons must return EVERY tripped clause, deduplicated,
    in canonical sorted order — independent of clause evaluation order."""

    @settings(max_examples=60, deadline=None)
    @given(
        unported=st.booleans(),
        faulted=st.booleans(),
        bidirectional=st.booleans(),
        retries=st.booleans(),
        windowed=st.booleans(),
        tight_freshness=st.booleans(),
    )
    def test_all_tripped_clauses_reported_sorted(
        self, unported, faulted, bidirectional, retries, windowed,
        tight_freshness,
    ):
        params = ProtocolParams(
            probe_retries=2 if retries else 0,
            score_window=50 if windowed else None,
            freshness_window=(
                0.1 * ProtocolParams().r0 if tight_freshness
                else ProtocolParams().freshness_window
            ),
        )
        scenario = Scenario(
            params=params,
            malicious_nodes={4: 0.02},
            bidirectional=bidirectional,
        )
        request = _request(
            UNPORTED[0] if unported else PORTED[0],
            scenario, seed=3, horizon=20,
        )
        if faulted:
            request.faults = preset("benign-jitter")
        reasons = classify_reasons(request)

        # Sorted and deduplicated.
        assert reasons == sorted(set(reasons))
        # Exactly the tripped clauses, no more, no less.
        expectations = {
            "vectorized": unported,
            "fault schedule": faulted,
            "reverse path": bidirectional,
            "retransmission": retries,
            "windowed": windowed,
            "freshness": tight_freshness,
        }
        for marker, tripped in expectations.items():
            matches = [r for r in reasons if marker in r]
            assert len(matches) == (1 if tripped else 0), marker
        assert len(reasons) == sum(expectations.values())

    def test_multi_clause_request_is_order_stable(self):
        """A request tripping several clauses yields the same list no
        matter how it was built (regression for evaluation-order leaks)."""
        params = ProtocolParams(probe_retries=2, score_window=50)
        scenario = Scenario(
            params=params, malicious_nodes={4: 0.02}, bidirectional=True
        )
        request = _request(UNPORTED[0], scenario, seed=3, horizon=20)
        request.faults = preset("benign-jitter")
        reasons = classify_reasons(request)
        assert len(reasons) == 5
        assert reasons == sorted(reasons)
        assert classify_reasons(request) == reasons
