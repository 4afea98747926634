"""Tests for the observability session (repro.obs.session)."""

import pickle

import pytest

from repro.core.params import ProtocolParams
from repro.net.simulator import Simulator
from repro.obs.ledger import NULL_LEDGER, EvidenceLedger, get_ledger, using_ledger
from repro.obs.profile import NULL_PROFILER, PhaseProfiler, get_profiler
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    using_registry,
)
from repro.obs.session import NULL_SESSION, Session, current, using_session
from repro.obs.tracing import RoundTraceCollector, get_collector
from repro.protocols.registry import make_protocol


class TestActiveSession:
    def test_null_session_by_default(self):
        assert current() is NULL_SESSION
        assert not current().live
        assert get_registry() is NULL_REGISTRY
        assert get_ledger() is NULL_LEDGER
        assert get_profiler() is NULL_PROFILER
        assert get_collector() is None

    def test_using_session_installs_and_restores(self):
        registry, ledger = MetricsRegistry(), EvidenceLedger()
        session = Session(registry=registry, ledger=ledger)
        with using_session(session) as active:
            assert active is session and current() is session
            assert get_registry() is registry
            assert get_ledger() is ledger
            assert get_profiler() is NULL_PROFILER
        assert current() is NULL_SESSION

    def test_sessions_nest(self):
        with using_session(Session(registry=MetricsRegistry())):
            with using_session(NULL_SESSION):
                assert not get_registry().enabled
            assert get_registry().enabled

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with using_session(Session(ledger=EvidenceLedger())):
                raise RuntimeError("boom")
        assert current() is NULL_SESSION

    def test_part_managers_keep_the_other_parts(self):
        ledger, registry = EvidenceLedger(), MetricsRegistry()
        with using_ledger(ledger):
            with using_registry(registry) as active:
                assert active is registry
                assert get_ledger() is ledger
            assert get_registry() is NULL_REGISTRY
            assert get_ledger() is ledger


class TestFresh:
    def test_null_session_stays_null(self):
        assert NULL_SESSION.fresh() is NULL_SESSION

    def test_fresh_session_is_empty_with_the_same_parts(self):
        registry = MetricsRegistry()
        registry.counter("old").inc()
        ledger = EvidenceLedger(capacity=5)
        ledger.record("old")
        parent = Session(
            registry=registry,
            ledger=ledger,
            profiler=PhaseProfiler(registry),
            collector=RoundTraceCollector(capacity=7),
        )
        fresh = parent.fresh()
        assert fresh.registry is not registry and fresh.registry.enabled
        assert fresh.registry.snapshot()["counters"] == []
        assert len(fresh.ledger) == 0 and fresh.ledger._capacity == 5
        assert fresh.collector._capacity == 7 and len(fresh.collector) == 0
        # The fresh profiler publishes into the fresh registry.
        with fresh.profiler.phase("setup"):
            pass
        assert fresh.registry.counter_value(
            "profile.phase_calls", phase="setup"
        ) == 1

    def test_disabled_parts_stay_disabled(self):
        fresh = Session(ledger=EvidenceLedger()).fresh()
        assert fresh.ledger.enabled
        assert not fresh.registry.enabled
        assert not fresh.profiler.enabled
        assert fresh.collector is None

    def test_a_fresh_tracing_session_pickles(self):
        # Pool workers receive a fresh session as the template of theirs.
        parent = Session(registry=MetricsRegistry(),
                         collector=RoundTraceCollector(capacity=7))
        with using_session(parent):
            _traced_run()
        template = pickle.loads(pickle.dumps(parent.fresh()))
        assert template.fresh().collector._capacity == 7


def _record(ledger, start, count):
    for index in range(start, start + count):
        ledger.record("step", index=index, values={3, 1})


class TestAbsorb:
    @pytest.mark.parametrize("task_entries", [2, 4, 9])
    def test_ledger_with_capacity_matches_serial_recording(self, task_entries):
        serial = EvidenceLedger(capacity=6)
        _record(serial, 0, 3)
        _record(serial, 3, task_entries)
        _record(serial, 3 + task_entries, 2)

        absorbed = EvidenceLedger(capacity=6)
        _record(absorbed, 0, 3)
        task = Session(ledger=absorbed).fresh()
        _record(task.ledger, 3, task_entries)
        Session(ledger=absorbed).absorb(task.capture())
        _record(absorbed, 3 + task_entries, 2)

        assert absorbed.entries() == serial.entries()
        assert absorbed.dropped == serial.dropped
        assert absorbed._seq == serial._seq

    def test_registry_merges_task_snapshots(self):
        parent = Session(registry=MetricsRegistry())
        parent.registry.counter("c").inc(2)
        for value in (5.0, 3.0):
            task = parent.fresh()
            task.registry.counter("c").inc()
            task.registry.gauge("g").set(value)
            parent.absorb(task.capture())
        assert parent.registry.counter_value("c") == 4
        assert parent.registry.gauge("g").value == 3.0


def _traced_run(seed=3):
    simulator = Simulator(seed=seed)
    protocol = make_protocol(
        "full-ack", simulator,
        ProtocolParams(path_length=2, natural_loss=0.1, alpha=0.5),
    )
    protocol.run_traffic(count=6, rate=1000.0)


class TestSpanCapture:
    def test_absorbed_spans_number_paths_as_one_serial_run(self):
        serial = RoundTraceCollector()
        with using_session(Session(collector=serial)):
            _traced_run()
            _traced_run()

        parent = Session(collector=RoundTraceCollector())
        for _ in range(2):
            with using_session(parent.fresh()) as task:
                _traced_run()
            parent.absorb(task.capture())

        assert serial.attached == parent.collector.attached == 2
        assert {span.path_id for span in serial.spans()} == {0, 1}
        assert list(parent.collector.to_jsonl_lines()) == list(
            serial.to_jsonl_lines()
        )
