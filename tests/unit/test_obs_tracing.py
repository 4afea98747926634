"""Tests for round-level tracing spans (repro.obs.tracing)."""

import pytest

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.net.packets import PacketKind
from repro.net.simulator import Simulator
from repro.obs.tracing import (
    DELIVER,
    DROP,
    LOSS,
    SEND,
    RoundSpan,
    RoundTraceCollector,
    get_collector,
    read_jsonl,
    using_collector,
)
from repro.protocols.registry import make_protocol


def make_span(**overrides):
    fields = dict(
        identifier="ab" * 32, sequence=0, path_id=0, path_length=3,
        start=0.0,
    )
    fields.update(overrides)
    return RoundSpan(**fields)


def link_event(t, kind, packet, link, direction="forward", report=False):
    return {
        "t": t, "kind": kind, "packet": packet, "direction": direction,
        "link": link, "node": None, "report": report,
    }


class TestRoundSpanOutcome:
    def test_reported(self):
        span = make_span()
        span.add(link_event(0.0, SEND, "data", 0))
        span.add(link_event(0.1, DELIVER, "data", 2))
        span.add(link_event(0.2, DELIVER, "ack", 0, "reverse", report=True))
        assert span.report_returned
        assert span.outcome() == "reported"

    def test_acked(self):
        span = make_span()
        span.add(link_event(0.0, DELIVER, "data", 2))
        span.add(link_event(0.1, DELIVER, "ack", 0, "reverse"))
        assert span.acked and not span.report_returned
        assert span.outcome() == "acked"

    def test_delivered_but_unacked(self):
        span = make_span()
        span.add(link_event(0.0, SEND, "data", 0))
        span.add(link_event(0.1, DELIVER, "data", 2))
        assert span.outcome() == "delivered"

    def test_lost_on_link(self):
        span = make_span()
        span.add(link_event(0.0, SEND, "data", 0))
        span.add(link_event(0.1, LOSS, "data", 1))
        assert span.outcome() == "lost@l1"

    def test_dropped_at_node(self):
        span = make_span()
        span.add(link_event(0.0, SEND, "data", 0))
        span.add({
            "t": 0.1, "kind": DROP, "packet": "data",
            "direction": "forward", "link": None, "node": 2, "report": False,
        })
        assert span.outcome() == "lost@F2"

    def test_in_flight(self):
        span = make_span()
        span.add(link_event(0.0, SEND, "data", 0))
        assert span.outcome() == "in-flight"

    def test_end_tracks_last_event(self):
        span = make_span()
        span.add(link_event(0.5, SEND, "data", 0))
        span.add(link_event(1.25, DELIVER, "data", 0))
        assert span.end == 1.25

    def test_to_dict_keys(self):
        span = make_span()
        span.add(link_event(0.0, SEND, "probe", 0))
        data = span.to_dict()
        assert data["probed"] is True
        assert data["packet_kinds"] == ["probe"]
        assert set(data) == {
            "identifier", "sequence", "path", "start", "end",
            "outcome", "packet_kinds", "probed", "events",
        }


def collected_run(count=20, natural_loss=0.0, seed=0, capacity=100_000):
    params = ProtocolParams(
        path_length=3, natural_loss=natural_loss, alpha=0.8
    )
    collector = RoundTraceCollector(capacity=capacity)
    with using_collector(collector):
        simulator = Simulator(seed=seed)
        protocol = make_protocol("full-ack", simulator, params)
    protocol.run_traffic(count=count, rate=1000.0)
    return protocol, collector


class TestRoundTraceCollector:
    def test_span_records_full_round(self):
        _, collector = collected_run(count=5)
        events = collector.spans()[0].events
        # Data forward over 3 links + e2e ack back over 3 links, each with
        # a send and a deliver event.
        assert sum(e["kind"] == SEND for e in events) == 6
        assert sum(e["kind"] == DELIVER for e in events) == 6
        assert all(e["kind"] != LOSS for e in events)

    def test_span_events_in_time_order(self):
        _, collector = collected_run(count=10, natural_loss=0.3, seed=2)
        for span in collector.spans():
            times = [event["t"] for event in span.events]
            assert times == sorted(times)

    def test_probe_and_ack_traffic_on_lossy_path(self):
        _, collector = collected_run(count=50, natural_loss=0.4, seed=4)
        kinds = {
            event["packet"]
            for span in collector.spans()
            for event in span.events
        }
        assert PacketKind.PROBE.value in kinds
        assert PacketKind.ACK.value in kinds

    def test_story_rendering(self):
        _, collector = collected_run(count=5)
        span = collector.spans()[0]
        story = span.story().splitlines()
        assert story[0] == f"round #{span.sequence} on path 0: acked"
        assert len(story) == 1 + len(span.events)
        assert "l0 -> data  send" in story[1]
        assert story[-1].endswith("<- ack   deliver")
        assert collector.span_for(b"\x00" * 32) is None

    def test_story_names_dropping_node_and_reports(self):
        span = make_span(sequence=7)
        span.add(link_event(0.0, SEND, "data", 0))
        span.add({
            "t": 0.002, "kind": DROP, "packet": "data",
            "direction": "forward", "link": None, "node": 2, "report": False,
        })
        span.add(link_event(0.004, DELIVER, "ack", 0, "reverse", report=True))
        assert span.story().splitlines() == [
            "round #7 on path 0: reported",
            "  t=    0.000ms l0 -> data  send",
            "  t=    2.000ms F2 -> data  drop",
            "  t=    4.000ms l0 <- ack   deliver (report)",
        ]

    def test_one_span_per_data_packet(self):
        _, collector = collected_run(count=20)
        assert len(collector) == 20
        assert all(
            span.outcome() == "acked" for span in collector.spans()
        )

    def test_spans_in_start_order(self):
        _, collector = collected_run(count=10)
        starts = [span.start for span in collector.spans()]
        assert starts == sorted(starts)

    def test_capacity_evicts_oldest(self):
        _, collector = collected_run(count=50, capacity=10)
        assert len(collector) == 10
        # At least the 40 over-capacity rounds were evicted; an evicted
        # round whose ack is still in flight re-opens a partial span and
        # may be evicted again, so the tally can exceed that floor.
        assert collector.evicted >= 40

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            RoundTraceCollector(capacity=0)

    def test_span_for_identifier(self):
        protocol, collector = collected_run(count=5)
        span = collector.spans()[0]
        assert collector.span_for(bytes.fromhex(span.identifier)) is span
        assert collector.span_for(b"\x00" * 32) is None

    def test_lossy_path_spans_show_losses(self):
        _, collector = collected_run(
            count=50, natural_loss=0.4, seed=4
        )
        outcomes = {span.outcome() for span in collector.spans()}
        assert any(outcome.startswith("lost@l") for outcome in outcomes)

    def test_jsonl_roundtrip(self, tmp_path):
        _, collector = collected_run(count=10)
        out = tmp_path / "trace.jsonl"
        written = collector.write_jsonl(str(out))
        assert written == 10
        spans = read_jsonl(str(out))
        assert len(spans) == 10
        assert spans[0]["identifier"] == collector.spans()[0].identifier
        assert spans[0]["events"]  # events survive the round-trip

    def test_active_collector_auto_attaches_new_paths(self):
        assert get_collector() is None
        collector = RoundTraceCollector()
        params = ProtocolParams(path_length=2)
        with using_collector(collector):
            assert get_collector() is collector
            simulator = Simulator(seed=1)
            protocol = make_protocol("full-ack", simulator, params)
        # Deactivated, but already attached: traffic is still traced.
        assert get_collector() is None
        protocol.run_traffic(count=3, rate=1000.0)
        assert len(collector) == 3

    def test_collection_does_not_change_behavior(self):
        params = ProtocolParams(path_length=3, natural_loss=0.2, alpha=0.5)

        def run(collected):
            simulator = Simulator(seed=9)
            if collected:
                with using_collector(RoundTraceCollector()):
                    protocol = make_protocol("full-ack", simulator, params)
            else:
                protocol = make_protocol("full-ack", simulator, params)
            protocol.run_traffic(count=100, rate=1000.0)
            return protocol.board.scores

        assert run(collected=True) == run(collected=False)


class TestMultiRunTrace:
    def test_spans_never_mix_runs(self):
        """Every simulator numbers its paths from 0 and identical runs
        share key material, so only the collector's own path numbers keep
        the two runs' rounds in separate spans."""
        collector = RoundTraceCollector()
        with using_collector(collector):
            for _ in range(2):
                simulator = Simulator(seed=5)
                make_protocol(
                    "full-ack", simulator, ProtocolParams(path_length=2)
                ).run_traffic(count=4, rate=1000.0)
        spans = collector.spans()
        assert len(spans) == 8
        assert [span.path_id for span in spans] == [0] * 4 + [1] * 4
        for span in spans:
            times = [event["t"] for event in span.events]
            assert times == sorted(times)


def event_count(collector):
    return sum(len(span.events) for span in collector.spans())


class TestAttachLifecycle:
    def make(self):
        params = ProtocolParams(path_length=2)
        simulator = Simulator(seed=0)
        protocol = make_protocol("full-ack", simulator, params)
        collector = RoundTraceCollector()
        collector.attach(protocol.path)
        return protocol, collector

    def test_double_attach_never_double_records(self):
        protocol, collector = self.make()
        collector.attach(protocol.path)  # idempotent: no second hook
        protocol.run_traffic(count=1, rate=1000.0)
        (span,) = collector.spans()
        # Data forward over 2 links + ack back over 2 links, once each.
        assert sum(e["kind"] == SEND for e in span.events) == 4

    def test_detach_stops_recording(self):
        protocol, collector = self.make()
        protocol.run_traffic(count=1, rate=1000.0)
        recorded = event_count(collector)
        collector.detach(protocol.path)
        protocol.run_traffic(count=5, rate=1000.0)
        # Spans recorded before detaching remain queryable, nothing new.
        assert len(collector) == 1
        assert event_count(collector) == recorded
        collector.detach(protocol.path)  # second detach is a no-op

    def test_reattach_resumes_recording(self):
        protocol, collector = self.make()
        collector.detach(protocol.path)
        protocol.run_traffic(count=1, rate=1000.0)
        assert len(collector) == 0
        collector.attach(protocol.path)
        protocol.run_traffic(count=1, rate=1000.0)
        assert len(collector) == 1

    def test_two_collectors_record_independently(self):
        protocol, collector = self.make()
        second = RoundTraceCollector()
        second.attach(protocol.path)
        protocol.run_traffic(count=2, rate=1000.0)
        assert len(collector) == len(second) == 2
        assert [span.to_dict() for span in collector.spans()] == [
            span.to_dict() for span in second.spans()
        ]
