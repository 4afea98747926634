"""Tests for tracing one path with an explicitly attached collector."""

import pytest

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.net.simulator import Simulator
from repro.obs.tracing import LOSS, RoundTraceCollector
from repro.protocols.registry import make_protocol


def traced_run(natural_loss=0.0, count=20, seed=0, capacity=10_000):
    params = ProtocolParams(path_length=3, natural_loss=natural_loss, alpha=0.8)
    simulator = Simulator(seed=seed)
    protocol = make_protocol("full-ack", simulator, params)
    collector = RoundTraceCollector(capacity=capacity)
    collector.attach(protocol.path)
    protocol.run_traffic(count=count, rate=1000.0)
    return protocol, collector


class TestTracing:
    def test_losses_recorded(self):
        _, collector = traced_run(natural_loss=0.5, count=50, seed=3)
        losses = [
            event
            for span in collector.spans()
            for event in span.events
            if event["kind"] == LOSS
        ]
        assert losses
        # A loss happens on a link, never at a node.
        assert all(event["link"] is not None for event in losses)
        assert all(event["node"] is None for event in losses)

    def test_ring_buffer_bounded(self):
        _, collector = traced_run(count=50, capacity=10)
        assert len(collector) == 10
        # The newest rounds are the ones kept.
        sequences = [span.sequence for span in collector.spans()]
        assert max(sequences) == 49

    def test_tracing_does_not_change_behavior(self):
        """A traced run and an untraced run with the same seed must end in
        identical score boards."""
        params = ProtocolParams(path_length=3, natural_loss=0.2, alpha=0.5)

        def run(traced):
            simulator = Simulator(seed=9)
            protocol = make_protocol("full-ack", simulator, params)
            if traced:
                RoundTraceCollector().attach(protocol.path)
            protocol.run_traffic(count=100, rate=1000.0)
            return protocol.board.scores

        assert run(traced=True) == run(traced=False)

    def test_capacity_validation(self):
        for capacity in (0, -1):
            with pytest.raises(ConfigurationError):
                RoundTraceCollector(capacity=capacity)
