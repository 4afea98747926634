"""The statistical fault-localization baseline (Barak, Goldberg & Xiao,
EUROCRYPT 2008), as the paper compares against in Tables 1-2.

Design (symmetric-key statistical FL, reimplemented in spirit):

* each node ``F_i`` keeps a single **cumulative counter** of the data
  packets it has seen whose identifier its private PRF (keyed by the
  pairwise key with S) samples with probability ``p_fl``. A compromised
  node cannot tell which packets *honest* nodes count, so it cannot drop
  selectively around the sketch;
* every ``interval_length`` data packets the source collects the counters
  through an onion-authenticated report request (constant-size request,
  O(d)-size report — amortized to near-zero overhead per data packet);
* counter ``c_i`` estimates arrivals at ``F_i`` as ``c_i / p_fl``; the
  survival-ratio drops between adjacent nodes estimate per-link loss.

Because counters are cumulative, lost or truncated reports cost only
staleness, never consistency. The price of the tiny overhead is sampling
noise ``~ 1/sqrt(p_fl * N)``: with the paper's translated parameters the
scheme needs on the order of 10^7 packets to separate ``alpha`` from
``rho`` — the "50 hours" detection rate of Table 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.monitor import EndToEndMonitor
from repro.crypto.hashing import hash_bytes
from repro.crypto.onion import OnionReport, OnionVerifier
from repro.crypto.prf import PRF
from repro.exceptions import ConfigurationError
from repro.net.packets import (
    AckPacket,
    DataPacket,
    Direction,
    Packet,
    PacketKind,
    ProbePacket,
)
from repro.protocols.base import (
    DestinationAgent,
    ForwarderAgent,
    SourceAgent,
    WireProtocol,
    is_report_ack,
)

#: Default sketch sampling probability (``p`` in the translated formulas).
DEFAULT_FL_SAMPLING = 0.01

#: Default packets per report-collection interval.
DEFAULT_INTERVAL = 1000

_COUNT_BYTES = 8


def _count_payload(count: int, identifier: bytes) -> bytes:
    return count.to_bytes(_COUNT_BYTES, "big") + identifier


def _parse_count(payload: bytes, identifier: bytes) -> Optional[int]:
    if len(payload) != _COUNT_BYTES + len(identifier):
        return None
    if payload[_COUNT_BYTES:] != identifier:
        return None
    return int.from_bytes(payload[:_COUNT_BYTES], "big")


class _SketchMixin:
    """Shared counting logic for forwarders and the destination."""

    def _init_sketch(self, protocol, position: int) -> None:
        self._sampler_prf = PRF(
            protocol.keys.master_key(position), label="statfl-sketch"
        )
        self._fl_sampling = protocol.fl_sampling
        #: Cumulative count of sampled data packets seen.
        self.sketch_count = 0

    def _count_data(self, packet: DataPacket) -> None:
        if self._sampler_prf.bernoulli(packet.identifier, self._fl_sampling):
            self.sketch_count += 1


class StatFLForwarder(ForwarderAgent, _SketchMixin):
    """Forwarder: count sampled packets, answer interval report requests."""

    def __init__(self, protocol: "StatisticalFLProtocol", position: int) -> None:
        super().__init__(protocol, position)
        self._init_sketch(protocol, position)

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if direction is Direction.FORWARD and packet.kind is PacketKind.DATA:
            self._count_data(packet)
            self.send_forward(packet)
        elif direction is Direction.FORWARD and packet.kind is PacketKind.PROBE:
            self._on_request(packet)
        elif is_report_ack(packet, direction):
            self._on_report(packet)

    def _on_request(self, request: ProbePacket) -> None:
        identifier = request.identifier
        entry = self.store.add(identifier, self.now, count=self.sketch_count)
        entry["handle"] = self.timer_with_slack(
            self.rtt_to_destination(), lambda: self._report_timeout(identifier)
        )
        self.send_forward(request)

    def _on_report(self, ack: AckPacket) -> None:
        entry = self.store.get(ack.identifier)
        if entry is None:
            return
        entry["handle"].cancel()
        wrapped = OnionReport.wrap(
            self.position,
            _count_payload(entry["count"], ack.identifier),
            ack.report,
            self.mac_key,
        )
        self.store.pop(ack.identifier, self.now)
        self.send_backward(
            AckPacket.create(
                ack.identifier, report=wrapped, origin=self.position, is_report=True
            )
        )

    def _report_timeout(self, identifier: bytes) -> None:
        entry = self.store.get(identifier)
        if entry is None:
            return
        report = OnionReport.originate(
            self.position, _count_payload(entry["count"], identifier), self.mac_key
        )
        self.store.pop(identifier, self.now)
        self.send_backward(
            AckPacket.create(
                identifier, report=report, origin=self.position, is_report=True
            )
        )


class StatFLDestination(DestinationAgent, _SketchMixin):
    """Destination: count sampled packets, originate interval reports."""

    def __init__(self, protocol: "StatisticalFLProtocol") -> None:
        super().__init__(protocol)
        self._init_sketch(protocol, self.position)

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if direction is Direction.FORWARD and packet.kind is PacketKind.DATA:
            self.path.stats.record_data_delivered()
            self._count_data(packet)
        elif direction is Direction.FORWARD and packet.kind is PacketKind.PROBE:
            report = OnionReport.originate(
                self.position,
                _count_payload(self.sketch_count, packet.identifier),
                self.mac_key,
            )
            self.send_backward(
                AckPacket.create(
                    packet.identifier, report=report, origin=self.position,
                    is_report=True,
                )
            )


class StatFLSource(SourceAgent):
    """Source: drive intervals, collect counters, estimate per-link loss."""

    #: Retransmissions of a lost report request before giving up on it.
    MAX_ATTEMPTS = 3

    def __init__(self, protocol: "StatisticalFLProtocol") -> None:
        super().__init__(protocol)
        self.verifier = OnionVerifier(self.keys.all_mac_keys())
        self.monitor = EndToEndMonitor(self.params.psi_threshold)
        self._fl_sampling = protocol.fl_sampling
        self._interval = protocol.interval_length
        self._interval_index = 0
        #: Latest cumulative counter per node (1..d) and the sent-packet
        #: snapshot it corresponds to.
        self.latest_counts: Dict[int, int] = {}
        self.latest_snapshot: Dict[int, int] = {}
        self._requests: Dict[bytes, Dict] = {}
        #: Requests that completed (answered, or given up after retries).
        self._resolved_requests = 0

    # -- sending --------------------------------------------------------------

    def _after_send(self, packet: DataPacket) -> None:
        self.monitor.record_sent()
        self.board.record_round()
        if self._sequence % self._interval == 0:
            # Let in-flight data settle before reading the counters.
            self.timer_with_slack(self.params.r0, self._send_request)

    def _send_request(self) -> None:
        self._interval_index += 1
        identifier = hash_bytes(b"statfl-request-%d" % self._interval_index)
        self._requests[identifier] = {
            "attempts": 0,
            "snapshot": self._sequence,
        }
        self._transmit_request(identifier)

    def _transmit_request(self, identifier: bytes) -> None:
        entry = self._requests[identifier]
        entry["attempts"] += 1
        request = ProbePacket.create(identifier)
        self.path.stats.record_overhead(request)
        self.send_forward(request)
        self.obs_probes_sent.inc()
        entry["handle"] = self.timer_with_slack(
            self.params.r0, lambda: self._on_request_timeout(identifier)
        )

    def _on_request_timeout(self, identifier: bytes) -> None:
        entry = self._requests.get(identifier)
        if entry is None:
            return
        if entry["attempts"] >= self.MAX_ATTEMPTS:
            self._requests.pop(identifier)
            self._resolved_requests += 1
            self.obs_report_timeouts.inc()
            return
        self._transmit_request(identifier)

    # -- receiving --------------------------------------------------------------

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if is_report_ack(packet, direction):
            self._on_report(packet)

    def _on_report(self, ack: AckPacket) -> None:
        entry = self._requests.get(ack.identifier)
        if entry is None:
            return
        verdict = self.verifier.verify(ack.report)
        accepted = False
        for layer in verdict.layers:
            count = _parse_count(layer.payload, ack.identifier)
            if count is None:
                self.record_fault("malformed_count_payload")
                break
            self.latest_counts[layer.position] = count
            self.latest_snapshot[layer.position] = entry["snapshot"]
            accepted = True
        if accepted:
            entry["handle"].cancel()
            self._requests.pop(ack.identifier)
            self._resolved_requests += 1
            self.obs_acks_verified.inc()

    # -- verdicts --------------------------------------------------------------

    def survival_fractions(self) -> List[float]:
        """Estimated fraction of sent packets surviving to each node 0..d."""
        d = self.params.path_length
        fractions = [1.0]  # F_0 = S sees everything it sends
        for position in range(1, d + 1):
            count = self.latest_counts.get(position)
            snapshot = self.latest_snapshot.get(position, 0)
            if count is None or snapshot == 0:
                fractions.append(float("nan"))
                continue
            fractions.append(count / (self._fl_sampling * snapshot))
        return fractions

    def _link_estimates(self) -> List[Tuple[float, bool]]:
        """``(estimate, unreported)`` per link; ``unreported`` marks an
        estimate that rests on the node never having reported."""
        fractions = self.survival_fractions()
        estimates = []
        for link in range(self.params.path_length):
            upstream, downstream = fractions[link], fractions[link + 1]
            if upstream != upstream or upstream <= 0.0:  # NaN or dead above
                estimates.append((0.0, False))
                continue
            if downstream != downstream:  # NaN: node never reported
                # A node that has answered no resolved request while its
                # upstream neighbor has is unreachable: survival ~ 0 and
                # the loss concentrates on this link.
                if self._resolved_requests > 0:
                    estimates.append((1.0, True))
                else:
                    estimates.append((0.0, False))
                continue
            estimates.append((max(0.0, 1.0 - downstream / upstream), False))
        return estimates

    def estimates(self) -> List[float]:
        return [estimate for estimate, _ in self._link_estimates()]

    def link_samples(self) -> List[int]:
        # An unreachable-node verdict rests on the resolved requests, not
        # on the data rounds sent: its interval is sized accordingly.
        rounds = self.board.rounds
        return [
            self._resolved_requests if unreported else rounds
            for _, unreported in self._link_estimates()
        ]


def check_sketch_parameters(fl_sampling: float, interval_length: int) -> None:
    """Reject sketch parameters no engine can run: a sampling probability
    outside (0, 1] or a non-positive report interval. Both entry points
    (this protocol and ``DetectionRequest``, which every engine runs)
    check with this one rule, so the model, fastpath and event engines
    refuse the same requests."""
    if not 0.0 < fl_sampling <= 1.0:
        raise ConfigurationError(f"fl_sampling must be in (0, 1], got {fl_sampling}")
    if interval_length <= 0:
        raise ConfigurationError(
            f"statfl interval length must be positive, got {interval_length}"
        )


class StatisticalFLProtocol(WireProtocol):
    """Wire instance of the statistical FL baseline.

    Parameters
    ----------
    fl_sampling:
        Sketch sampling probability ``p_fl``.
    interval_length:
        Data packets per report-collection interval.
    """

    name = "statfl"
    #: Sketch-counter + interval-request lifecycle (repro.net.fastpath).
    fastpath_family = "statfl"

    def __init__(
        self,
        *args,
        fl_sampling: float = DEFAULT_FL_SAMPLING,
        interval_length: int = DEFAULT_INTERVAL,
        **kwargs,
    ) -> None:
        check_sketch_parameters(fl_sampling, interval_length)
        self.fl_sampling = fl_sampling
        self.interval_length = interval_length
        super().__init__(*args, **kwargs)

    def _build_nodes(self):
        source = StatFLSource(self)
        forwarders = [
            StatFLForwarder(self, position)
            for position in range(1, self.params.path_length)
        ]
        destination = StatFLDestination(self)
        return [source, *forwarders, destination]
