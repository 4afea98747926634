"""PAAI-1: probabilistic packet sampling with onion reports (§6.1).

The source's secure-sampling algorithm selects each data packet with
probability ``p`` (a PRF under a key *only the source holds*, so nobody on
the path can tell monitored from unmonitored traffic). For every sampled
packet the source sends a probe; every node holding the packet identifier
answers with an onion report exactly as in full-ack. Amortized
communication overhead is ``O(p d)`` — ``O(1/d)`` at the paper's
``p = 1/d²`` — while the detection rate only degrades by the factor
``1/p`` (Theorem 2).

Observation rounds are *probed* packets: per probe the source either sees
a complete onion from D (no blame), a truncated onion blaming its cutoff
link, or nothing (blame ``l_0``, footnote 8).
"""

from __future__ import annotations

from repro.crypto.onion import OnionVerifier
from repro.crypto.sampling import SecureSampler
from repro.net.packets import AckPacket, DataPacket, Direction, Packet
from repro.protocols.base import ProbingSource, WireProtocol, is_report_ack
from repro.protocols.onion_common import (
    OnionDestination,
    OnionForwarder,
    build_probe,
    effective_onion_depth,
)


class Paai1Source(ProbingSource):
    """Source agent for PAAI-1."""

    def __init__(self, protocol: "Paai1Protocol") -> None:
        super().__init__(protocol)
        self.verifier = OnionVerifier(self.keys.all_mac_keys())
        self.sampler = SecureSampler(
            self.keys.source_sampling_key, self.params.probe_frequency
        )

    # -- sending --------------------------------------------------------------

    def _after_send(self, packet: DataPacket) -> None:
        if not self.sampler.is_sampled(packet.identifier):
            return
        identifier = packet.identifier
        self.monitor.record_sent()
        self.obs_sampling_hits.inc()
        entry = self.pending[identifier] = {
            "sequence": packet.sequence,
            "probe_attempts": 0,
        }
        if self.params.probe_delay > 0:
            # Delayed sampling (§5): the probe trails the data packet by a
            # gap long enough that a withheld packet's timestamp expires
            # before a withholder can usefully release it.
            entry["handle"] = self.set_timer(
                self.params.probe_delay, lambda: self._probe(identifier, entry)
            )
        else:
            self._probe(identifier, entry)

    def _probe(self, identifier: bytes, entry: dict) -> None:
        probe = build_probe(self.protocol, identifier, entry["sequence"])
        self.path.stats.record_overhead(probe)
        self.send_forward(probe)
        self.obs_probes_sent.inc()
        entry["handle"] = self.timer_with_slack(
            self.params.r0, lambda: self._on_report_timeout(identifier)
        )

    # -- receiving --------------------------------------------------------------

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        # No e2e acks in PAAI-1: only probe reports come back.
        if is_report_ack(packet, direction):
            self._on_report(packet)

    def _on_report(self, ack: AckPacket) -> None:
        entry = self.pending.get(ack.identifier)
        if entry is None:
            return
        entry["handle"].cancel()
        self.pending.pop(ack.identifier)
        depth = effective_onion_depth(self.verifier, ack.report, ack.identifier)
        if depth == self.params.path_length:
            # Complete onion from D: the sampled packet was delivered.
            self.monitor.record_acknowledged()
            self.obs_acks_verified.inc()
        else:
            self.board.add(depth)
        self.board.record_round()
        self.observe_round(entry)


class Paai1Protocol(WireProtocol):
    """Wire instance of PAAI-1."""

    name = "paai1"
    #: Sampled onion-probe lifecycle, replayable by repro.net.fastpath.
    fastpath_family = "paai1"

    def _build_nodes(self):
        params = self.params
        source = Paai1Source(self)
        # Nodes hold state for r0/2 awaiting a probe (§6.1 phase 1),
        # extended by the configured probe delay when delayed sampling is
        # hardened against withholding; a probed packet's state then lives
        # until the report is produced.
        hold = params.r0 / 2.0 + params.probe_delay
        forwarders = [
            OnionForwarder(self, position, hold=hold, e2e_policy="none")
            for position in range(1, params.path_length)
        ]
        destination = OnionDestination(
            self, hold=hold, ack_predicate=lambda packet: False
        )
        return [source, *forwarders, destination]
