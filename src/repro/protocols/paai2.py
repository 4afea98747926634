"""PAAI-2: oblivious single-node selection (§6.2).

Every data packet is end-to-end acknowledged; a missing ack triggers a
probe carrying a random challenge ``Z``. Each node evaluates a keyed
predicate ``T_i`` on ``Z`` (true with probability ``1/(d-i+1)``), making
the *first sampled* node the uniformly-selected reporter. On the way back
every node either overwrites (if sampled) or re-encrypts the constant-size
report, so traffic analysis cannot tell where the report originated — the
property that defeats footnote 6's incrimination attack.

Scoring (§6.2 phases 4-5, with the resolutions documented in DESIGN.md):
the source, which can recompute the selected node ``F_e``, strips the
``e`` encryption layers and checks the inner report. A match clears the
round; a mismatch adds +1 to every link in ``[l_0, l_{e-1}]``. Per-link
rates come out of the score-difference estimator
(:class:`repro.core.estimators.DifferenceEstimator`).
"""

from __future__ import annotations

from repro.core.estimators import DifferenceEstimator
from repro.crypto.mac import mac
from repro.crypto.oblivious import ObliviousDecoder, ObliviousReport
from repro.crypto.sampling import SelectionPredicate, selected_node
from repro.net.packets import (
    DATA,
    FORWARD,
    PROBE,
    AckPacket,
    DataPacket,
    Direction,
    Packet,
    ProbePacket,
)
from repro.protocols.base import (
    DestinationAgent,
    ForwarderAgent,
    ProbingSource,
    WireProtocol,
    is_e2e_ack,
    is_report_ack,
)

#: Length of the random challenge Z carried by PAAI-2 probes.
CHALLENGE_SIZE = 16


def _report_challenge(identifier: bytes, z: bytes) -> bytes:
    """The value nodes embed in their reports: binds packet and probe."""
    return identifier + z


class Paai2Source(ProbingSource):
    """Source agent for PAAI-2."""

    estimator_class = DifferenceEstimator
    #: Every data packet is an observation, counted when it is sent.
    ack_is_round = False

    def __init__(self, protocol: "Paai2Protocol") -> None:
        super().__init__(protocol)
        d = self.params.path_length
        self.decoder = ObliviousDecoder(
            [self.keys.encryption_key(i) for i in range(1, d + 1)],
            [self.keys.mac_key(i) for i in range(1, d + 1)],
        )
        self._selection_keys = self.keys.all_selection_keys()
        self._dest_mac_key = self.keys.mac_key(d)
        self._challenge_rng = protocol.simulator.rng.stream("paai2-challenge")
        #: Count of probe rounds that decoded to a match (diagnostics).
        self.matches = 0
        self.mismatches = 0

    # -- sending --------------------------------------------------------------

    def _after_send(self, packet: DataPacket) -> None:
        identifier = packet.identifier
        self.monitor.record_sent()
        self.board.record_round()  # every data packet is an observation
        self.pending[identifier] = {
            "sequence": packet.sequence,
            "probed": False,
            "handle": self.timer_with_slack(
                self.params.r0, lambda: self._on_e2e_timeout(identifier)
            ),
        }

    def _on_e2e_timeout(self, identifier: bytes) -> None:
        entry = self.pending.get(identifier)
        if entry is None:
            return
        entry["probed"] = True
        entry["probe_attempts"] = 0
        z = bytes(
            self._challenge_rng.getrandbits(8) for _ in range(CHALLENGE_SIZE)
        )
        entry["z"] = z
        entry["selected"] = selected_node(self._selection_keys, z)
        self._probe(identifier, entry)

    def _probe(self, identifier: bytes, entry: dict) -> None:
        # Retransmissions reuse the original challenge Z: the selected
        # node is a pure function of Z, so the round's reporter (and the
        # scoring interval) stays fixed across attempts.
        probe = ProbePacket.create(
            identifier, sequence=entry["sequence"], challenge=entry["z"]
        )
        self.path.stats.record_overhead(probe)
        self.send_forward(probe)
        self.obs_probes_sent.inc()
        entry["handle"] = self.timer_with_slack(
            self.params.r0, lambda: self._on_report_timeout(identifier)
        )

    def _on_report(self, ack: AckPacket) -> None:
        entry = self.pending.get(ack.identifier)
        if entry is None or not entry["probed"]:
            return
        entry["handle"].cancel()
        self.pending.pop(ack.identifier)
        decoded = self.decoder.decode(
            ack.report,
            selected=entry["selected"],
            challenge=_report_challenge(ack.identifier, entry["z"]),
        )
        self._score(decoded.matches, entry["selected"])
        self.observe_round(entry)

    def _score_lost(self, entry: dict) -> None:
        """No report at all scores as a mismatch."""
        self._score(False, entry["selected"])

    def _score(self, matches: bool, selected: int) -> None:
        if matches:
            self.matches += 1
            return
        self.mismatches += 1
        self.board.add_upstream_interval(selected)


class Paai2Forwarder(ForwarderAgent):
    """Intermediate node for PAAI-2."""

    def __init__(self, protocol: "Paai2Protocol", position: int) -> None:
        super().__init__(protocol, position)
        self.enc_key = protocol.keys.encryption_key(position)
        self._predicate = SelectionPredicate(
            protocol.keys.selection_key(position),
            position=position,
            path_length=protocol.params.path_length,
        )
        self._nonce_rng = protocol.simulator.rng.nonce_source(f"node-{position}")
        # Probe may arrive up to ~1.5 r0 after the data packet (source
        # e2e-timeout plus probe transit); §7.4's worst-case accounting
        # (2 r0) covers this hold plus the report wait.
        self._hold = 1.5 * protocol.params.r0

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if direction is FORWARD and packet.kind is DATA:
            self._on_data(packet)
        elif direction is FORWARD and packet.kind is PROBE:
            self._on_probe(packet)
        elif is_e2e_ack(packet, direction):
            self._on_e2e_ack(packet)
        elif is_report_ack(packet, direction):
            self._on_report(packet)

    def _on_data(self, packet: DataPacket) -> None:
        if not self.is_fresh(packet):
            return
        identifier = packet.identifier
        entry = self.store.add(
            identifier, self.now, probed=False, dest_ack=None
        )
        entry["hold_handle"] = self.timer_with_slack(
            self._hold, lambda: self._expire_hold(identifier)
        )
        self.send_forward(packet)

    def _on_e2e_ack(self, ack: AckPacket) -> None:
        entry = self.store.get(ack.identifier)
        if entry is None or entry["probed"]:
            return
        # Phase 1: store a copy of D's ack, forward it toward S.
        entry["dest_ack"] = ack.report
        self.send_backward(ack)

    def _on_probe(self, probe: ProbePacket) -> None:
        entry = self.store.get(probe.identifier)
        if entry is None or entry["probed"]:
            return
        entry["probed"] = True
        entry["z"] = probe.challenge
        entry["sampled"] = self._predicate.is_sampled(probe.challenge)
        entry["hold_handle"].cancel()
        identifier = probe.identifier
        entry["report_handle"] = self.timer_with_slack(
            self.rtt_to_destination(), lambda: self._report_timeout(identifier)
        )
        self.send_forward(probe)

    def _on_report(self, ack: AckPacket) -> None:
        entry = self.store.get(ack.identifier)
        if entry is None or not entry["probed"]:
            return
        entry["report_handle"].cancel()
        if entry["sampled"]:
            report = self._originate(ack.identifier, entry)
        else:
            report = ObliviousReport.reencrypt(
                ack.report, self.enc_key, rng=self._nonce_rng
            )
        self.store.pop(ack.identifier, self.now)
        self.send_backward(
            AckPacket.create(
                ack.identifier,
                report=report,
                origin=self.position,
                sequence=ack.sequence,
                is_report=True,
            )
        )

    def _report_timeout(self, identifier: bytes) -> None:
        entry = self.store.get(identifier)
        if entry is None:
            return
        # Rule (a): no downstream ack -> originate own encrypted report.
        report = self._originate(identifier, entry)
        self.store.pop(identifier, self.now)
        self.send_backward(
            AckPacket.create(
                identifier, report=report, origin=self.position, is_report=True
            )
        )

    def _originate(self, identifier: bytes, entry: dict) -> bytes:
        return ObliviousReport.originate(
            self.position,
            _report_challenge(identifier, entry["z"]),
            entry["dest_ack"],
            mac_key=self.mac_key,
            enc_key=self.enc_key,
            rng=self._nonce_rng,
        )

    def _expire_hold(self, identifier: bytes) -> None:
        entry = self.store.get(identifier)
        if entry is not None and not entry["probed"]:
            self.store.pop(identifier, self.now)


class Paai2Destination(DestinationAgent):
    """Destination for PAAI-2: always answers probes, and acks the data
    packets ``ack_predicate`` selects — every one in PAAI-2, the sampled
    ones in Combination 2."""

    def __init__(self, protocol, ack_predicate) -> None:
        super().__init__(protocol)
        self._ack_predicate = ack_predicate
        self.enc_key = protocol.keys.encryption_key(self.position)
        self._nonce_rng = protocol.simulator.rng.nonce_source("node-dest")
        self._hold = 1.5 * protocol.params.r0

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if direction is FORWARD and packet.kind is DATA:
            self._on_data(packet)
        elif direction is FORWARD and packet.kind is PROBE:
            self._on_probe(packet)

    def _on_data(self, packet: DataPacket) -> None:
        if not self.is_fresh(packet):
            return
        identifier = packet.identifier
        tag = mac(self.mac_key, identifier)
        entry = self.store.add(identifier, self.now, dest_ack=tag)
        entry["hold_handle"] = self.timer_with_slack(
            self._hold, lambda: self._expire_hold(identifier)
        )
        self.path.stats.record_data_delivered()
        if self._ack_predicate(packet):
            self.send_backward(
                AckPacket.create(
                    identifier, report=tag, origin=self.position,
                    sequence=packet.sequence, is_report=False,
                )
            )

    def _on_probe(self, probe: ProbePacket) -> None:
        entry = self.store.get(probe.identifier)
        if entry is None:
            return
        entry["hold_handle"].cancel()
        # T_d is true with probability 1: D is the selection backstop and
        # always originates a report when probed.
        report = ObliviousReport.originate(
            self.position,
            _report_challenge(probe.identifier, probe.challenge),
            entry["dest_ack"],
            mac_key=self.mac_key,
            enc_key=self.enc_key,
            rng=self._nonce_rng,
        )
        self.store.pop(probe.identifier, self.now)
        self.send_backward(
            AckPacket.create(
                probe.identifier, report=report, origin=self.position,
                is_report=True,
            )
        )

    def _expire_hold(self, identifier: bytes) -> None:
        if identifier in self.store:
            self.store.pop(identifier, self.now)


class Paai2Protocol(WireProtocol):
    """Wire instance of PAAI-2."""

    name = "paai2"
    confidence_variance_scale = staticmethod(
        lambda params: 2.0 * params.path_length
    )

    def _build_nodes(self):
        source = Paai2Source(self)
        forwarders = [
            Paai2Forwarder(self, position)
            for position in range(1, self.params.path_length)
        ]
        destination = Paai2Destination(self, ack_predicate=lambda packet: True)
        return [source, *forwarders, destination]
