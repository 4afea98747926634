"""The full-ack strawman protocol (§4).

Every data packet must be acknowledged end-to-end; every missing ack
triggers an onion-report probe that localizes the loss to a single link.
Best possible detection rate, O(1 + ψd) communication overhead per packet
— the baseline whose overhead PAAI-1 trades away.

Round semantics as implemented (and mirrored by the fast outcome model):

* e2e ack received in time → round observed, no blame;
* no ack → probe; the onion report comes back with effective depth ``i``:
  ``i = d`` means the data reached D (only the ack was lost) → no blame;
  ``i < d`` blames link ``l_i``;
* no report at all within the wait-time → blame ``l_0`` (footnote 8).
"""

from __future__ import annotations

from typing import List

from repro.core.estimators import DirectEstimator
from repro.core.monitor import EndToEndMonitor
from repro.crypto.mac import verify_mac
from repro.crypto.onion import OnionVerifier
from repro.net.packets import AckPacket, DataPacket, Direction, Packet
from repro.protocols.base import (
    SourceAgent,
    WireProtocol,
    is_e2e_ack,
    is_report_ack,
)
from repro.protocols.onion_common import (
    OnionDestination,
    OnionForwarder,
    build_probe,
    effective_onion_depth,
)


class FullAckSource(SourceAgent):
    """Source agent for the full-ack protocol."""

    def __init__(self, protocol: "FullAckProtocol") -> None:
        super().__init__(protocol)
        self.verifier = OnionVerifier(self.keys.all_mac_keys())
        self.monitor = EndToEndMonitor(self.params.psi_threshold)
        self._estimator = DirectEstimator(self.board)
        self._dest_mac_key = self.keys.mac_key(self.params.path_length)

    # -- sending ------------------------------------------------------------

    def _after_send(self, packet: DataPacket) -> None:
        identifier = packet.identifier
        self._await_ack(packet, lambda: self._on_ack_timeout(identifier))

    def _await_ack(self, packet: DataPacket, on_timeout) -> None:
        """Track ``packet`` until its e2e ack, or ``on_timeout`` after r0.

        Callers build ``on_timeout`` in their own ``_after_send``: the
        event counters label each timer by its callback's qualname.
        """
        self.monitor.record_sent()
        entry = self.pending.setdefault(packet.identifier, {})
        entry["sequence"] = packet.sequence
        entry["probed"] = False
        entry["handle"] = self.timer_with_slack(self.params.r0, on_timeout)

    # -- receiving ------------------------------------------------------------

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if is_e2e_ack(packet, direction):
            self._on_e2e_ack(packet)
        elif is_report_ack(packet, direction):
            self._on_report(packet)

    def _on_e2e_ack(self, ack: AckPacket) -> None:
        entry = self.pending.get(ack.identifier)
        if entry is None or entry["probed"]:
            return
        if not verify_mac(self._dest_mac_key, ack.identifier, ack.report):
            self.obs_mac_failures.inc()
            self.record_fault("ack_mac_failure")
            return  # forged/altered ack: treated as absent (drop semantics)
        entry["handle"].cancel()
        self.pending.pop(ack.identifier)
        self.monitor.record_acknowledged()
        self.obs_acks_verified.inc()
        self.board.record_round()  # an observed round with no blame
        self.observe_round(entry)

    def _on_ack_timeout(self, identifier: bytes) -> None:
        entry = self.pending.get(identifier)
        if entry is None:
            return
        entry["probed"] = True
        entry["probe_attempts"] = 0
        self._probe(identifier, entry)

    def _probe(self, identifier: bytes, entry: dict) -> None:
        probe = build_probe(self.protocol, identifier, entry["sequence"])
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
        depth = effective_onion_depth(self.verifier, ack.report, ack.identifier)
        if depth < self.params.path_length:
            self.board.add(depth)
        self.board.record_round()
        self.observe_round(entry)

    def _on_report_timeout(self, identifier: bytes) -> None:
        entry = self.pending.get(identifier)
        if entry is None:
            return
        # Degraded mode (probe_retries > 0): re-send the probe a bounded
        # number of times before scoring the round.
        if entry["probe_attempts"] < self.params.probe_retries:
            entry["probe_attempts"] += 1
            self._probe(identifier, entry)
            return
        self.pending.pop(identifier)
        # Footnote 8: no report at all means the loss is at l_0.
        self.obs_report_timeouts.inc()
        self.board.add(0)
        self.board.record_round()
        self.observe_round(entry)

    # -- verdicts ------------------------------------------------------------

    def estimates(self) -> List[float]:
        return self._estimator.estimates()


class FullAckProtocol(WireProtocol):
    """Wire instance of the full-ack protocol."""

    name = "full-ack"
    #: e2e ack + onion-probe lifecycle, replayable by repro.net.fastpath.
    fastpath_family = "onion-ack"

    def _build_nodes(self):
        params = self.params
        source = FullAckSource(self)
        forwarders = [
            OnionForwarder(self, position, hold=2.0 * params.r0, e2e_policy="pop")
            for position in range(1, params.path_length)
        ]
        destination = OnionDestination(
            self, hold=2.0 * params.r0, ack_predicate=lambda packet: True
        )
        return [source, *forwarders, destination]
