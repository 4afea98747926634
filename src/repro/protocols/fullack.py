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

from typing import Optional

from repro.crypto.onion import OnionVerifier
from repro.net.packets import AckPacket, DataPacket
from repro.protocols.base import ProbingSource, WireProtocol
from repro.protocols.onion_common import (
    OnionDestination,
    OnionForwarder,
    build_probe,
    effective_onion_depth,
)


class FullAckSource(ProbingSource):
    """Source agent for the full-ack protocol."""

    def __init__(self, protocol: "FullAckProtocol") -> None:
        super().__init__(protocol)
        # MAC material only: sig-ack, which checks signatures instead,
        # skips this initializer (see SigAckSource).
        self.verifier = OnionVerifier(self.keys.all_mac_keys())
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

    # -- receiving ------------------------------------------------------------

    def _on_report(self, ack: AckPacket) -> None:
        entry = self.pending.get(ack.identifier)
        if entry is None or not entry["probed"]:
            return
        entry["handle"].cancel()
        self.pending.pop(ack.identifier)
        depth = self._verify_chain(ack.report, ack.identifier)
        if depth < self.params.path_length:
            self.board.add(depth)
        self.board.record_round()
        self.observe_round(entry)

    def _verify_chain(self, report: Optional[bytes], identifier: bytes) -> int:
        """Effective depth of a probe's report: a MAC onion here."""
        return effective_onion_depth(self.verifier, report, identifier)


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
