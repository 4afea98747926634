"""Shared agents for the onion-report protocols (full-ack, PAAI-1, §10
Combination 1, and sig-ack).

All four protocols use the same probe/onion machinery on intermediate
nodes and the destination; they differ only in *when* the source probes
and how long nodes hold per-packet state. How report layers and the
destination's ack are authenticated is left to small hooks
(``_wrap_report`` / ``_originate_report`` and ``_ack_tag``) whose
defaults are the MAC onion; sig-ack's subclasses sign instead.

The forwarder implements the paper's phase-3 rules, including report
*regeneration*: a node whose report wait-timer expires without a
downstream ack originates its own onion layer — this is what pins a
report dropped on link ``l_i`` to depth ``i`` instead of silently
blaming ``l_0``.

The forwarder's handling of end-to-end acks is a policy knob:

* ``"none"`` — the protocol has no per-packet e2e acks (PAAI-1);
* ``"pop"`` — relay the ack and release the packet state (full-ack: once
  the destination's ack has passed, this node can no longer be asked to
  report, giving the ideal-case ``O(r_i ν)`` storage of Table 1 — and
  making a later probe stop exactly at the link where the ack was lost);
* ``"keep"`` — relay but keep state until the hold timer (Combination 1,
  where a probe may follow a lost ack and every node must still answer).
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.mac import mac, verify_mac
from repro.crypto.onion import OnionReport, OnionVerifier
from repro.exceptions import ConfigurationError
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
    is_e2e_ack,
    is_report_ack,
)


def build_probe(protocol, identifier: bytes, sequence: int) -> ProbePacket:
    """Build a probe, optionally with footnote 7's per-hop MAC chain."""
    hop_macs = ()
    if protocol.params.authenticated_probes:
        hop_macs = tuple(
            mac(protocol.keys.mac_key(i), b"probe" + identifier)
            for i in range(1, protocol.params.path_length + 1)
        )
    return ProbePacket.create(identifier, sequence=sequence, hop_macs=hop_macs)


def probe_hop_valid(agent, probe: ProbePacket) -> bool:
    """Verify this hop's MAC on an authenticated probe."""
    if not agent.params.authenticated_probes:
        return True
    if len(probe.hop_macs) < agent.position:
        return False
    return verify_mac(
        agent.mac_key, b"probe" + probe.identifier, probe.hop_macs[agent.position - 1]
    )


def effective_onion_depth(verifier: OnionVerifier, report: Optional[bytes],
                          identifier: bytes) -> int:
    """Verify an onion report and return its effective depth.

    Beyond MAC validity, every layer must carry the packet identifier as
    its payload — this binds the report to the probed packet and stops an
    adversary splicing in a (valid) onion recorded for a different packet.
    """
    verdict = verifier.verify(report)
    depth = 0
    for layer in verdict.layers:
        if layer.payload != identifier:
            break
        depth = layer.position
    return depth


class OnionForwarder(ForwarderAgent):
    """Intermediate node for onion-report protocols.

    Parameters
    ----------
    hold:
        Seconds to keep per-packet state while waiting for a probe.
    e2e_policy:
        One of ``"none"``, ``"pop"``, ``"keep"`` (see module docstring).
    """

    def __init__(self, protocol, position: int, hold: float, e2e_policy: str) -> None:
        super().__init__(protocol, position)
        if e2e_policy not in ("none", "pop", "keep"):
            raise ConfigurationError(f"unknown e2e policy {e2e_policy!r}")
        self._hold = hold
        self._e2e_policy = e2e_policy

    # -- packet handling ---------------------------------------------------

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if direction is FORWARD and packet.kind is DATA:
            self._on_data(packet)
        elif direction is FORWARD and packet.kind is PROBE:
            self._on_probe(packet)
        elif is_e2e_ack(packet, direction):
            self._on_e2e_ack(packet)
        elif is_report_ack(packet, direction):
            self._on_report(packet)
        # Anything else is silently discarded (unknown identifier rule).

    def _on_data(self, packet: DataPacket) -> None:
        if not self.is_fresh(packet):
            return  # expired timestamp: discard (anti-withholding)
        identifier = packet.identifier
        entry = self.store.add(identifier, self.now, probed=False)
        entry["hold_handle"] = self.timer_with_slack(
            self._hold, lambda: self._expire_hold(identifier)
        )
        self.send_forward(packet)

    def _on_probe(self, probe: ProbePacket) -> None:
        entry = self.store.get(probe.identifier)
        if entry is None or entry["probed"]:
            return
        if not probe_hop_valid(self, probe):
            self.obs_mac_failures.inc()
            self.record_fault("probe_mac_failure")
            return
        entry["probed"] = True
        entry["hold_handle"].cancel()
        identifier = probe.identifier
        entry["report_handle"] = self.timer_with_slack(
            self.rtt_to_destination(), lambda: self._report_timeout(identifier)
        )
        self.send_forward(probe)

    def _on_e2e_ack(self, ack: AckPacket) -> None:
        if self._e2e_policy == "none":
            return
        entry = self.store.get(ack.identifier)
        if entry is None or entry["probed"]:
            return
        if self._e2e_policy == "pop":
            entry["hold_handle"].cancel()
            self.store.pop(ack.identifier, self.now)
        self.send_backward(ack)

    def _on_report(self, ack: AckPacket) -> None:
        entry = self.store.get(ack.identifier)
        if entry is None or not entry["probed"]:
            return
        if not ack.report:
            # Nothing to wrap: count it and let the report timer originate
            # this node's own layer, as if no report had come back.
            self.record_fault("empty_report")
            return
        entry["report_handle"].cancel()
        wrapped = self._wrap_report(ack.identifier, ack.report)
        self.store.pop(ack.identifier, self.now)
        self.send_backward(
            AckPacket.create(
                ack.identifier,
                report=wrapped,
                origin=self.position,
                sequence=ack.sequence,
                is_report=True,
            )
        )

    # -- timers -------------------------------------------------------------

    def _expire_hold(self, identifier: bytes) -> None:
        entry = self.store.get(identifier)
        if entry is not None and not entry["probed"]:
            self.store.pop(identifier, self.now)

    def _report_timeout(self, identifier: bytes) -> None:
        entry = self.store.get(identifier)
        if entry is None:
            return
        # Rule (a): no downstream ack in time -> originate an onion report.
        report = self._originate_report(identifier)
        self.store.pop(identifier, self.now)
        self.send_backward(
            AckPacket.create(
                identifier, report=report, origin=self.position, is_report=True
            )
        )

    # -- report layers (MAC onion; sig-ack signs instead) ---------------------

    def _wrap_report(self, identifier: bytes, inner: bytes) -> bytes:
        """This node's layer around a downstream report."""
        return OnionReport.wrap(self.position, identifier, inner, self.mac_key)

    def _originate_report(self, identifier: bytes) -> bytes:
        """An innermost layer: the report starts at this node."""
        return OnionReport.originate(self.position, identifier, self.mac_key)


class OnionDestination(DestinationAgent):
    """Destination for onion-report protocols.

    Parameters
    ----------
    hold:
        Seconds to keep state while a probe may still arrive.
    ack_predicate:
        Decides whether a freshly received data packet triggers an
        immediate end-to-end ack: always for full-ack, never for PAAI-1,
        "if sampled under the shared K_d sampler" for Combination 1.
    """

    def __init__(self, protocol, hold: float, ack_predicate) -> None:
        super().__init__(protocol)
        self._hold = hold
        self._ack_predicate = ack_predicate

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        if direction is FORWARD and packet.kind is DATA:
            self._on_data(packet)
        elif direction is FORWARD and packet.kind is PROBE:
            self._on_probe(packet)

    def _on_data(self, packet: DataPacket) -> None:
        if not self.is_fresh(packet):
            return
        identifier = packet.identifier
        entry = self.store.add(identifier, self.now)
        entry["hold_handle"] = self.timer_with_slack(
            self._hold, lambda: self._expire_hold(identifier)
        )
        self.path.stats.record_data_delivered()
        if self._ack_predicate(packet):
            self.send_backward(
                AckPacket.create(
                    identifier, report=self._ack_tag(identifier),
                    origin=self.position,
                    sequence=packet.sequence, is_report=False,
                )
            )

    def _on_probe(self, probe: ProbePacket) -> None:
        entry = self.store.get(probe.identifier)
        if entry is None:
            return
        if not probe_hop_valid(self, probe):
            self.obs_mac_failures.inc()
            self.record_fault("probe_mac_failure")
            return
        entry["hold_handle"].cancel()
        self.store.pop(probe.identifier, self.now)
        report = self._originate_report(probe.identifier)
        self.send_backward(
            AckPacket.create(
                probe.identifier, report=report, origin=self.position, is_report=True
            )
        )

    def _expire_hold(self, identifier: bytes) -> None:
        if identifier in self.store:
            self.store.pop(identifier, self.now)

    # -- ack tag and report layer (MAC; sig-ack signs instead) ----------------

    def _ack_tag(self, identifier: bytes) -> bytes:
        """D's end-to-end ack tag for ``identifier``."""
        return mac(self.mac_key, identifier)

    def _originate_report(self, identifier: bytes) -> bytes:
        """D's answer to a probe: an innermost report layer."""
        return OnionReport.originate(self.position, identifier, self.mac_key)
