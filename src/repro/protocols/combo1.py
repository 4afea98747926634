"""§10 Combination 1: every node acknowledges a selected fraction of *lost*
data packets.

PAAI-1's sampling key is replaced by the key shared with the destination
(``K_d``-derived), so D can independently tell which packets are sampled
and proactively ack them. The source then probes only for *sampled packets
whose e2e ack never arrived* — cutting communication to ``O(p (1 + ψ d))``
— while the detection rate matches PAAI-1 (one observation per sampled
packet either way). The cost is storage: nodes cannot tell sampled
packets apart, and a probe may now arrive a full extra ``r_0`` later (the
source's ack wait), so every node holds state correspondingly longer
(Table 1's ``O(r_0 (0.5 + 2p) ν)`` row).

For a sampled packet the source runs full-ack's ack/probe/report
lifecycle unchanged, degraded-mode accounting and probe retries
included; unsampled packets are not tracked at all.
"""

from __future__ import annotations

from repro.crypto.keys import derive_key
from repro.crypto.sampling import SecureSampler
from repro.net.packets import DataPacket
from repro.protocols.base import WireProtocol
from repro.protocols.fullack import FullAckSource
from repro.protocols.onion_common import OnionDestination, OnionForwarder

#: Role label for the sampling key derived from the S-D pairwise key.
SAMPLING_ROLE = "combo-sampling"


def destination_keyed_sampler(protocol: WireProtocol) -> SecureSampler:
    """The §10 combinations' sampler, keyed from the pairwise key with D:
    both ends can evaluate it, nobody else can. S and D each build their
    own copy."""
    params = protocol.params
    key = derive_key(protocol.keys.master_key(params.path_length), SAMPLING_ROLE)
    return SecureSampler(key, params.probe_frequency)


class Combo1Source(FullAckSource):
    """Source agent for Combination 1: full-ack on the sampled packets."""

    def __init__(self, protocol: "Combination1Protocol") -> None:
        super().__init__(protocol)
        self.sampler = destination_keyed_sampler(protocol)

    def _after_send(self, packet: DataPacket) -> None:
        identifier = packet.identifier
        if not self.sampler.is_sampled(identifier):
            return
        self.obs_sampling_hits.inc()
        self._await_ack(packet, lambda: self._on_ack_timeout(identifier))


class Combination1Protocol(WireProtocol):
    """Wire instance of §10's Combination 1."""

    name = "combo1"

    def _build_nodes(self):
        params = self.params
        source = Combo1Source(self)
        # Nodes hold every packet: r0/2 base window plus the extra r0 the
        # source spends waiting for D's ack before probing.
        hold = params.r0 / 2.0 + params.r0
        forwarders = [
            OnionForwarder(self, position, hold=hold, e2e_policy="keep")
            for position in range(1, params.path_length)
        ]
        dest_sampler = destination_keyed_sampler(self)
        destination = OnionDestination(
            self,
            hold=hold,
            ack_predicate=lambda packet: dest_sampler.is_sampled(packet.identifier),
        )
        return [source, *forwarders, destination]
