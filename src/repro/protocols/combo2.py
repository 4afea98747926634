"""§10 Combination 2: one selected node acknowledges a selected fraction of
data packets.

PAAI-2's machinery with Combination 1's destination-keyed sampling: D
independently acks sampled packets; the source probes (with a PAAI-2
challenge, selection, and oblivious reports) only for sampled packets
whose ack is missing. Communication drops to ``O(p)`` per data packet —
the lowest of the family — at the price of PAAI-2's already-slow detection
degraded by a further ``1/p`` (Table 1's Combination 2 row).

Implementation-wise this is PAAI-2's cast with (a) :class:`Combo2Source`
monitoring only sampled packets and (b) the stock
:class:`~repro.protocols.paai2.Paai2Destination` given an
``ack_predicate`` that acks only sampled packets — the same seam
Combination 1 uses on the onion destination. Forwarders are unchanged
(they cannot tell sampled packets apart and hold state for every
packet), and the source inherits PAAI-2's probe-retry path.
"""

from __future__ import annotations

from repro.net.packets import DataPacket
from repro.protocols.base import WireProtocol
from repro.protocols.combo1 import destination_keyed_sampler
from repro.protocols.paai2 import (
    Paai2Destination,
    Paai2Forwarder,
    Paai2Source,
)


class Combo2Source(Paai2Source):
    """PAAI-2 source that only monitors sampled packets."""

    def __init__(self, protocol: "Combination2Protocol") -> None:
        super().__init__(protocol)
        self.sampler = destination_keyed_sampler(protocol)

    def _after_send(self, packet: DataPacket) -> None:
        if not self.sampler.is_sampled(packet.identifier):
            return
        self.obs_sampling_hits.inc()
        super()._after_send(packet)


class Combination2Protocol(WireProtocol):
    """Wire instance of §10's Combination 2."""

    name = "combo2"
    confidence_variance_scale = staticmethod(
        lambda params: 2.0 * params.path_length
    )

    def _build_nodes(self):
        source = Combo2Source(self)
        forwarders = [
            Paai2Forwarder(self, position)
            for position in range(1, self.params.path_length)
        ]
        dest_sampler = destination_keyed_sampler(self)
        destination = Paai2Destination(
            self,
            ack_predicate=lambda packet: dest_sampler.is_sampled(packet.identifier),
        )
        return [source, *forwarders, destination]
