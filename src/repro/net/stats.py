"""Statistics collection for links and paths.

The evaluation needs three families of numbers:

* per-link transmission/loss counts split by packet kind and by cause
  (natural vs. adversarial) — ground truth against which the protocols'
  inferred drop scores are judged;
* communication overhead — bytes and packets of protocol traffic (probes
  and acks) per data packet, the Table 1 column;
* end-to-end delivery counts — the source's observed drop rate ψ.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.packets import Direction, Packet, PacketKind


@dataclass
class LinkStats:
    """Counters for one link (both directions pooled unless split).

    :meth:`repro.net.link.Link.transmit` updates them in place, keyed
    ``(kind, wire direction)``; ``bytes_sent`` is keyed by kind.
    """

    transmissions: Counter = field(default_factory=Counter)
    natural_losses: Counter = field(default_factory=Counter)
    bytes_sent: Counter = field(default_factory=Counter)

    def total_transmissions(self) -> int:
        return sum(self.transmissions.values())

    def total_natural_losses(self) -> int:
        return sum(self.natural_losses.values())

    def loss_rate(self) -> float:
        """Empirical natural loss rate across all traffic on this link."""
        sent = self.total_transmissions()
        return self.total_natural_losses() / sent if sent else 0.0


@dataclass
class NodeDropStats:
    """Counters for one (malicious) node's deliberate drops."""

    drops: Counter = field(default_factory=Counter)

    def record(self, packet: Packet, direction: Direction) -> None:
        self.drops[(packet.kind, direction)] += 1

    def total(self) -> int:
        return sum(self.drops.values())


class PathStats:
    """Aggregated statistics for one monitored path."""

    def __init__(self, length: int) -> None:
        self.length = length
        self.links: List[LinkStats] = [LinkStats() for _ in range(length)]
        self.node_drops: Dict[int, NodeDropStats] = {}
        #: Source-side counters.
        self.data_sent = 0
        self.data_delivered = 0
        #: Protocol traffic accounting (bytes), split by kind.
        self.overhead_bytes: Counter = Counter()
        self.overhead_packets: Counter = Counter()
        self.data_bytes = 0

    def record_data_sent(self, size: int) -> None:
        self.data_sent += 1
        self.data_bytes += size

    def record_data_delivered(self) -> None:
        self.data_delivered += 1

    def record_overhead(self, packet: Packet) -> None:
        """Count a non-data packet entering the network."""
        if packet.kind is PacketKind.DATA:
            return
        self.overhead_bytes[packet.kind] += packet.size
        self.overhead_packets[packet.kind] += 1

    def node_drop_stats(self, position: int) -> NodeDropStats:
        return self.node_drops.setdefault(position, NodeDropStats())

    @property
    def end_to_end_drop_rate(self) -> float:
        """Observed ψ: fraction of data packets that never reached D."""
        if self.data_sent == 0:
            return 0.0
        return 1.0 - self.data_delivered / self.data_sent

    def overhead_ratio(self) -> float:
        """Protocol bytes per data byte — the §9 'additional overhead'."""
        if self.data_bytes == 0:
            return 0.0
        return sum(self.overhead_bytes.values()) / self.data_bytes

    def true_malicious_drops(self) -> int:
        """Total deliberate drops across all adversarial nodes."""
        return sum(stats.total() for stats in self.node_drops.values())
