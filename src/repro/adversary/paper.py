"""The paper's evaluation adversary (§8.1 tactics (a) and (b)).

The malicious node drops the *throughput-relevant* traffic flowing through
it — data packets and probes at egress, end-to-end acks at ingress — each
at the same rate, while answering ack requests (probes) and handling
report acks honestly, "as if it were functioning correctly". Two details
make this the configuration under which *all* of the node's malicious
activity lands on its downstream adjacent link ``l_i``:

* forward drops (data, probes) happen at egress onto ``l_i``: the first
  node without state is ``F_{i+1}``, so onion cutoffs blame ``l_i``;
* e2e-ack drops happen at *ingress*: the node keeps its own per-packet
  state (it pretends it never saw the ack), so a later probe still finds
  it responsive — the onion stops at the popped ``F_{i+1}``, and the
  drop is charged to ``l_i`` again. Observationally this is identical to
  a natural reverse loss on ``l_i``, which is exactly how the outcome
  models account for it (the ``b_ack`` rate array).

Report acks are never touched (tactic (b)), so the blame for this node
never leaks onto its upstream link.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.adversary.base import AdversaryStrategy
from repro.exceptions import ConfigurationError
from repro.net.packets import (
    ACK,
    DATA,
    FORWARD,
    PROBE,
    REVERSE,
    Direction,
    Packet,
)


class PaperTacticAdversary(AdversaryStrategy):
    """§8.1's malicious node: rate ``beta`` on data/probes (egress) and on
    e2e acks (ingress); honest on report acks."""

    def __init__(self, rate: float, rng: random.Random) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"drop rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = rng

    def process(self, node, packet: Packet, direction: Direction) -> Optional[Packet]:
        if direction is FORWARD and packet.kind in (DATA, PROBE):
            if self.rate > 0.0 and self._rng.random() < self.rate:
                self._drop(packet, direction)
                return None
        return packet

    def process_ingress(
        self, node, packet: Packet, direction: Direction
    ) -> Optional[Packet]:
        if (
            direction is REVERSE
            and packet.kind is ACK
            and not getattr(packet, "is_report", False)
        ):
            if self.rate > 0.0 and self._rng.random() < self.rate:
                self._drop(packet, direction)
                return None
        return packet

    def bypass(self) -> None:
        """Stop all malicious behavior (source rerouted around the node)."""
        self.rate = 0.0
