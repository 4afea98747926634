"""Packet taxonomy.

The protocols exchange exactly three packet kinds (§5): *data* packets from
the source, *probes* (ack requests) from the source, and *acks* carrying
reports back toward the source. §5 also fixes the adversary-facing
semantics: altering a packet is equivalent to dropping it, so packets carry
enough structure for the crypto layer to detect alteration, and the scoring
layer treats both events identically.

Sizes are modeled explicitly (bytes) because Table 1's communication
overhead column is measured in packet sizes: O(1) acks vs O(d) onion
reports matter to the reproduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.constants import DEFAULT_PACKET_SIZE, IDENTIFIER_SIZE
from repro.crypto.hashing import packet_identifier


class PacketKind(enum.Enum):
    """Wire-level packet category."""

    DATA = "data"
    PROBE = "probe"
    ACK = "ack"

    # Members are singletons compared by identity, so an identity hash is
    # consistent with equality, and it runs in C; Enum's default hashes
    # the name in Python on every ``(kind, direction)`` dict lookup on the
    # per-packet path. Neither hash is stable across processes, so no
    # output may depend on it.
    __hash__ = object.__hash__


class Direction(enum.Enum):
    """Travel direction on the (symmetric) path."""

    FORWARD = "forward"  # toward the destination
    REVERSE = "reverse"  # toward the source

    __hash__ = object.__hash__  # See PacketKind.


#: The members as module constants. Reading a member off its class
#: (``Direction.FORWARD``) goes through ``EnumType.__getattr__``'s lookup
#: hook and costs several times a global load, so the per-packet path
#: (packet constructors, node egress, agent dispatch) reads these.
DATA, PROBE, ACK = PacketKind.DATA, PacketKind.PROBE, PacketKind.ACK
FORWARD, REVERSE = Direction.FORWARD, Direction.REVERSE


@dataclass
class Packet:
    """Base packet: every packet carries the data-packet identifier it
    concerns, a size for overhead accounting, and a monotone sequence
    number assigned by the source for tracing."""

    identifier: bytes
    size: int
    sequence: int = 0

    kind: PacketKind = field(init=False)

    def __post_init__(self) -> None:
        self.kind = DATA  # overridden by subclasses


@dataclass
class DataPacket(Packet):
    """A source data packet ``m = <data || timestamp>``.

    ``timestamp`` is the source clock reading embedded for the freshness
    check of PAAI phase 1.
    """

    payload: bytes = b""
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        self.kind = DATA

    @classmethod
    def create(
        cls,
        payload: bytes,
        timestamp: float,
        sequence: int = 0,
        size: int = DEFAULT_PACKET_SIZE,
    ) -> "DataPacket":
        """Build a data packet, deriving its identifier ``H(m)``."""
        return cls(
            identifier=packet_identifier(payload, timestamp),
            size=size,
            sequence=sequence,
            payload=payload,
            timestamp=timestamp,
        )


@dataclass
class ProbePacket(Packet):
    """An ack request for an earlier data packet.

    ``challenge`` carries PAAI-2's random challenge ``Z`` (empty for
    protocols that do not use one). ``hop_macs`` optionally carries the
    footnote-7 per-hop authentication chain; when present the probe is
    O(d)-sized, which the size accounting reflects.
    """

    challenge: bytes = b""
    hop_macs: tuple = ()

    def __post_init__(self) -> None:
        self.kind = PROBE

    @classmethod
    def create(
        cls,
        identifier: bytes,
        sequence: int = 0,
        challenge: bytes = b"",
        hop_macs: tuple = (),
    ) -> "ProbePacket":
        size = IDENTIFIER_SIZE + len(challenge) + sum(len(t) for t in hop_macs)
        return cls(
            identifier=identifier,
            size=size,
            sequence=sequence,
            challenge=challenge,
            hop_macs=hop_macs,
        )


@dataclass
class AckPacket(Packet):
    """An acknowledgment ``a_i = <H(m) || A_i>``.

    ``report`` is the opaque report blob ``A_i`` — an onion report
    (full-ack, PAAI-1), an oblivious ciphertext (PAAI-2), or a bare MAC tag
    (end-to-end acks). ``origin`` records the position of the node that
    most recently built/rebuilt the report, for tracing only (the wire
    format of PAAI-2 would not reveal it).
    """

    report: bytes = b""
    origin: int = 0
    #: False for plain end-to-end acks ``a_d``; True for report-carrying
    #: acks produced in a probe round (onion or oblivious reports). On a
    #: real wire this is a type bit in the ack header.
    is_report: bool = False

    def __post_init__(self) -> None:
        self.kind = ACK

    @classmethod
    def create(
        cls,
        identifier: bytes,
        report: bytes,
        origin: int,
        sequence: int = 0,
        is_report: bool = False,
    ) -> "AckPacket":
        return cls(
            identifier=identifier,
            size=IDENTIFIER_SIZE + len(report),
            sequence=sequence,
            report=report,
            origin=origin,
            is_report=is_report,
        )


def clone_with_report(ack: AckPacket, report: bytes, origin: int) -> AckPacket:
    """Return a copy of ``ack`` carrying a transformed report.

    Used on the return path where every hop rewrites the report (onion
    wrapping or oblivious re-encryption) while the identifier and sequence
    are preserved.
    """
    return AckPacket.create(
        identifier=ack.identifier,
        report=report,
        origin=origin,
        sequence=ack.sequence,
        is_report=ack.is_report,
    )
