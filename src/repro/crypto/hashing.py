"""Collision-resistant hashing and packet identifiers.

The paper uses ``H(m)``, the hash of a data packet ``m``, as the packet
identifier carried by probes and acks. We use SHA-256: 32-byte identifiers
make accidental collisions irrelevant at simulation scale and the identifier
doubles as a compact dictionary key inside node packet stores.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence


def hash_bytes(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``.

    This is the collision-resistant hash function ``h`` of §3.2.

    >>> len(hash_bytes(b"packet"))
    32
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"hash input must be bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


def _identifier_preimage(payload: bytes, timestamp: float) -> bytes:
    """The injective encoding of ``m = <data || timestamp>`` behind ``H(m)``."""
    encoded_time = repr(float(timestamp)).encode("ascii")
    # Length-prefix the payload so (payload, timestamp) parsing is unique.
    header = len(payload).to_bytes(8, "big")
    return header + bytes(payload) + encoded_time


def packet_identifier(payload: bytes, timestamp: float) -> bytes:
    """Return the identifier ``H(m)`` for a data packet.

    A data packet in the paper is ``m = <data || timestamp>``; both parts
    feed the identifier so a replayed payload with a fresh timestamp maps to
    a new identifier. The timestamp is encoded with fixed width so the
    encoding is injective.

    Parameters
    ----------
    payload:
        The application payload carried by the packet.
    timestamp:
        The source timestamp embedded in the packet (seconds).
    """
    return hash_bytes(_identifier_preimage(payload, timestamp))


def packet_identifiers(
    payloads: Sequence[bytes], timestamps: Sequence[float]
) -> List[bytes]:
    """:func:`packet_identifier` of each ``(payload, timestamp)`` pair.

    The batch form for replays that identify many packets at once: same
    encoding, one call instead of one per packet.
    """
    if len(payloads) != len(timestamps):
        raise ValueError("payloads and timestamps differ in length")
    sha256 = hashlib.sha256
    return [
        sha256(_identifier_preimage(payload, timestamp)).digest()
        for payload, timestamp in zip(payloads, timestamps)
    ]


def truncate(digest: bytes, size: int) -> bytes:
    """Truncate ``digest`` to ``size`` bytes (for compact wire formats)."""
    if size <= 0 or size > len(digest):
        raise ValueError(f"invalid truncation size {size} for {len(digest)}-byte digest")
    return digest[:size]
