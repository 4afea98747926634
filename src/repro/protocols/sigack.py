"""Sig-ack: the asymmetric-cryptography AAI variant of footnote 1.

This is the full-ack protocol with every MAC replaced by a hash-based
signature (:mod:`repro.crypto.wots` / :mod:`repro.crypto.merkle`). It runs
the onion cast unchanged — :class:`~repro.protocols.fullack.FullAckSource`,
:class:`~repro.protocols.onion_common.OnionForwarder` (``e2e_policy="pop"``,
hold ``2 r0``) and :class:`~repro.protocols.onion_common.OnionDestination`
— and overrides only their authentication hooks:

* ``_ack_tag`` / ``_ack_valid``: the destination's per-packet ack is a
  signature over the identifier, checked at the source (a bad one counts
  as ``ack_signature_failure``);
* ``_wrap_report`` / ``_originate_report``: probe responses are
  *signature onions* — each node wraps the downstream report and signs
  the whole layer with its Merkle key, so any party (not just the source)
  could audit the report chain — the property asymmetric crypto buys;
* ``_verify_chain``: the source walks that chain for the report's depth.

Each node's signing pool holds ``2^h`` one-time keys; when it runs dry the
node regenerates a pool and re-registers its root (counted in
``key_regenerations`` — an operational cost symmetric protocols don't
have).

What footnote 1 dismisses, this module quantifies: a single signature is
several KiB (vs. 8-byte MACs) and costs thousands of hash evaluations, so
per-packet acks become more expensive than the data they protect. The
``sig-ack`` registry entry and its bench exist to make that comparison
concrete; detection behavior is identical to full-ack.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.merkle import (
    MerkleSigner,
    MerkleVerifier,
    decode_signature,
    encode_signature,
)
from repro.exceptions import ConfigurationError
from repro.net.packets import AckPacket
from repro.protocols.base import ProbingSource, WireProtocol
from repro.protocols.fullack import FullAckSource
from repro.protocols.onion_common import OnionDestination, OnionForwarder

_HEADER = 2 + 4 + 4  # position, payload length, inner length


class _SignerPool:
    """A node's signing identity with automatic pool regeneration."""

    def __init__(self, seed: bytes, height: int) -> None:
        self._seed = seed
        self._height = height
        self._generation = 0
        self.key_regenerations = 0
        self._signer = self._fresh()
        #: Roots in registration order; verifiers accept any of them
        #: (re-registration is assumed out-of-band and instantaneous).
        self.roots: List[bytes] = [self._signer.public_root]

    def _fresh(self) -> MerkleSigner:
        signer = MerkleSigner(
            self._seed + self._generation.to_bytes(4, "big"), height=self._height
        )
        self._generation += 1
        return signer

    def sign(self, message: bytes) -> bytes:
        if self._signer.exhausted:
            self._signer = self._fresh()
            self.roots.append(self._signer.public_root)
            self.key_regenerations += 1
        return encode_signature(self._signer.sign(message))

    def verify(self, message: bytes, blob: bytes) -> bool:
        """Check ``blob`` against the registered roots (public data)."""
        try:
            signature = decode_signature(blob)
        except ConfigurationError:
            return False
        return any(
            MerkleVerifier(root).verify(message, signature) for root in self.roots
        )


def _signed_layer(pool: _SignerPool, position: int, payload: bytes,
                  inner: bytes) -> bytes:
    """``position || len(payload) || len(inner) || payload || inner``
    followed by the node's signature over all of it."""
    body = (
        position.to_bytes(2, "big")
        + len(payload).to_bytes(4, "big")
        + len(inner).to_bytes(4, "big")
        + payload
        + inner
    )
    return body + pool.sign(body)


class SigAckSource(FullAckSource):
    """Full-ack source that checks signatures instead of MACs."""

    ack_fault = "ack_signature_failure"

    def __init__(self, protocol: "SigAckProtocol") -> None:
        # Skip FullAckSource's MAC verifier and D's MAC key: deriving them
        # costs HMAC calls and registers crypto.onion.verify.* series that
        # sig-ack never uses.
        ProbingSource.__init__(self, protocol)
        self._pools = protocol.pools

    def _ack_valid(self, ack: AckPacket) -> bool:
        dest = self._pools[self.params.path_length]
        return dest.verify(b"e2e" + ack.identifier, ack.report)

    def _verify_chain(self, report: Optional[bytes], identifier: bytes) -> int:
        """Walk the signature onion outside-in; return the effective depth."""
        depth = 0
        expected = 1
        remaining = report
        while remaining:
            if expected > self.params.path_length or len(remaining) < _HEADER:
                break
            position = int.from_bytes(remaining[0:2], "big")
            payload_len = int.from_bytes(remaining[2:6], "big")
            inner_len = int.from_bytes(remaining[6:10], "big")
            if position != expected:
                break
            end = _HEADER + payload_len + inner_len
            if len(remaining) < end:
                break
            payload = remaining[_HEADER : _HEADER + payload_len]
            if payload != identifier:
                break
            if not self._pools[position].verify(remaining[:end], remaining[end:]):
                break
            depth = position
            expected += 1
            remaining = remaining[_HEADER + payload_len : end]
        return depth


class SigAckForwarder(OnionForwarder):
    """Full-ack forwarder that signs its report layers."""

    def __init__(self, protocol: "SigAckProtocol", position: int) -> None:
        super().__init__(
            protocol, position, hold=2.0 * protocol.params.r0, e2e_policy="pop"
        )
        self.pool = protocol.pools[position]

    def _wrap_report(self, identifier: bytes, inner: bytes) -> bytes:
        return _signed_layer(self.pool, self.position, identifier, inner)

    def _originate_report(self, identifier: bytes) -> bytes:
        return _signed_layer(self.pool, self.position, identifier, b"")


class SigAckDestination(OnionDestination):
    """Full-ack destination that signs every ack and probe response."""

    def __init__(self, protocol: "SigAckProtocol") -> None:
        super().__init__(
            protocol, hold=2.0 * protocol.params.r0,
            ack_predicate=lambda packet: True,
        )
        self.pool = protocol.pools[self.position]

    def _ack_tag(self, identifier: bytes) -> bytes:
        return self.pool.sign(b"e2e" + identifier)

    def _originate_report(self, identifier: bytes) -> bytes:
        return _signed_layer(self.pool, self.position, identifier, b"")


class SigAckProtocol(WireProtocol):
    """Wire instance of the footnote-1 asymmetric AAI variant.

    Parameters
    ----------
    pool_height:
        Merkle tree height per signing pool (``2^h`` signatures before a
        regeneration).
    """

    name = "sig-ack"
    #: Draw-identical to full-ack on the wire (signatures consume no
    #: stream draws), so it shares the onion-ack fastpath replay.
    fastpath_family = "onion-ack"

    def __init__(self, *args, pool_height: int = 6, **kwargs) -> None:
        self._pool_height = pool_height
        self.pools: Dict[int, _SignerPool] = {}
        super().__init__(*args, **kwargs)

    def _build_nodes(self):
        d = self.params.path_length
        for position in range(1, d + 1):
            self.pools[position] = _SignerPool(
                self.keys.master_key(position), height=self._pool_height
            )
        source = SigAckSource(self)
        forwarders = [SigAckForwarder(self, i) for i in range(1, d)]
        destination = SigAckDestination(self)
        return [source, *forwarders, destination]

    def total_key_regenerations(self) -> int:
        return sum(pool.key_regenerations for pool in self.pools.values())
