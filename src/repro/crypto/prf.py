"""Keyed pseudorandom function.

The AAI protocols use a PRF for three purposes:

* PAAI-1's secure sampling algorithm — map a packet identifier to a Yes/No
  decision that fires with a fixed probability ``p`` and is unpredictable
  without the sampling key (§6.1 phase 1);
* PAAI-2's positional predicates ``T_i`` — map a probe challenge ``Z`` to a
  true/false decision that fires with probability ``1/(d-i+1)`` (§6.2
  phase 2);
* keystream generation for the CTR cipher in :mod:`repro.crypto.cipher`.

All three reduce to "derive a uniformly distributed value from (key,
input)". We realize the PRF as HMAC-SHA256 with domain-separation labels and
expose integer, fraction and Bernoulli output modes.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from repro.crypto.mac import hmac_pads, hmac_sha256
from repro.obs.registry import get_registry


class PRF:
    """A keyed PRF with convenience output modes.

    Parameters
    ----------
    key:
        Secret PRF key.
    label:
        Domain-separation label. Two PRFs with the same key but different
        labels produce independent-looking outputs, which is how a single
        pairwise key safely serves multiple protocol roles.
    """

    #: Number of bytes of PRF output used to build fractions; 8 bytes gives
    #: 64 bits of precision, far more than the probabilities involved need.
    _FRACTION_BYTES = 8

    def __init__(self, key: bytes, label: str = "") -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("PRF key must be bytes")
        self._key = bytes(key)
        self._prefix = label.encode() + b"\x00"
        registry = get_registry()
        self._obs_calls = (
            registry.counter("crypto.prf.calls", label=label or "(unlabeled)")
            if registry.enabled
            else None
        )

    def digest(self, data: bytes) -> bytes:
        """Return the raw 32-byte PRF output on ``data``."""
        if self._obs_calls is not None:
            self._obs_calls.inc()
        return hmac_sha256(self._key, self._prefix + bytes(data))

    def integer(self, data: bytes, modulus: int) -> int:
        """Return a PRF-derived integer in ``[0, modulus)``.

        Uses 16 bytes of output so modulo bias is negligible for any modulus
        the protocols use (moduli are at most path lengths or counters).
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        value = int.from_bytes(self.digest(data)[:16], "big")
        return value % modulus

    def fraction(self, data: bytes) -> float:
        """Return a PRF-derived float uniform in ``[0, 1)``."""
        value = int.from_bytes(self.digest(data)[: self._FRACTION_BYTES], "big")
        return value / float(1 << (8 * self._FRACTION_BYTES))

    def bernoulli(self, data: bytes, probability: float) -> bool:
        """Return True with the given probability, deterministically in ``data``.

        This is the core of both the secure sampling algorithm and the
        ``T_i`` predicates: the decision is a pure function of (key, data),
        so the keyholder can recompute it, while to anyone else it is
        indistinguishable from an independent coin flip.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.fraction(data) < probability

    def hot(self) -> "HotPRF":
        """Return a :class:`HotPRF` producing identical outputs."""
        return HotPRF(self._key, self._prefix)

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """Return ``length`` pseudorandom bytes bound to ``nonce``.

        CTR construction: block ``i`` is ``PRF(nonce || i)``. Used by
        :class:`repro.crypto.cipher.StreamCipher`.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        blocks = []
        produced = 0
        counter = 0
        while produced < length:
            block = self.digest(bytes(nonce) + counter.to_bytes(8, "big"))
            blocks.append(block)
            produced += len(block)
            counter += 1
        return b"".join(blocks)[:length]


class HotPRF:
    """Hot-loop evaluator producing bit-identical :class:`PRF` outputs.

    ``repro.crypto.mac`` builds HMAC-SHA256 from scratch per call (key
    padding plus both hash passes), which dominates profiles when a PRF is
    evaluated per packet — e.g. statfl's per-node sketch coins or
    PAAI-1's secure sampling in the fast-path replay. The RFC 2104
    construction keys both hash passes with data that depends only on
    the key (and here also the domain-separation prefix), so this class
    takes the pads from :func:`repro.crypto.mac.hmac_pads`, precomputes
    the inner/outer digest states once and pays two C-level
    ``copy()``/``update()`` rounds per evaluation. Equality with
    :meth:`PRF.fraction`/:meth:`PRF.bernoulli` is pinned by the test
    suite.

    Deliberately *not* instrumented: the ``crypto.prf.calls`` counter
    exists to audit protocol-level PRF usage on the event engine; batch
    consumers account for their own work.
    """

    __slots__ = ("_inner", "_outer")

    #: ``float(2**64)`` — exact (power of two), matching ``PRF.fraction``'s
    #: divisor for 8 fraction bytes.
    _SCALE = float(1 << 64)

    def __init__(self, key: bytes, prefix: bytes = b"") -> None:
        inner_pad, outer_pad = hmac_pads(key)
        self._inner = hashlib.sha256(inner_pad + prefix)
        self._outer = hashlib.sha256(outer_pad)

    def digest(self, data: bytes) -> bytes:
        """Raw 32-byte output, equal to ``PRF.digest`` for the same
        key/label (the prefix passed at construction must be
        ``label.encode() + b"\\x00"``, as :meth:`PRF.hot` arranges)."""
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def fraction(self, data: bytes) -> float:
        """Uniform-in-[0, 1) float, equal to :meth:`PRF.fraction`."""
        value = int.from_bytes(self.digest(data)[:8], "big")
        return value / self._SCALE

    def bernoulli(self, data: bytes, probability: float) -> bool:
        """Deterministic coin, equal to :meth:`PRF.bernoulli`.

        Inlined digest+fraction: this is the per-packet operation hot
        loops call, so it keeps to a single Python frame.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        value = int.from_bytes(outer.digest()[:8], "big")
        return value / self._SCALE < probability

    def bernoulli_many(
        self, inputs: Sequence[bytes], probability: float
    ) -> List[bool]:
        """:meth:`bernoulli` of every input, in one call.

        Each digest is compared with :func:`fraction_threshold` written as
        eight big-endian bytes and padded with zeros to the digest's
        length: byte order then equals the order of the 8-byte prefixes
        as integers, which decides exactly as ``fraction < probability``
        does.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        bound = fraction_threshold(probability).to_bytes(8, "big") + bytes(24)
        inner_copy, outer_copy = self._inner.copy, self._outer.copy
        coins = []
        for data in inputs:
            inner = inner_copy()
            inner.update(data)
            outer = outer_copy()
            outer.update(inner.digest())
            coins.append(outer.digest() < bound)
        return coins


def fraction_threshold(probability: float) -> int:
    """Smallest 8-byte value whose PRF fraction is not below ``probability``.

    :meth:`PRF.fraction` rounds the value to a double before dividing by
    ``2**64``, so the fraction only grows with the value (values within
    ``2**10`` of ``2**64`` even give 1.0). Hence ``value < threshold``
    exactly when ``value / 2**64 < probability``; the threshold is found
    by bisection on that very expression.
    """
    low, high = 0, 1 << 64
    while low < high:
        middle = (low + high) // 2
        if middle / HotPRF._SCALE < probability:
            low = middle + 1
        else:
            high = middle
    return low
