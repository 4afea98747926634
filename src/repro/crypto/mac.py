"""Message authentication codes.

Implements HMAC-SHA256 from the RFC 2104 construction::

    HMAC(K, m) = H((K' xor opad) || H((K' xor ipad) || m))

rather than delegating to the :mod:`hmac` stdlib module, since the paper's
protocols are specified directly in terms of a MAC primitive and the
reproduction builds its substrates from scratch. The implementation is
validated against the RFC 4231 test vectors in the test suite.

``[m]_K`` in the paper denotes ``m`` together with a MAC over ``m`` under
``K``; the :func:`mac` / :func:`verify_mac` pair provides the truncated MAC
used inside onion reports.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

from repro.constants import MAC_SIZE
from repro.obs.registry import TIME_BUCKETS, get_registry

_BLOCK_SIZE = 64  # SHA-256 block size in bytes.
_MAX_TAG = 32  # SHA-256 digest size in bytes.

#: ``key.translate(table)`` XORs every key byte with the RFC 2104 pad byte
#: in one C-level pass.
_IPAD_TABLE = bytes(byte ^ 0x36 for byte in range(256))
_OPAD_TABLE = bytes(byte ^ 0x5C for byte in range(256))

#: (registry, calls counter, seconds histogram) — rebound when the active
#: registry changes so instruments always land in the current one.
_OBS_CACHE = (None, None, None)


def _obs_instruments(registry):
    global _OBS_CACHE
    cached, calls, seconds = _OBS_CACHE
    if cached is not registry:
        calls = registry.counter("crypto.hmac.calls")
        seconds = registry.histogram("crypto.hmac.seconds", buckets=TIME_BUCKETS)
        _OBS_CACHE = (registry, calls, seconds)
    return calls, seconds


def hmac_pads(key: bytes) -> tuple[bytes, bytes]:
    """The ``(K' xor ipad, K' xor opad)`` block pair that keys the inner
    and outer hash passes of HMAC-SHA256 under ``key``."""
    key = bytes(key)
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return key.translate(_IPAD_TABLE), key.translate(_OPAD_TABLE)


#: Most keys whose precomputed hash states :data:`_KEY_STATES` holds. A
#: path of length ``d`` uses a few keys per node; the bound only stops a
#: long-lived process that mints keys forever from growing without limit.
KEY_STATE_CAP = 4096

#: key -> (inner, outer) SHA-256 states that have already absorbed the
#: ``K' xor ipad`` / ``K' xor opad`` blocks. The states are a pure
#: function of the key, so the cache never changes a digest; when full
#: it drops its oldest key.
_KEY_STATES: dict = {}


def _cache_key_states(key: bytes) -> tuple:
    """Build and cache the ``(inner, outer)`` states of ``key``."""
    if len(_KEY_STATES) >= KEY_STATE_CAP:
        _KEY_STATES.pop(next(iter(_KEY_STATES)), None)
    inner_pad, outer_pad = hmac_pads(key)
    states = (hashlib.sha256(inner_pad), hashlib.sha256(outer_pad))
    _KEY_STATES[key] = states
    return states


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)):
        raise TypeError("key must be bytes")
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("message must be bytes")
    key = bytes(key)
    states = _KEY_STATES.get(key)
    if states is None:
        states = _cache_key_states(key)
    inner = states[0].copy()
    inner.update(message)
    outer = states[1].copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return the full 32-byte HMAC-SHA256 of ``message`` under ``key``."""
    registry = get_registry()
    if not registry.enabled:
        return _hmac_sha256(key, message)
    calls, seconds = _obs_instruments(registry)
    start = perf_counter()
    digest = _hmac_sha256(key, message)
    seconds.observe(perf_counter() - start)
    calls.inc()
    return digest


def mac(key: bytes, message: bytes, size: int = MAC_SIZE) -> bytes:
    """Return a ``size``-byte MAC tag over ``message``.

    Truncation of HMAC output is the standard way to trade tag size against
    forgery probability (2^-64 for the default 8-byte tags — far below the
    false-positive rates the protocols tolerate).
    """
    if size <= 0 or size > _MAX_TAG:
        raise ValueError(f"MAC size must be in [1, {_MAX_TAG}], got {size}")
    return hmac_sha256(key, message)[:size]


def verify_mac(key: bytes, message: bytes, tag: bytes) -> bool:
    """Check ``tag`` against the MAC of ``message`` under ``key``.

    Comparison is constant-time in the tag length to mirror real
    implementations (irrelevant for simulation results, cheap to do right).
    An empty tag, or one longer than an HMAC-SHA256 digest, is simply
    invalid: a malformed tag read off the wire must count as a forgery,
    not raise.
    """
    if not tag or len(tag) > _MAX_TAG:
        return False
    expected = mac(key, message, size=len(tag))
    result = 0
    for x, y in zip(expected, tag):
        result |= x ^ y
    return result == 0
