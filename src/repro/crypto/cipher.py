"""CTR-mode stream cipher built on the PRF.

PAAI-2 requires each node to *encrypt* (or re-encrypt) the report embedded
in an ack so that the identity of the selected node stays hidden from
traffic analysis (§6.2 phase 3). We build ``E_K(.)`` as a classic
counter-mode stream cipher over the PRF of :mod:`repro.crypto.prf`:

    ciphertext = nonce || (plaintext XOR PRF_K.keystream(nonce))

A fresh random nonce per encryption makes re-encryptions of the same
plaintext look unrelated on the wire — exactly the obliviousness PAAI-2
needs. Note the cipher provides confidentiality only; authenticity comes
from the MAC inside the innermost report, which is the paper's arrangement.
"""

from __future__ import annotations

import os

from repro.crypto.prf import PRF
from repro.exceptions import DecryptionError

#: Nonce length in bytes. 16 bytes keeps collision probability negligible
#: over any simulation run.
NONCE_SIZE = 16


class StreamCipher:
    """Symmetric encryption ``E_K`` used for PAAI-2 onion layers.

    Parameters
    ----------
    key:
        Encryption key (callers should pass a key derived for the
        encryption role; see :func:`repro.crypto.keys.derive_key`).
    rng:
        Optional callable ``rng(n) -> bytes`` producing nonces. Defaults to
        :func:`os.urandom`; simulations inject a deterministic source so
        runs are reproducible.
    """

    def __init__(self, key: bytes, rng=None) -> None:
        self._prf = PRF(key, label="stream-cipher")
        # Deliberate exception: the *default* entropy source is ambient
        # (real deployments want unpredictable nonces); simulations always
        # inject RngFactory.nonce_source.
        self._rng = rng if rng is not None else os.urandom  # repro: allow(DET005)

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext``; returns ``nonce || ciphertext``."""
        nonce = self._rng(NONCE_SIZE)
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce source returned {len(nonce)} bytes")
        keystream = self._prf.keystream(nonce, len(plaintext))
        return nonce + _xor(plaintext, keystream)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt`.

        Raises
        ------
        DecryptionError
            If the ciphertext is too short to contain a nonce. Any other
            corruption yields garbage plaintext by design (CTR mode is not
            authenticated); the protocol detects that via the inner MAC.
        """
        if len(ciphertext) < NONCE_SIZE:
            raise DecryptionError(
                f"ciphertext shorter than nonce ({len(ciphertext)} bytes)"
            )
        nonce, body = ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:]
        keystream = self._prf.keystream(nonce, len(body))
        return _xor(body, keystream)


def _xor(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR ``keystream`` (of equal length) as one integer
    operation, not a per-byte loop."""
    size = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(size, "big")
