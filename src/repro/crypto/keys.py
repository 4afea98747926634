"""Pairwise key management.

§3.2: the source shares a pairwise symmetric key ``K_i`` with each
intermediate node and the destination. §3.3 notes that in practice separate
keys would be derived for encryption and MAC computation; we do exactly
that, deriving role-specific subkeys from each pairwise master key with the
PRF.

The :class:`KeyManager` plays the part of the security infrastructure the
paper assumes pre-exists (e.g., installed by the routing protocol's key
exchange). Simulations create one manager per path and hand each node its
own keys; the source keeps the full table.
"""

from __future__ import annotations

from typing import Dict, List

from repro.crypto.prf import PRF
from repro.exceptions import ConfigurationError, KeyError_

#: Byte length of generated and derived keys.
KEY_SIZE = 32

#: Seed every simulated path's keys derive from. The wire engines share
#: it, so the fastpath's PRF coins equal the event engine's.
DEFAULT_KEY_SEED = b"repro-key-seed"


def derive_key(master: bytes, role: str) -> bytes:
    """Derive a role-specific subkey from a pairwise master key.

    ``role`` is a free-form label ("mac", "enc", "sample", ...). Distinct
    roles yield computationally independent keys through PRF domain
    separation.
    """
    if not role:
        raise ConfigurationError("role label must be non-empty")
    return PRF(master, label="key-derivation").digest(role.encode())[:KEY_SIZE]


class KeyManager:
    """Key table for one monitored path.

    Parameters
    ----------
    path_length:
        Path length ``d``; pairwise keys exist for nodes ``1..d`` (the
        destination is node ``d``).
    seed:
        Deterministic seed for key generation so simulation runs are
        reproducible. Real deployments would use a key-exchange protocol;
        the derivation below stands in for it.
    """

    def __init__(self, path_length: int, seed: bytes = DEFAULT_KEY_SEED) -> None:
        if path_length <= 0:
            raise ConfigurationError("path length must be positive")
        self._path_length = path_length
        root = PRF(seed, label="pairwise-keygen")
        self._masters: Dict[int, bytes] = {
            i: root.digest(i.to_bytes(4, "big"))[:KEY_SIZE]
            for i in range(1, path_length + 1)
        }
        # The source's private sampling key (PAAI-1 SS algorithm) is shared
        # with no one.
        self._source_sampling_key = root.digest(b"source-sampling")[:KEY_SIZE]

    @property
    def path_length(self) -> int:
        """Path length ``d`` this manager serves."""
        return self._path_length

    @property
    def source_sampling_key(self) -> bytes:
        """The source-only key driving PAAI-1's secure sampling."""
        return self._source_sampling_key

    def master_key(self, node: int) -> bytes:
        """Return the pairwise master key ``K_i`` for node ``i``."""
        try:
            return self._masters[node]
        except KeyError as exc:
            raise KeyError_(f"no pairwise key for node {node}") from exc

    def mac_key(self, node: int) -> bytes:
        """Return the MAC subkey for node ``i``."""
        return derive_key(self.master_key(node), "mac")

    def encryption_key(self, node: int) -> bytes:
        """Return the encryption subkey for node ``i`` (PAAI-2 layers)."""
        return derive_key(self.master_key(node), "enc")

    def selection_key(self, node: int) -> bytes:
        """Return the subkey node ``i`` uses for its ``T_i`` predicate."""
        return derive_key(self.master_key(node), "select")

    def all_mac_keys(self) -> List[bytes]:
        """MAC subkeys for nodes ``1..d`` in path order (source's view)."""
        return [self.mac_key(i) for i in range(1, self._path_length + 1)]

    def all_selection_keys(self) -> List[bytes]:
        """Selection subkeys for nodes ``1..d`` in path order."""
        return [self.selection_key(i) for i in range(1, self._path_length + 1)]
