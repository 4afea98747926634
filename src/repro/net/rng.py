"""Deterministic, labeled random streams.

Simulation components (each link's loss draws, each link's latency draws,
the adversary's coin flips, nonce generation, ...) each get an independent
``random.Random`` stream derived from a single experiment seed and a label.
Two properties matter:

* **reproducibility** — rerunning an experiment with the same seed yields
  identical packet-level behavior;
* **stream independence** — adding draws to one component never perturbs
  another component's stream, so scenario variants stay comparable.
"""

from __future__ import annotations

import hashlib  # repro: allow(CB001) -- seed/stream derivation, not protocol crypto
import itertools
import random
from typing import Iterator


class RngFactory:
    """Derives independent ``random.Random`` streams from one seed.

    >>> factory = RngFactory(seed=7)
    >>> a = factory.stream("link-0")
    >>> b = factory.stream("link-1")
    >>> a.random() != b.random()
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root experiment seed."""
        return self._seed

    def stream_seed(self, label: str) -> int:
        """Integer seed of the ``label`` stream.

        Exposed so alternative draw engines (``repro.net.fastpath``) can
        reproduce a stream's exact sequence without going through
        ``random.Random``.
        """
        material = f"{self._seed}:{label}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, label: str) -> random.Random:
        """Return a fresh stream for ``label`` (same label -> same stream)."""
        return random.Random(self.stream_seed(label))

    def nonce_source(self, label: str):
        """Return an ``rng(n) -> bytes`` callable for cipher nonces."""
        getrandbits = self.stream(f"nonce:{label}").getrandbits

        def rng(size: int) -> bytes:
            # One 8-bit draw per byte, iterated in C.
            return bytes(map(getrandbits, itertools.repeat(8, size)))

        return rng

    def spawn(self, label: str) -> "RngFactory":
        """Derive a sub-factory (e.g., one per simulation run)."""
        material = f"{self._seed}:spawn:{label}".encode()
        digest = hashlib.sha256(material).digest()
        return RngFactory(int.from_bytes(digest[:8], "big"))

    def seeds(self, count: int) -> Iterator[int]:
        """Yield ``count`` independent integer seeds (for batched runs)."""
        for index in range(count):
            yield self.spawn(f"run-{index}").seed
