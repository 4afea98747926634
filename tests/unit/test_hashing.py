"""Tests for packet identifiers and hashing."""

import hashlib  # repro: allow(CB001) -- stdlib reference

import pytest

from repro.crypto.hashing import (
    hash_bytes,
    packet_identifier,
    packet_identifiers,
    truncate,
)


class TestHashBytes:
    def test_matches_sha256(self):
        assert hash_bytes(b"packet") == hashlib.sha256(b"packet").digest()

    def test_empty_input(self):
        assert hash_bytes(b"") == hashlib.sha256(b"").digest()

    def test_accepts_bytearray(self):
        assert hash_bytes(bytearray(b"abc")) == hashlib.sha256(b"abc").digest()

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            hash_bytes("not bytes")


class TestPacketIdentifier:
    def test_deterministic(self):
        a = packet_identifier(b"payload", 1.5)
        b = packet_identifier(b"payload", 1.5)
        assert a == b

    def test_timestamp_matters(self):
        assert packet_identifier(b"payload", 1.5) != packet_identifier(b"payload", 2.5)

    def test_payload_matters(self):
        assert packet_identifier(b"a", 1.0) != packet_identifier(b"b", 1.0)

    def test_no_concatenation_ambiguity(self):
        # (b"ab", then timestamp encoding) must not collide with (b"a", ...).
        assert packet_identifier(b"ab", 1.0) != packet_identifier(b"a", 1.0)

    def test_size(self):
        assert len(packet_identifier(b"x", 0.0)) == 32

    def test_int_timestamp_normalized(self):
        assert packet_identifier(b"x", 1) == packet_identifier(b"x", 1.0)

    def test_batch_equals_single(self):
        payloads = [b"data-%016d" % index for index in range(50)] + [b""]
        timestamps = [index * 0.3 for index in range(50)] + [7]
        assert packet_identifiers(payloads, timestamps) == [
            packet_identifier(payload, timestamp)
            for payload, timestamp in zip(payloads, timestamps)
        ]
        assert packet_identifiers([], []) == []

    def test_batch_rejects_ragged_inputs(self):
        with pytest.raises(ValueError):
            packet_identifiers([b"a", b"b"], [1.0])


class TestTruncate:
    def test_basic(self):
        digest = hash_bytes(b"x")
        assert truncate(digest, 8) == digest[:8]

    @pytest.mark.parametrize("size", [0, -1, 33])
    def test_invalid(self, size):
        with pytest.raises(ValueError):
            truncate(hash_bytes(b"x"), size)
