"""Tests for the from-scratch HMAC-SHA256 and truncated MACs."""

import hashlib  # repro: allow(CB001) -- stdlib reference

import pytest

from repro.crypto.mac import hmac_pads, hmac_sha256, mac, verify_mac


class TestHmacRfc4231Vectors:
    """RFC 4231 test vectors for HMAC-SHA256."""

    def test_case_1(self):
        key = bytes.fromhex("0b" * 20)
        data = b"Hi There"
        expected = bytes.fromhex(
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )
        assert hmac_sha256(key, data) == expected

    def test_case_2(self):
        key = b"Jefe"
        data = b"what do ya want for nothing?"
        expected = bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )
        assert hmac_sha256(key, data) == expected

    def test_case_3(self):
        key = bytes.fromhex("aa" * 20)
        data = bytes.fromhex("dd" * 50)
        expected = bytes.fromhex(
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        )
        assert hmac_sha256(key, data) == expected

    def test_case_4(self):
        key = bytes.fromhex("0102030405060708090a0b0c0d0e0f10111213141516171819")
        data = bytes.fromhex("cd" * 50)
        expected = bytes.fromhex(
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        )
        assert hmac_sha256(key, data) == expected

    def test_case_6_long_key(self):
        key = bytes.fromhex("aa" * 131)
        data = b"Test Using Larger Than Block-Size Key - Hash Key First"
        expected = bytes.fromhex(
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )
        assert hmac_sha256(key, data) == expected

    def test_case_7_long_key_long_data(self):
        key = bytes.fromhex("aa" * 131)
        data = (
            b"This is a test using a larger than block-size key and a larger "
            b"than block-size data. The key needs to be hashed before being "
            b"used by the HMAC algorithm."
        )
        expected = bytes.fromhex(
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        )
        assert hmac_sha256(key, data) == expected


class TestHmacAgainstStdlib:
    """Cross-check against the stdlib for assorted key/message sizes."""

    @pytest.mark.parametrize("key_len", [0, 1, 31, 32, 63, 64, 65, 200])
    @pytest.mark.parametrize("msg_len", [0, 1, 64, 1000])
    def test_matches_stdlib(self, key_len, msg_len):
        import hmac as stdlib_hmac  # repro: allow(CB001) -- stdlib reference

        key = bytes(range(256))[:key_len] if key_len else b""
        msg = (b"\xa5" * msg_len)
        expected = stdlib_hmac.new(key, msg, hashlib.sha256).digest()
        assert hmac_sha256(key, msg) == expected


class TestHmacPads:
    def test_pads_are_the_rfc2104_xor_of_the_padded_key(self):
        for key in (b"", b"Jefe", bytes(range(64)), bytes(range(200))):
            block = hashlib.sha256(key).digest() if len(key) > 64 else key
            block = block.ljust(64, b"\x00")
            inner, outer = hmac_pads(key)
            assert inner == bytes(b ^ 0x36 for b in block)
            assert outer == bytes(b ^ 0x5C for b in block)

    def test_bytearray_key_matches_bytes_key(self):
        assert hmac_pads(bytearray(b"key")) == hmac_pads(b"key")


class TestTruncatedMac:
    def test_default_size(self):
        tag = mac(b"key", b"message")
        assert len(tag) == 8

    def test_prefix_of_full_hmac(self):
        assert mac(b"key", b"message", size=12) == hmac_sha256(b"key", b"message")[:12]

    def test_verify_roundtrip(self):
        tag = mac(b"key", b"message")
        assert verify_mac(b"key", b"message", tag)

    def test_verify_rejects_wrong_key(self):
        tag = mac(b"key", b"message")
        assert not verify_mac(b"other-key", b"message", tag)

    def test_verify_rejects_altered_message(self):
        tag = mac(b"key", b"message")
        assert not verify_mac(b"key", b"messagf", tag)

    def test_verify_rejects_altered_tag(self):
        tag = bytearray(mac(b"key", b"message"))
        tag[0] ^= 1
        assert not verify_mac(b"key", b"message", bytes(tag))

    def test_verify_rejects_empty_tag(self):
        assert not verify_mac(b"key", b"message", b"")

    @pytest.mark.parametrize("tag", [
        b"x" * 33,
        b"x" * 40,
        hmac_sha256(b"k", b"m") + b"\x00",
    ], ids=["33", "40", "digest+1"])
    def test_verify_rejects_oversized_tag_without_raising(self, tag):
        # A tag longer than the digest cannot be a truncated HMAC; off the
        # wire it is a forgery, not a caller error.
        assert not verify_mac(b"k", b"m", tag)

    def test_prefix_property_of_truncation(self):
        # A shorter truncated tag is a prefix of a longer one, so verification
        # at the shorter length succeeds: tag length is a protocol parameter,
        # not an authenticated field.
        tag = mac(b"key", b"message", size=8)
        assert verify_mac(b"key", b"message", tag[:4])

    @pytest.mark.parametrize("size", [0, -1, 33])
    def test_invalid_sizes_rejected(self, size):
        with pytest.raises(ValueError):
            mac(b"key", b"message", size=size)

    def test_type_errors(self):
        with pytest.raises(TypeError):
            hmac_sha256("not-bytes", b"m")
        with pytest.raises(TypeError):
            hmac_sha256(b"k", "not-bytes")
