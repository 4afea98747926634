"""Property-based tests (hypothesis) for the crypto substrate."""

import hashlib  # repro: allow(CB001) -- stdlib reference
import hmac as stdlib_hmac  # repro: allow(CB001) -- stdlib reference

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import NONCE_SIZE, StreamCipher
from repro.crypto.keys import KeyManager
from repro.crypto.mac import hmac_sha256, mac, verify_mac
from repro.crypto.oblivious import ObliviousDecoder, ObliviousReport
from repro.crypto.onion import OnionReport, OnionVerifier
from repro.crypto.prf import PRF

keys = st.binary(min_size=0, max_size=100)
messages = st.binary(min_size=0, max_size=500)
payloads = st.binary(min_size=0, max_size=64)


class TestHmacProperties:
    @given(key=keys, message=messages)
    def test_matches_stdlib_everywhere(self, key, message):
        expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected

    @given(key=keys, message=messages, size=st.integers(1, 32))
    def test_truncation_is_prefix(self, key, message, size):
        assert mac(key, message, size) == hmac_sha256(key, message)[:size]

    @given(key=keys, message=messages, size=st.integers(1, 32))
    def test_verify_accepts_own_tag(self, key, message, size):
        assert verify_mac(key, message, mac(key, message, size))

    @given(key=keys, message=messages, flip=st.integers(0, 7))
    def test_verify_rejects_any_single_bit_flip(self, key, message, flip):
        tag = bytearray(mac(key, message))
        tag[flip] ^= 1 << (flip % 8) or 1
        assert not verify_mac(key, message, bytes(tag))


class TestCipherProperties:
    @given(key=st.binary(min_size=1, max_size=64), plaintext=messages)
    def test_roundtrip(self, key, plaintext):
        cipher = StreamCipher(key)
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    @given(key=st.binary(min_size=1, max_size=64), plaintext=messages)
    def test_length_overhead_is_exactly_nonce(self, key, plaintext):
        cipher = StreamCipher(key)
        assert len(cipher.encrypt(plaintext)) == len(plaintext) + NONCE_SIZE

    @given(
        key=st.binary(min_size=1, max_size=64),
        nonce=st.binary(min_size=1, max_size=32),
        length=st.integers(0, 200),
        prefix=st.integers(0, 200),
    )
    def test_keystream_prefix_consistency(self, key, nonce, length, prefix):
        prf = PRF(key, label="ks")
        shorter = min(length, prefix)
        assert prf.keystream(nonce, length)[:shorter] == prf.keystream(
            nonce, shorter
        )


class TestPrfProperties:
    @given(key=st.binary(min_size=1, max_size=64), data=messages,
           modulus=st.integers(1, 10_000))
    def test_integer_in_range(self, key, data, modulus):
        value = PRF(key).integer(data, modulus)
        assert 0 <= value < modulus

    @given(key=st.binary(min_size=1, max_size=64), data=messages)
    def test_fraction_in_unit_interval(self, key, data):
        value = PRF(key).fraction(data)
        assert 0.0 <= value < 1.0

    @given(key=st.binary(min_size=1, max_size=64), data=messages)
    def test_deterministic(self, key, data):
        prf = PRF(key, label="det")
        assert prf.digest(data) == prf.digest(data)


class TestOnionProperties:
    @settings(max_examples=25)
    @given(
        depth=st.integers(1, 8),
        path_length=st.integers(1, 8),
        payload=payloads,
    )
    def test_honest_chain_verifies_to_its_origin(self, depth, path_length, payload):
        depth = min(depth, path_length)
        manager = KeyManager(path_length=path_length, seed=b"prop")
        report = OnionReport.originate(depth, payload, manager.mac_key(depth))
        for node in range(depth - 1, 0, -1):
            report = OnionReport.wrap(node, payload, report, manager.mac_key(node))
        verdict = OnionVerifier(manager.all_mac_keys()).verify(report)
        assert verdict.deepest_valid == depth
        assert verdict.complete
        assert all(layer.payload == payload for layer in verdict.layers)

    @settings(max_examples=25)
    @given(
        depth=st.integers(2, 6),
        corrupt_at=st.integers(0, 10_000),
        payload=payloads,
    )
    def test_any_corruption_reduces_depth_or_is_detected(
        self, depth, corrupt_at, payload
    ):
        manager = KeyManager(path_length=6, seed=b"prop2")
        report = OnionReport.originate(depth, payload, manager.mac_key(depth))
        for node in range(depth - 1, 0, -1):
            report = OnionReport.wrap(node, payload, report, manager.mac_key(node))
        mangled = bytearray(report)
        mangled[corrupt_at % len(mangled)] ^= 0xA5
        verdict = OnionVerifier(manager.all_mac_keys()).verify(bytes(mangled))
        # A corrupted report can never verify deeper than the honest one,
        # and cannot verify completely to the same depth.
        assert verdict.deepest_valid <= depth
        assert not (verdict.complete and verdict.deepest_valid == depth) or (
            # unless the flip hit a length prefix making a shorter valid
            # parse impossible — in which case depth must have shrunk
            verdict.deepest_valid < depth
        )


class TestObliviousProperties:
    @settings(max_examples=25)
    @given(
        selected=st.integers(1, 6),
        challenge=st.binary(min_size=1, max_size=64),
        ack=st.one_of(st.none(), st.binary(min_size=0, max_size=32)),
    )
    def test_roundtrip_matches(self, selected, challenge, ack):
        manager = KeyManager(path_length=6, seed=b"prop3")
        decoder = ObliviousDecoder(
            [manager.encryption_key(i) for i in range(1, 7)],
            [manager.mac_key(i) for i in range(1, 7)],
        )
        report = ObliviousReport.originate(
            selected, challenge, ack,
            manager.mac_key(selected), manager.encryption_key(selected),
        )
        for node in range(selected - 1, 0, -1):
            report = ObliviousReport.reencrypt(report, manager.encryption_key(node))
        decoded = decoder.decode(report, selected=selected, challenge=challenge)
        assert decoded.matches
        expected_ack = ack if ack else None
        assert decoded.dest_ack == expected_ack

    @settings(max_examples=25)
    @given(
        selected=st.integers(1, 6),
        wrong=st.integers(1, 6),
        challenge=st.binary(min_size=1, max_size=32),
    )
    def test_wrong_selection_never_matches(self, selected, wrong, challenge):
        if selected == wrong:
            return
        manager = KeyManager(path_length=6, seed=b"prop4")
        decoder = ObliviousDecoder(
            [manager.encryption_key(i) for i in range(1, 7)],
            [manager.mac_key(i) for i in range(1, 7)],
        )
        report = ObliviousReport.originate(
            selected, challenge, None,
            manager.mac_key(selected), manager.encryption_key(selected),
        )
        for node in range(selected - 1, 0, -1):
            report = ObliviousReport.reencrypt(report, manager.encryption_key(node))
        assert not decoder.decode(report, selected=wrong, challenge=challenge).matches


class TestSignatureProperties:
    @settings(max_examples=10, deadline=None)
    @given(messages_to_sign=st.lists(st.binary(min_size=0, max_size=64),
                                     min_size=1, max_size=4),
           seed=st.binary(min_size=1, max_size=16))
    def test_merkle_sign_verify_roundtrip(self, messages_to_sign, seed):
        from repro.crypto.merkle import MerkleSigner, MerkleVerifier

        signer = MerkleSigner(seed, height=2)
        verifier = MerkleVerifier(signer.public_root)
        for message in messages_to_sign:
            signature = signer.sign(message)
            assert verifier.verify(message, signature)

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(min_size=0, max_size=64),
           other=st.binary(min_size=0, max_size=64))
    def test_signature_does_not_transfer(self, message, other):
        from repro.crypto.merkle import MerkleSigner, MerkleVerifier

        if message == other:
            return
        signer = MerkleSigner(b"prop-seed", height=1)
        verifier = MerkleVerifier(signer.public_root)
        signature = signer.sign(message)
        assert not verifier.verify(other, signature)

    @settings(max_examples=10, deadline=None)
    @given(blob_mutation=st.integers(0, 10_000),
           message=st.binary(min_size=1, max_size=32))
    def test_encoded_signature_corruption_detected(self, blob_mutation, message):
        from repro.crypto.merkle import (
            MerkleSigner,
            MerkleVerifier,
            decode_signature,
            encode_signature,
        )
        from repro.exceptions import ConfigurationError

        signer = MerkleSigner(b"prop-seed-2", height=1)
        verifier = MerkleVerifier(signer.public_root)
        blob = bytearray(encode_signature(signer.sign(message)))
        blob[blob_mutation % len(blob)] ^= 0x5A
        try:
            signature = decode_signature(bytes(blob))
        except ConfigurationError:
            return  # structural rejection is also a pass
        assert not verifier.verify(message, signature)
