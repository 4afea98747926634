"""Tests for the packet taxonomy."""

import pickle

import pytest

from repro.constants import DEFAULT_PACKET_SIZE, IDENTIFIER_SIZE
from repro.crypto.hashing import packet_identifier
from repro.net.packets import (
    AckPacket,
    DataPacket,
    Direction,
    PacketKind,
    ProbePacket,
    clone_with_report,
)


class TestDataPacket:
    def test_identifier_derivation(self):
        packet = DataPacket.create(payload=b"hello", timestamp=1.25, sequence=3)
        assert packet.identifier == packet_identifier(b"hello", 1.25)
        assert packet.kind is PacketKind.DATA
        assert packet.sequence == 3
        assert packet.size == DEFAULT_PACKET_SIZE

    def test_custom_size(self):
        packet = DataPacket.create(payload=b"x", timestamp=0.0, size=100)
        assert packet.size == 100


class TestProbePacket:
    def test_plain_probe_is_constant_size(self):
        probe = ProbePacket.create(identifier=b"i" * 32)
        assert probe.kind is PacketKind.PROBE
        assert probe.size == IDENTIFIER_SIZE

    def test_challenge_adds_size(self):
        probe = ProbePacket.create(identifier=b"i" * 32, challenge=b"z" * 16)
        assert probe.size == IDENTIFIER_SIZE + 16
        assert probe.challenge == b"z" * 16

    def test_authenticated_probe_scales_with_path(self):
        """Footnote 7: a per-hop MAC chain makes the probe O(d)-sized."""
        tags = tuple(b"t" * 8 for _ in range(6))
        probe = ProbePacket.create(identifier=b"i" * 32, hop_macs=tags)
        assert probe.size == IDENTIFIER_SIZE + 48


class TestAckPacket:
    def test_size_tracks_report(self):
        ack = AckPacket.create(identifier=b"i" * 32, report=b"r" * 50, origin=6)
        assert ack.kind is PacketKind.ACK
        assert ack.size == IDENTIFIER_SIZE + 50
        assert ack.origin == 6

    def test_clone_with_report(self):
        ack = AckPacket.create(identifier=b"i" * 32, report=b"r" * 10, origin=6,
                               sequence=9)
        wrapped = clone_with_report(ack, b"w" * 30, origin=5)
        assert wrapped.identifier == ack.identifier
        assert wrapped.sequence == 9
        assert wrapped.report == b"w" * 30
        assert wrapped.origin == 5
        assert wrapped.size == IDENTIFIER_SIZE + 30
        # Original untouched.
        assert ack.report == b"r" * 10


class TestDirection:
    def test_members(self):
        assert Direction.FORWARD is not Direction.REVERSE
        assert {d.value for d in Direction} == {"forward", "reverse"}


class TestEnumIdentity:
    MEMBERS = list(PacketKind) + list(Direction)

    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_pickle_round_trip_is_the_same_usable_key(self, member):
        restored = pickle.loads(pickle.dumps(member))
        assert restored is member
        table = {m: m.value for m in self.MEMBERS}
        assert table[restored] == member.value
        assert {(member, member): True}[restored, restored]

    def test_members_hash_by_identity(self):
        for member in self.MEMBERS:
            assert hash(member) == object.__hash__(member)
        assert len(set(self.MEMBERS)) == len(self.MEMBERS)
