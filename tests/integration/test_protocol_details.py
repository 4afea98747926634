"""Targeted wire-behavior tests: combination-protocol traffic savings,
footnote 7's authenticated probes, loose clock synchronization, and
PAAI-2 challenge binding."""

import pytest

from repro.core.params import ProtocolParams
from repro.net.packets import Direction, PacketKind, ProbePacket
from repro.net.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import paper_scenario


def count_probe_transmissions(protocol) -> int:
    return sum(
        link.stats.transmissions.get((PacketKind.PROBE, Direction.FORWARD), 0)
        for link in protocol.path.links
    )


class TestCombination1Savings:
    def test_probes_only_for_lost_sampled_packets(self):
        """Combination 1's point: on a lightly-lossy path it sends far
        fewer probes than PAAI-1 at the same sampling rate."""
        params = ProtocolParams(probe_frequency=0.5)
        scenario = paper_scenario(params=params)

        def probes_for(name, seed):
            simulator = Simulator(seed=seed)
            protocol = scenario.build_protocol(name, simulator)
            protocol.run_traffic(count=2000, rate=2000.0)
            return count_probe_transmissions(protocol), protocol

        paai1_probes, _ = probes_for("paai1", seed=1)
        combo1_probes, combo1 = probes_for("combo1", seed=1)
        # PAAI-1 probes every sampled packet (~1000); Combination 1 only
        # the lost sampled ones (~15-20%).
        assert combo1_probes < 0.5 * paai1_probes
        # Detection still counts one observation per sampled packet.
        assert combo1.board.rounds > 800

    def test_no_probes_on_lossless_path(self):
        params = ProtocolParams(
            path_length=4, natural_loss=0.0, alpha=0.03, probe_frequency=0.5
        )
        simulator = Simulator(seed=2)
        protocol = make_protocol("combo1", simulator, params)
        protocol.run_traffic(count=500, rate=2000.0)
        assert count_probe_transmissions(protocol) == 0
        assert protocol.board.rounds > 150  # acks still observed


class TestCombination2Savings:
    def test_destination_acks_only_sampled(self):
        params = ProtocolParams(
            path_length=4, natural_loss=0.0, alpha=0.03, probe_frequency=0.25
        )
        simulator = Simulator(seed=3)
        protocol = make_protocol("combo2", simulator, params)
        protocol.run_traffic(count=1000, rate=2000.0)
        acks = sum(
            link.stats.transmissions.get((PacketKind.ACK, Direction.REVERSE), 0)
            for link in protocol.path.links
        )
        # ~250 sampled acks across 4 links = ~1000 transmissions; compare
        # with paai2 (every packet acked: ~4000).
        simulator2 = Simulator(seed=3)
        paai2 = make_protocol("paai2", simulator2, params)
        paai2.run_traffic(count=1000, rate=2000.0)
        paai2_acks = sum(
            link.stats.transmissions.get((PacketKind.ACK, Direction.REVERSE), 0)
            for link in paai2.path.links
        )
        assert acks < 0.5 * paai2_acks


class TestAuthenticatedProbes:
    """Footnote 7: with per-hop MAC chains on probes, forwarders drop
    bogus probes immediately instead of relaying them down the path."""

    def _params(self):
        return ProtocolParams(
            path_length=4, natural_loss=0.0, alpha=0.03,
            probe_frequency=0.5, authenticated_probes=True,
        )

    def test_honest_probes_still_work(self):
        simulator = Simulator(seed=4)
        protocol = make_protocol("paai1", simulator, self._params())
        protocol.run_traffic(count=400, rate=2000.0)
        # Sampled rounds complete normally.
        assert protocol.board.rounds > 100
        assert protocol.board.scores == [0, 0, 0, 0]

    def test_bogus_probe_stopped_at_first_hop(self):
        simulator = Simulator(seed=5)
        protocol = make_protocol("paai1", simulator, self._params())
        # Deliver one real data packet so F1 has state for the identifier.
        packet = protocol.source.send_data()
        simulator.run(until=0.1)
        before = count_probe_transmissions(protocol)
        # Inject a probe with no MAC chain for that identifier.
        bogus = ProbePacket.create(packet.identifier)
        protocol.source.send_forward(bogus)
        simulator.run(until=0.5)
        after = count_probe_transmissions(protocol)
        # The bogus probe crossed only l0; F1 refused to relay it.
        assert after - before == 1

    def test_probe_size_scales_with_path(self):
        simulator = Simulator(seed=6)
        protocol = make_protocol("paai1", simulator, self._params())
        protocol.run_traffic(count=100, rate=2000.0)
        probe_bytes = sum(
            link.stats.bytes_sent.get(PacketKind.PROBE, 0)
            for link in protocol.path.links
        )
        probes = count_probe_transmissions(protocol)
        assert probes > 0
        # 32-byte identifier + 4 hop MACs of 8 bytes = 64 bytes per probe.
        assert probe_bytes / probes == pytest.approx(64.0)

    def test_sigack_forwarder_checks_the_probe_mac_chain(self):
        """Sig-ack runs the onion cast, so footnote 7 holds for it too: a
        probe whose hop MAC is bad stops at the first forwarder that
        holds the packet, and an honest probe passes."""
        from repro.protocols.onion_common import build_probe

        simulator = Simulator(seed=8)
        protocol = make_protocol("sig-ack", simulator, self._params())
        packet = protocol.source.send_data()
        forwarder = protocol.path.nodes[1]
        forwarder.deliver(packet, Direction.FORWARD)
        bogus = ProbePacket.create(packet.identifier, hop_macs=(b"\x00" * 8,) * 4)
        forwarder.deliver(bogus, Direction.FORWARD)
        assert forwarder.fault_counts == {"probe_mac_failure": 1}
        assert forwarder.store.get(packet.identifier)["probed"] is False
        honest = build_probe(protocol, packet.identifier, packet.sequence)
        forwarder.deliver(honest, Direction.FORWARD)
        assert forwarder.fault_counts == {"probe_mac_failure": 1}
        assert forwarder.store.get(packet.identifier)["probed"] is True


class TestLooseClockSynchronization:
    def test_small_skews_harmless(self):
        """Skews within the freshness window must not disturb operation."""
        params = ProtocolParams(
            path_length=4, natural_loss=0.0, alpha=0.03, probe_frequency=0.5
        )
        skews = [0.0, 0.01, -0.01, 0.02, -0.02]
        simulator = Simulator(seed=7)
        protocol = make_protocol(
            "paai1", simulator, params, clock_skews=skews
        )
        protocol.run_traffic(count=300, rate=2000.0)
        assert protocol.path.stats.data_delivered == 300
        assert protocol.board.scores == [0, 0, 0, 0]

    def test_excessive_skew_rejects_packets(self):
        """A node whose clock is far ahead sees every timestamp as expired
        and discards all data — a visible sync failure, not a silent
        corruption."""
        params = ProtocolParams(
            path_length=4, natural_loss=0.0, alpha=0.03, probe_frequency=0.5
        )
        skews = [0.0, 0.0, 10.0, 0.0, 0.0]  # F2 10 seconds ahead
        simulator = Simulator(seed=8)
        protocol = make_protocol(
            "paai1", simulator, params, clock_skews=skews
        )
        protocol.run_traffic(count=200, rate=2000.0)
        assert protocol.path.stats.data_delivered == 0
        # F2 rejects every packet at ingress, which is observationally a
        # total loss on its upstream link: the onion stops at F1 and the
        # source blames l1 — adjacent to the desynchronized node.
        estimates = protocol.estimates()
        assert estimates.index(max(estimates)) == 1


class TestPaai2ChallengeBinding:
    def test_selection_varies_per_packet(self):
        """Fresh challenges per probe make the selected node vary: over
        many probed rounds every position must get selected sometimes."""
        params = ProtocolParams(
            path_length=4, natural_loss=0.12, alpha=0.2
        )
        simulator = Simulator(seed=9)
        protocol = make_protocol("paai2", simulator, params)
        protocol.run_traffic(count=2000, rate=4000.0)
        # Reconstruct the selection distribution from the source's scoring:
        # mismatches with e=k increment exactly links 0..k-1, so strictly
        # decreasing adjacent scores witness multiple distinct selections.
        scores = protocol.board.scores
        assert scores[0] > scores[1] > scores[2] > scores[3] > 0
