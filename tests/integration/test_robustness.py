"""Robustness suite: crash/timeout-tolerant parallel runs, corrupt
checkpoints, degraded-mode ack handling, and the chaos matrix gate.

These are the ISSUE's resilience contracts end to end: a worker crash or
a wedged task never changes *what* a retried run computes (byte-identical
to serial at the same seed), a damaged checkpoint degrades a resumed
report to a restart instead of a crash, malformed or replayed acks are
counted and dropped rather than raised, and the chaos matrix runs every
cell to completion with zero false accusations on benign schedules.
"""

import json
import os
import random

import pytest

from repro.adversary.uniform import UniformDropper
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError, TaskRetryError
from repro.experiments import runner
from repro.experiments.chaos import (
    cell_seed,
    run_chaos_cell,
    run_chaos_matrix,
)
from repro.experiments.runner import (
    CheckpointWarning,
    build_specs,
    load_checkpoint,
    run_all,
    write_checkpoint,
)
from repro.faults import preset
from repro.net.packets import AckPacket, Direction, PacketKind
from repro.net.simulator import Simulator
from repro.parallel import RetryPolicy, run_tasks, run_tasks_completed
from repro.protocols.registry import make_protocol

TINY = {"runs": 24, "fig2_runs": 30, "packets": 120, "abl_packets": 200}


@pytest.fixture()
def tiny_scale(monkeypatch):
    monkeypatch.setitem(runner.SCALES, "tiny", TINY)
    return "tiny"


# -- worker tasks (module-level so they pickle across the pool) -------------


def _square(value):
    return value * value


def _crash_once_square(arg):
    """Hard-crashes the worker process on its first-ever call (tracked by
    a marker file shared across processes), then behaves like _square."""
    value, marker = arg
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        os._exit(17)  # simulates a segfaulting worker -> BrokenProcessPool
    return value * value


def _wedge_once_square(arg):
    """Sleeps past the round timeout on its first-ever call, then returns
    instantly — a transiently wedged worker."""
    value, marker = arg
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("wedged")
        import time

        time.sleep(2.0)
    return value * value


def _crash_always(value):
    os._exit(17)


class TestWorkerCrashRecovery:
    def test_crashed_worker_is_retried_to_the_serial_result(self, tmp_path):
        payloads = [(value, str(tmp_path / "crash-marker"))
                    for value in range(8)]
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        retried = run_tasks(_crash_once_square, payloads, jobs=2,
                            retry=policy)
        # After the crash the marker exists, so a serial pass over the
        # *same payloads* is pure compute — the ground truth the retried
        # parallel run must reproduce byte for byte.
        serial = run_tasks(_crash_once_square, payloads, jobs=1)
        assert retried == serial == [v * v for v in range(8)]
        assert json.dumps(retried) == json.dumps(serial)

    def test_streaming_variant_recovers_too(self, tmp_path):
        payloads = [(value, str(tmp_path / "crash-marker"))
                    for value in range(6)]
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        pairs = dict(run_tasks_completed(
            _crash_once_square, payloads, jobs=2, retry=policy
        ))
        assert pairs == {index: index * index for index in range(6)}

    def test_persistent_crash_exhausts_the_budget(self):
        policy = RetryPolicy(max_attempts=2, backoff=0.0)
        with pytest.raises(TaskRetryError, match="after 2 attempts"):
            run_tasks(_crash_always, [1, 2, 3], jobs=2, retry=policy)

    def test_crash_without_retry_policy_still_fails_fast(self, tmp_path):
        payloads = [(value, str(tmp_path / "crash-marker"))
                    for value in range(4)]
        with pytest.raises(Exception):  # BrokenProcessPool
            run_tasks(_crash_once_square, payloads, jobs=2)


class TestRoundTimeoutRecovery:
    def test_wedged_worker_times_out_and_retry_succeeds(self, tmp_path):
        payloads = [(value, str(tmp_path / "wedge-marker"))
                    for value in range(4)]
        policy = RetryPolicy(max_attempts=3, timeout=0.5, backoff=0.0)
        result = run_tasks(_wedge_once_square, payloads, jobs=2,
                           retry=policy)
        assert result == [v * v for v in range(4)]


class TestCorruptCheckpoints:
    def _valid_checkpoint(self, tiny_scale, path):
        specs = build_specs(tiny_scale, seed=0)
        records = {
            spec.name: runner.ExperimentRecord(
                name=spec.name, elapsed_seconds=0.1, text=f"<{spec.name}>"
            )
            for spec in specs[:2]
        }
        write_checkpoint(str(path), tiny_scale, 0, specs, records)
        return specs, records

    def test_round_trip_carries_the_checksum(self, tiny_scale, tmp_path):
        path = tmp_path / "ckpt.json"
        _, records = self._valid_checkpoint(tiny_scale, path)
        payload = json.loads(path.read_text())
        assert payload["checksum"]
        loaded = load_checkpoint(str(path), scale=tiny_scale, seed=0)
        assert set(loaded) == set(records)

    def test_truncated_file_warns_and_restarts(self, tiny_scale, tmp_path):
        path = tmp_path / "ckpt.json"
        self._valid_checkpoint(tiny_scale, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # crash mid-write
        with pytest.warns(CheckpointWarning, match="unreadable"):
            assert load_checkpoint(str(path), scale=tiny_scale, seed=0) == {}

    def test_tampered_records_fail_the_checksum(self, tiny_scale, tmp_path):
        path = tmp_path / "ckpt.json"
        self._valid_checkpoint(tiny_scale, path)
        payload = json.loads(path.read_text())
        payload["records"][0]["text"] = "bit-rotted"
        path.write_text(json.dumps(payload))
        with pytest.warns(CheckpointWarning, match="checksum mismatch"):
            assert load_checkpoint(str(path), scale=tiny_scale, seed=0) == {}

    def test_malformed_record_entries_warn(self, tiny_scale, tmp_path):
        path = tmp_path / "ckpt.json"
        self._valid_checkpoint(tiny_scale, path)
        payload = json.loads(path.read_text())
        payload["records"] = [{"name": "Table 1"}]  # missing fields
        payload["checksum"] = runner._records_checksum(payload["records"])
        path.write_text(json.dumps(payload))
        with pytest.warns(CheckpointWarning, match="malformed record"):
            assert load_checkpoint(str(path), scale=tiny_scale, seed=0) == {}

    def test_non_object_payload_warns(self, tiny_scale, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(CheckpointWarning, match="not an object"):
            assert load_checkpoint(str(path), scale=tiny_scale, seed=0) == {}

    def test_wrong_file_and_wrong_config_stay_hard_errors(
        self, tiny_scale, tmp_path
    ):
        """Damage degrades gracefully; *caller* mistakes must not."""
        junk = tmp_path / "junk.json"
        junk.write_text('{"hello": "world"}')
        with pytest.raises(ConfigurationError, match="not a report checkpoint"):
            load_checkpoint(str(junk), scale=tiny_scale, seed=0)
        path = tmp_path / "ckpt.json"
        self._valid_checkpoint(tiny_scale, path)
        with pytest.raises(ConfigurationError, match="cannot resume"):
            load_checkpoint(str(path), scale=tiny_scale, seed=9)

    def test_resumed_report_survives_a_corrupt_checkpoint(
        self, tiny_scale, tmp_path
    ):
        """End to end: `report --resume` onto a half-written checkpoint
        restarts cleanly and leaves a valid checkpoint behind."""
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "repro-report-checkpo')  # torn write
        with pytest.warns(CheckpointWarning):
            report = run_all(scale=tiny_scale, seed=0, jobs=1,
                             resume_path=str(path))
        specs = build_specs(tiny_scale, seed=0)
        assert [r.name for r in report.records] == [s.name for s in specs]
        healed = load_checkpoint(str(path), scale=tiny_scale, seed=0)
        assert list(healed) == [s.name for s in specs]


class TestDegradedAckHandling:
    def _protocol(self, name, seed=0, **overrides):
        params = ProtocolParams(natural_loss=0.0, **overrides)
        simulator = Simulator(seed=seed)
        return simulator, make_protocol(name, simulator, params)

    @pytest.mark.parametrize("name,fault", [
        ("full-ack", "ack_mac_failure"),
        ("paai2", "ack_mac_failure"),
        ("sig-ack", "ack_signature_failure"),
        ("combo1", "ack_mac_failure"),
        ("combo2", "ack_mac_failure"),
    ])
    def test_malformed_ack_is_counted_and_dropped(self, name, fault):
        # The combinations ack only sampled packets; sample every one.
        extra = {"probe_frequency": 1.0} if name.startswith("combo") else {}
        simulator, protocol = self._protocol(name, **extra)
        packet = protocol.source.send_data()
        forged = AckPacket.create(
            identifier=packet.identifier,
            report=b"\x00" * 16,  # garbage MAC/signature
            origin=protocol.params.path_length,
        )
        protocol.source.deliver(forged, Direction.REVERSE)
        assert protocol.source.fault_counts[fault] == 1
        # The round is still pending — a forged ack must not settle it.
        assert packet.identifier in protocol.source.pending

    @pytest.mark.parametrize("name", ["full-ack", "paai2"])
    def test_oversized_ack_report_counts_as_forgery(self, name):
        """A report longer than any MAC tag must not escape ``deliver``
        as a ValueError: it is a forged ack like any other."""
        simulator, protocol = self._protocol(name)
        packet = protocol.source.send_data()
        forged = AckPacket.create(
            identifier=packet.identifier,
            report=b"\xff" * 40,
            origin=protocol.params.path_length,
        )
        protocol.source.deliver(forged, Direction.REVERSE)
        assert protocol.source.fault_counts["ack_mac_failure"] == 1
        assert packet.identifier in protocol.source.pending

    @staticmethod
    def _black_hole(name, retries, at, count):
        """A session in which node ``at`` drops everything."""
        params = ProtocolParams(probe_frequency=1.0, probe_retries=retries)
        simulator = Simulator(seed=1)
        protocol = make_protocol(
            name, simulator, params,
            adversaries={at: UniformDropper(1.0, random.Random(0))},
        )
        protocol.run_traffic(count=count, rate=1000.0)
        return protocol

    def _black_hole_probes(self, *args, **kwargs):
        """Probes the source sends when node ``at`` drops everything."""
        protocol = self._black_hole(*args, **kwargs)
        return protocol.path.stats.overhead_packets[PacketKind.PROBE]

    #: Ack-based protocols with their packet counts. Sig-ack signs every
    #: ack and report, so it runs a shorter session: 30 packets, the
    #: fewest at seed 1 in which natural loss eats a report before F3.
    ACK_BASED = [
        ("full-ack", 50), ("paai1", 50), ("paai2", 50),
        ("combo1", 50), ("combo2", 50), ("sig-ack", 30),
    ]

    @pytest.mark.parametrize("name,count", ACK_BASED)
    def test_probe_retries_resend_probes_under_a_black_hole(self, name, count):
        """``probe_retries`` re-sends an unanswered probe before the round
        is scored (docs/ROBUSTNESS.md). F3 drops everything; F1 and F2
        answer in its place, so only the rounds whose report natural loss
        eats are re-probed."""
        once = self._black_hole_probes(name, 0, at=3, count=count)
        assert once == count
        assert self._black_hole_probes(name, 2, at=3, count=count) > once

    @pytest.mark.parametrize("name,count", ACK_BASED)
    def test_probe_retries_are_exact_when_no_report_can_return(
        self, name, count
    ):
        """With the black hole at F1 no node can answer, so every round
        spends its first probe and all ``probe_retries`` re-sends."""
        once = self._black_hole_probes(name, 0, at=1, count=count)
        assert once == count
        assert self._black_hole_probes(name, 2, at=1, count=count) == 3 * once

    @pytest.mark.parametrize("name,count", ACK_BASED)
    def test_every_round_resolves_under_a_black_hole_with_retries(
        self, name, count
    ):
        """The default drain covers the ack wait and every probe wait, so
        no round is still pending when ``run_traffic`` returns."""
        protocol = self._black_hole(name, 2, at=1, count=count)
        assert protocol.source.pending == {}
        assert protocol.board.rounds == count

    @pytest.mark.parametrize("name", ["full-ack", "paai1", "combo1", "sig-ack"])
    def test_empty_report_is_a_counted_fault(self, name):
        """An empty report from downstream is counted at the onion
        forwarder, which then answers with its own layer on time-out."""
        simulator, protocol = self._protocol(name, probe_frequency=1.0)
        protocol.path.nodes[2].adversary = UniformDropper(1.0, random.Random(0))
        first = protocol.path.nodes[1]
        packet = protocol.source.send_data()
        identifier = packet.identifier
        while not (first.store.get(identifier) or {}).get("probed"):
            assert simulator.run(max_events=1) == 1
        empty = AckPacket.create(identifier, report=b"", origin=2,
                                 is_report=True)
        first.deliver(empty, Direction.REVERSE)
        assert first.fault_counts == {"empty_report": 1}
        simulator.run(until=simulator.now + 4 * protocol.params.r0)
        assert protocol.source.pending == {}
        assert protocol.board.scores[1] == 1

    def test_replayed_ack_never_raises_or_double_counts(self):
        simulator, protocol = self._protocol("full-ack")
        protocol.run_traffic(count=20, rate=1000.0)
        rounds = protocol.board.rounds
        assert rounds == 20
        stale = AckPacket.create(
            identifier=b"\xab" * 16,  # long-settled / never-sent round
            report=b"\x00" * 16,
            origin=protocol.params.path_length,
        )
        for _ in range(3):
            protocol.source.deliver(stale, Direction.REVERSE)
        assert protocol.board.rounds == rounds

    def test_unknown_packet_kind_from_wire_is_survivable(self):
        """The deliver boundary converts protocol-level surprises into
        counted faults instead of crashing the event loop."""
        simulator, protocol = self._protocol("full-ack")
        probe = AckPacket.create(identifier=b"\x01" * 16, report=b"",
                                 origin=0, is_report=True)
        protocol.source.deliver(probe, Direction.REVERSE)  # must not raise
        assert probe.kind is PacketKind.ACK


class TestChaosMatrix:
    def test_small_matrix_is_clean_and_deterministic(self):
        first = run_chaos_matrix("small", seed=0, packets=200,
                                 protocols=["full-ack"])
        second = run_chaos_matrix("small", seed=0, packets=200,
                                  protocols=["full-ack"])
        assert first.ok, first.render()
        assert json.dumps(first.to_json(), sort_keys=True) == (
            json.dumps(second.to_json(), sort_keys=True)
        )

    def test_corrupt_acks_cell_surfaces_degraded_mode_counters(self):
        spec = preset("corrupt-acks")
        cell = run_chaos_cell(
            "full-ack", spec,
            seed=cell_seed(0, "full-ack", spec.name),
            packets=400,
        )
        assert cell.error is None, cell.error
        assert cell.injected.get("corrupt", 0) >= 1
        total_faults = sum(
            count
            for counts in cell.faults_seen.values()
            for count in counts.values()
        )
        assert total_faults >= 1

    def test_benign_cells_report_their_fp_bound(self):
        spec = preset("baseline")
        cell = run_chaos_cell(
            "paai1", spec, seed=cell_seed(3, "paai1", spec.name), packets=200
        )
        assert cell.error is None
        assert 0.0 <= cell.fp_bound <= 1.0
        assert cell.rounds > 0

    def test_cell_seeds_are_distinct_across_the_grid(self):
        seeds = {
            cell_seed(0, protocol, spec)
            for protocol in ("full-ack", "paai1", "paai2")
            for spec in ("baseline", "benign-jitter", "crash-restart")
        }
        assert len(seeds) == 9

    def test_unknown_matrix_and_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos matrix"):
            run_chaos_matrix("colossal")
        with pytest.raises(ConfigurationError, match="not part of matrix"):
            run_chaos_matrix("small", protocols=["sig-ack"])

    def test_cell_never_raises_on_protocol_failure(self, monkeypatch):
        """A blown-up cell becomes an EXCEPTION verdict, not a crash."""
        def boom(*args, **kwargs):
            raise RuntimeError("scripted cell failure")

        monkeypatch.setattr(
            "repro.experiments.chaos.make_protocol", boom
        )
        spec = preset("baseline")
        cell = run_chaos_cell("full-ack", spec, seed=1, packets=50)
        assert cell.error is not None
        assert "scripted cell failure" in cell.error
        assert not cell.ok
