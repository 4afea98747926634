"""Unit coverage for the evidence ledger (repro.obs.ledger)."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs.ledger import (
    NULL_LEDGER,
    EvidenceLedger,
    get_ledger,
    ledger_runs,
    read_ledger_jsonl,
    render_explanation,
    using_ledger,
)


class TestRecording:
    def test_entries_are_sequenced_in_emission_order(self):
        ledger = EvidenceLedger()
        ledger.record("run_start", run=0)
        ledger.record("checkpoint", run=0, checkpoint=50)
        ledger.record("verdict", run=0, convicted=[4])
        assert [e["seq"] for e in ledger.entries()] == [0, 1, 2]
        assert [e["kind"] for e in ledger.entries()] == [
            "run_start", "checkpoint", "verdict",
        ]
        assert len(ledger) == 3

    def test_kind_filter(self):
        ledger = EvidenceLedger()
        ledger.record("run_start", run=0)
        ledger.record("accusation", run=0, link=4)
        ledger.record("accusation", run=1, link=2)
        assert [e["run"] for e in ledger.entries("accusation")] == [0, 1]
        assert ledger.entries("verdict") == []

    def test_canonicalization_makes_bytes_identical(self):
        """Sets, tuples, and numpy scalars must serialize the same as the
        plain-Python values another engine would emit."""
        fancy = EvidenceLedger()
        fancy.record(
            "checkpoint",
            convicted={4, 2},
            estimates=(np.float64(0.25), np.float64(0.5)),
            count=np.int64(7),
            flag=np.bool_(True),
            digest=b"\x00\xff",
        )
        plain = EvidenceLedger()
        plain.record(
            "checkpoint",
            convicted=[2, 4],
            estimates=[0.25, 0.5],
            count=7,
            flag=True,
            digest="00ff",
        )
        assert list(fancy.to_jsonl_lines()) == list(plain.to_jsonl_lines())

    def test_capacity_drops_newest_and_counts(self):
        ledger = EvidenceLedger(capacity=2)
        for index in range(5):
            ledger.record("checkpoint", run=index)
        assert len(ledger) == 2
        assert [e["run"] for e in ledger.entries()] == [0, 1]
        assert ledger.dropped == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EvidenceLedger(capacity=0)

    def test_jsonl_lines_are_sorted_key_json(self):
        ledger = EvidenceLedger()
        ledger.record("verdict", run=0, convicted=[4])
        (line,) = ledger.to_jsonl_lines()
        assert json.loads(line) == {
            "convicted": [4], "kind": "verdict", "run": 0, "seq": 0,
        }
        assert line == json.dumps(json.loads(line), sort_keys=True)


class TestActiveState:
    def test_null_ledger_is_default_and_disabled(self):
        assert get_ledger() is NULL_LEDGER
        assert not NULL_LEDGER.enabled
        NULL_LEDGER.record("verdict", run=0)
        assert len(NULL_LEDGER) == 0

    def test_using_ledger_installs_and_restores(self):
        ledger = EvidenceLedger()
        with using_ledger(ledger) as active:
            assert active is ledger
            assert get_ledger() is ledger
            get_ledger().record("run_start", run=0)
        assert get_ledger() is NULL_LEDGER
        assert len(ledger) == 1


class TestRoundTripAndExplanation:
    def _conviction_ledger(self):
        ledger = EvidenceLedger()
        ledger.record(
            "run_start", run=0, protocol="full-ack", seed=123,
            path_length=6, horizon=300, malicious_links=[4],
        )
        ledger.record(
            "checkpoint", run=0, checkpoint=50,
            estimates=[0.0, 0.0, 0.0, 0.0, 0.3, 0.0], convicted=[4],
        )
        ledger.record(
            "accusation", run=0, checkpoint=50, link=4,
            estimate=0.3, threshold=0.1, margin=0.2,
        )
        ledger.record(
            "exoneration", run=0, checkpoint=150, link=2,
            estimate=0.05, threshold=0.1,
        )
        ledger.record(
            "verdict", run=0, checkpoint=300, convicted=[4],
            false_positives=[], false_negatives=[], exact=True,
        )
        return ledger

    def test_write_and_read_jsonl_round_trips(self, tmp_path):
        ledger = self._conviction_ledger()
        path = tmp_path / "ledger.jsonl"
        assert ledger.write_jsonl(str(path)) == 5
        assert read_ledger_jsonl(str(path)) == ledger.entries()

    def test_ledger_runs_first_seen_order(self):
        ledger = EvidenceLedger()
        ledger.record("run_start", run=2)
        ledger.record("verdict", run=2)
        ledger.record("run_start", run=0)
        ledger.record("experiment", protocol="full-ack")
        assert ledger_runs(ledger.entries()) == [2, 0]

    def test_index_view_lists_verdicts(self):
        text = render_explanation(self._conviction_ledger().entries())
        assert "run 0: convicted l4 [exact]" in text
        assert "--run N" in text

    def test_run_view_reconstructs_the_evidence_chain(self):
        text = render_explanation(
            self._conviction_ledger().entries(), run=0
        )
        assert "Run 0 — full-ack (seed 123" in text
        assert "ground truth: malicious link(s) l4" in text
        assert "l4 estimate 0.3000 crossed threshold 0.1000" in text
        assert "ACCUSED" in text
        assert "accusation withdrawn" in text
        assert "verdict at checkpoint 300: convicted l4 (exact verdict)" in text

    def test_empty_and_unknown_run_views(self):
        assert render_explanation([]) == "(empty ledger)"
        entries = self._conviction_ledger().entries()
        assert render_explanation(entries, run=9) == (
            "run 9: no ledger entries"
        )
