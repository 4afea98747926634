"""CLI semantics: the one gate and its output formats."""

import json
import textwrap

import pytest

from repro.audit.cli import main

DRAW_VIOLATION = textwrap.dedent(
    """
    # repro: module=repro.core.fake_draw
    import random


    def draw():
        return random.random()
    """
)

CLOCK_VIOLATION = textwrap.dedent(
    """
    # repro: module=repro.core.fake_clock
    import time


    def stamp():
        return time.time()
    """
)


@pytest.fixture
def tree(tmp_path):
    target = tmp_path / "pkg"
    target.mkdir()
    (target / "draw.py").write_text(DRAW_VIOLATION)
    return tmp_path, target


class TestCliGate:
    def test_any_finding_fails_and_allowed_passes(self, tree, monkeypatch):
        tmp_path, target = tree
        monkeypatch.chdir(tmp_path)
        assert main([str(target)]) == 1
        # The inline pragma is the only way to excuse a finding.
        (target / "draw.py").write_text(
            DRAW_VIOLATION.replace(
                "random.random()", "random.random()  # repro: allow(DET005)"
            )
        )
        assert main([str(target)]) == 0
        (target / "clock.py").write_text(CLOCK_VIOLATION)
        assert main([str(target)]) == 1

    def test_json_output(self, tree, monkeypatch, capsys):
        tmp_path, target = tree
        monkeypatch.chdir(tmp_path)
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-audit-findings"
        assert payload["summary"]["total"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET005"
        assert finding["path"].endswith("draw.py")
        assert finding["line"] == 7

    def test_clean_tree_reports_clean(self, tmp_path, monkeypatch, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "fine.py").write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET002", "DET005", "CB001", "CB002", "ST002",
                        "ITER001", "RNG001", "RNG002", "FI001",
                        "AUD001", "AUD002"):
            assert rule_id in out
