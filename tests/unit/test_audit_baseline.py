"""Baseline + CLI semantics: grandfathering, gating, output formats."""

import json
import textwrap

import pytest

from repro.audit import load_baseline, write_baseline
from repro.audit.cli import main
from repro.audit.engine import apply_baseline, audit_paths
from repro.exceptions import ConfigurationError

OLD_VIOLATION = textwrap.dedent(
    """
    # repro: module=repro.core.fake_old
    import random


    def old_draw():
        return random.random()
    """
)

NEW_VIOLATION = textwrap.dedent(
    """
    # repro: module=repro.core.fake_new
    import time


    def new_stamp():
        return time.time()
    """
)


@pytest.fixture
def tree(tmp_path):
    target = tmp_path / "pkg"
    target.mkdir()
    (target / "old.py").write_text(OLD_VIOLATION)
    return tmp_path, target


class TestBaselineFile:
    def test_grandfathers_old_but_not_new(self, tree):
        tmp_path, target = tree
        baseline_path = str(tmp_path / "baseline.json")
        findings = audit_paths([str(target)], root=str(tmp_path))
        assert [f.rule for f in findings] == ["DET005"]
        write_baseline(baseline_path, findings)

        # The grandfathered finding is still reported, but baselined...
        (target / "new.py").write_text(NEW_VIOLATION)
        findings = apply_baseline(
            audit_paths([str(target)], root=str(tmp_path)),
            load_baseline(baseline_path),
        )
        by_rule = {f.rule: f for f in findings}
        assert by_rule["DET005"].baselined
        # ...while the fresh finding is not.
        assert not by_rule["ST002"].baselined

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == set()

    def test_wrong_format_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ConfigurationError):
            load_baseline(str(bogus))

    def test_baseline_invalidates_when_excused_line_changes(self, tree):
        tmp_path, target = tree
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(
            baseline_path, audit_paths([str(target)], root=str(tmp_path))
        )
        # Rewriting the offending line changes its fingerprint: the
        # exception must be re-justified.
        (target / "old.py").write_text(
            OLD_VIOLATION.replace("random.random()", "random.uniform(0, 1)")
        )
        findings = apply_baseline(
            audit_paths([str(target)], root=str(tmp_path)),
            load_baseline(baseline_path),
        )
        assert [f.baselined for f in findings] == [False]


class TestCliGate:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        return code

    def test_new_error_fails_and_baselined_passes(self, tree, monkeypatch):
        tmp_path, target = tree
        monkeypatch.chdir(tmp_path)
        assert main([str(target)]) == 1
        assert main([str(target), "--write-baseline"]) == 0
        assert main([str(target)]) == 0
        (target / "new.py").write_text(NEW_VIOLATION)
        assert main([str(target)]) == 1

    def test_warn_only_always_passes(self, tree, monkeypatch):
        tmp_path, target = tree
        monkeypatch.chdir(tmp_path)
        assert main([str(target), "--warn-only"]) == 0

    def test_json_output(self, tree, monkeypatch, capsys):
        tmp_path, target = tree
        monkeypatch.chdir(tmp_path)
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-audit-findings"
        assert payload["summary"]["new_errors"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET005"
        assert finding["path"].endswith("old.py")
        assert not finding["baselined"]

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
                        "ITER001", "ITER002",
                        "AUD001", "AUD002"):
            assert rule_id in out
