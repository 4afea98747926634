"""The audit gate over the real tree: shipped code stays clean, the CLI
agrees, and the warn-only mode keeps fixture violations out of the gate."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.audit import audit_paths
from repro.audit.cli import main

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
SRC = os.path.join(REPO_ROOT, "src")
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")
TESTS = os.path.join(REPO_ROOT, "tests")


class TestShippedTree:
    def test_src_and_benchmarks_have_no_error_findings(self):
        findings = audit_paths([SRC, BENCHMARKS], root=REPO_ROOT)
        errors = [f.render() for f in findings if f.severity == "error"]
        assert errors == [], "\n".join(errors)

    def test_cli_gate_exits_zero_on_shipped_tree(self, capsys):
        assert main([SRC, BENCHMARKS]) == 0

    def test_tests_tree_passes_in_warn_only_mode(self, capsys):
        # The fixture files under tests/ stage deliberate violations;
        # --warn-only reports them without failing the gate.
        assert main([TESTS, "--warn-only"]) == 0
        out = capsys.readouterr().out
        assert "bad_determinism.py" in out

    def test_json_format_round_trips(self, capsys):
        assert main([SRC, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new_errors"] == 0


class TestEntryPoints:
    def test_python_dash_m_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        result = subprocess.run(
            [sys.executable, "-m", "repro.audit", SRC, "--format", "json"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["format"] == "repro-audit-findings"

    def test_repro_aai_subcommand_wired(self, capsys):
        from repro.cli import main as aai_main

        assert aai_main(["audit", SRC, BENCHMARKS]) == 0

    def test_repro_aai_audit_failure_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main as aai_main

        bad = tmp_path / "bad.py"
        bad.write_text("import random\nVALUE = random.random()\n")
        with pytest.raises(SystemExit) as excinfo:
            aai_main(["audit", str(bad)])
        assert excinfo.value.code == 1


class TestCliOptions:
    def test_unknown_select_id_exits_2_with_one_line_error(self, capsys):
        assert main([SRC, "--select", "NOPE123"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id(s): NOPE123" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_ignore_id_exits_2(self, capsys):
        assert main([SRC, "--ignore", "DET005,BOGUS999"]) == 2
        assert "BOGUS999" in capsys.readouterr().err

    def test_select_narrows_to_named_rules(self, capsys):
        fixture = os.path.join(TESTS, "fixtures", "audit", "bad_crypto.py")
        assert main([fixture, "--select", "CB001", "--warn-only"]) == 0
        out = capsys.readouterr().out
        assert "CB001" in out
        assert "CB002" not in out

    def test_list_rules_grouped_by_family_and_id_sorted(self, capsys):
        from repro.audit.catalog import known_rule_ids

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = re.findall(r"^([A-Z]+\d{3})\b", out, re.MULTILINE)
        assert set(listed) == known_rule_ids()
        headers = re.findall(r"^== ([\w-]+) ==$", out, re.MULTILINE)
        # Families alphabetical (engine meta rules close the listing),
        # ids sorted within each family block.
        assert headers[:-1] == sorted(headers[:-1])
        assert headers[-1] == "engine"
        for block in out.split("== ")[1:]:
            ids = re.findall(r"^([A-Z]+\d{3})\b", block, re.MULTILINE)
            assert ids == sorted(ids)

    def test_sarif_flag_writes_2_1_0_log(self, tmp_path, capsys):
        out_path = tmp_path / "audit.sarif"
        assert main([SRC, "--sarif", str(out_path)]) == 0
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-audit"

    def test_tests_tree_gated_against_committed_baseline(
        self, monkeypatch, capsys
    ):
        # The promotion from warn-only: tests/ audits clean against its
        # own committed baseline, so *new* errors in test code fail CI.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["tests", "--baseline", "audit-baseline-tests.json"]) == 0
