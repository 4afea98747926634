"""The audit gate over the real tree: shipped code and tests stay clean,
and the CLI and its entry points agree."""

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


def _audit_module(*argv):
    """``python -m repro.audit`` in a fresh interpreter at the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-m", "repro.audit", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestShippedTree:
    def test_src_and_benchmarks_have_no_error_findings(self):
        findings = audit_paths([SRC, BENCHMARKS], root=REPO_ROOT)
        rendered = [f.render() for f in findings]
        assert rendered == [], "\n".join(rendered)

    def test_cli_gate_exits_zero_on_shipped_tree(self, capsys):
        assert main([SRC, BENCHMARKS]) == 0

    def test_ci_invocation_exits_zero(self):
        # The CI audit job's one step, verbatim. The fixtures under
        # tests/fixtures/ stage violations and are audited by the unit
        # tests instead.
        result = _audit_module(
            "src/", "benchmarks/", "tests/unit", "tests/integration",
            "tests/property", "--format", "json",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(result.stdout)["findings"] == []

    def test_json_format_round_trips(self, capsys):
        assert main([SRC, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 0


class TestEntryPoints:
    def test_python_dash_m_entry_point(self):
        result = _audit_module(SRC, "--format", "json")
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
