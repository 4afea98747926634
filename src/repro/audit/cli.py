"""Audit command-line front end.

Reachable two ways (same flags, same exit codes)::

    repro-aai audit [paths ...] [options]
    python -m repro.audit [paths ...] [options]

Exit codes: ``0`` — no findings; ``1`` — at least one finding (every
rule is an error; deliberate exceptions carry an inline
``# repro: allow(<rule-id>)``); ``2`` — usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.audit.catalog import render_rule_listing
from repro.audit.engine import Finding, audit_paths


def configure_audit_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the audit options to ``parser`` (shared with ``repro-aai``)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to audit (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="findings as human-readable lines or one JSON document",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _render_text(findings: Sequence[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"audit: {len(findings)} finding(s)")
    return "\n".join(lines)


def _render_json(findings: Sequence[Finding], paths: Sequence[str]) -> str:
    payload = {
        "format": "repro-audit-findings",
        "version": 1,
        "paths": list(paths),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in findings
        ],
        "summary": {"total": len(findings)},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def run_audit(args: argparse.Namespace) -> int:
    """Execute the audit described by parsed ``args``; returns exit code."""
    if args.list_rules:
        print(render_rule_listing())
        return 0
    findings = audit_paths(args.paths)
    if args.format == "json":
        print(_render_json(findings, args.paths))
    elif findings:
        print(_render_text(findings))
    else:
        print("audit: clean")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-aai audit",
        description=(
            "Static determinism & crypto-boundary auditor "
            "(rule catalogue: docs/AUDIT.md)"
        ),
    )
    configure_audit_parser(parser)
    args = parser.parse_args(argv)
    return run_audit(args)


if __name__ == "__main__":
    sys.exit(main())
