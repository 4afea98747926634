"""Audit command-line front end.

Reachable two ways (same flags, same exit codes)::

    repro-aai audit [paths ...] [options]
    python -m repro.audit [paths ...] [options]

Exit codes: ``0`` — no new error findings (baselined findings and
warnings are reported but do not fail); ``1`` — at least one new error
finding (suppressed by ``--warn-only``); ``2`` — usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.audit.baseline import DEFAULT_BASELINE, load_baseline, write_baseline
from repro.audit.catalog import render_rule_listing, select_rules
from repro.audit.engine import Finding, apply_baseline, audit_paths
from repro.audit.sarif import write_sarif


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
        "--baseline", default=DEFAULT_BASELINE, metavar="FILE",
        help="baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE}; absent file = empty baseline)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report findings but always exit 0 (fixture/test trees)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="IDS",
        help="run only these rule ids (repeatable, comma-separable); "
             "unknown ids are a usage error (exit 2)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="IDS",
        help="skip these rule ids (repeatable, comma-separable); "
             "unknown ids are a usage error (exit 2)",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="also write findings as SARIF 2.1.0 (GitHub code scanning)",
    )


def _split_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    return [
        part.strip()
        for value in values
        for part in value.split(",")
        if part.strip()
    ]


def _render_text(findings: Sequence[Finding], new_errors: int) -> str:
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = sum(1 for f in findings if f.severity == "warning")
    baselined = sum(1 for f in findings if f.baselined)
    lines.append(
        f"audit: {len(findings)} finding(s) "
        f"({errors} error(s), {warnings} warning(s), "
        f"{baselined} baselined, {new_errors} new error(s))"
    )
    return "\n".join(lines)


def _render_json(
    findings: Sequence[Finding], paths: Sequence[str], new_errors: int
) -> str:
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
                "severity": f.severity,
                "message": f.message,
                "fingerprint": f.fingerprint,
                "baselined": f.baselined,
            }
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "errors": sum(1 for f in findings if f.severity == "error"),
            "warnings": sum(1 for f in findings if f.severity == "warning"),
            "baselined": sum(1 for f in findings if f.baselined),
            "new_errors": new_errors,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def run_audit(args: argparse.Namespace) -> int:
    """Execute the audit described by parsed ``args``; returns exit code."""
    if args.list_rules:
        print(render_rule_listing())
        return 0
    select = _split_ids(getattr(args, "select", None))
    ignore = _split_ids(getattr(args, "ignore", None))
    try:
        rules = select_rules(select, ignore)
    except KeyError as exc:
        print(f"audit: {exc.args[0]}", file=sys.stderr)
        return 2
    findings = audit_paths(
        args.paths, rules=rules if (select or ignore) else None
    )
    if args.write_baseline:
        count = write_baseline(args.baseline, findings)
        print(f"baseline with {count} entr{'y' if count == 1 else 'ies'} "
              f"written to {args.baseline}")
        return 0
    findings = apply_baseline(findings, load_baseline(args.baseline))
    if args.sarif:
        write_sarif(args.sarif, findings)
    new_errors = sum(
        1 for f in findings if f.severity == "error" and not f.baselined
    )
    if args.format == "json":
        print(_render_json(findings, args.paths, new_errors))
    elif findings:
        print(_render_text(findings, new_errors))
    else:
        print("audit: clean")
    if new_errors and not args.warn_only:
        return 1
    return 0


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
