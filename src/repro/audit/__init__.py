"""Static determinism & crypto-boundary auditor.

The repo's two headline guarantees are behavioral, not structural:

* **byte-identical parallel/serial output** — every experiment derives its
  randomness from seeded :class:`repro.net.rng.RngFactory` streams and
  reads time from the simulation clock, so ``--jobs N`` reproduces the
  serial report exactly (``docs/PARALLEL.md``);
* **a from-scratch crypto substrate** — HMAC/PRF/cipher constructions are
  built inside :mod:`repro.crypto` from first principles (the paper
  specifies the protocols directly in terms of those primitives), so
  stdlib ``hashlib``/``hmac`` must not leak into protocol code.

Nothing in Python enforces either property; one stray ``random.random()``
or ``time.time()`` in an agent silently breaks reproducibility. This
package codifies the invariants as machine-checked rules:

* :mod:`repro.audit.engine` — AST rule engine: per-file module contexts,
  qualified-name resolution through import tables, findings with
  severity, and ``# repro: allow(<rule-id>)`` suppression comments;
* :mod:`repro.audit.graph` — the whole-program layer: per-module
  call-graph facts, the assembled :class:`ProjectIndex`, and BFS
  sink-chain search, which the call-chain rules
  (:mod:`repro.audit.rules_interproc`) walk from every function;
* :mod:`repro.audit.rules_determinism`, :mod:`~repro.audit.rules_crypto`,
  :mod:`~repro.audit.rules_iteration`, :mod:`~repro.audit.rules_rngflow`,
  :mod:`~repro.audit.rules_interproc` and the others — the rule families
  (see ``docs/AUDIT.md`` for the catalogue);
* :mod:`repro.audit.baseline` — fingerprinted baseline files that
  grandfather deliberate exceptions while new findings still fail CI;
* :mod:`repro.audit.sarif` — SARIF 2.1.0 export for GitHub code
  scanning (``audit --sarif``);
* :mod:`repro.audit.cli` — ``repro-aai audit`` / ``python -m repro.audit``.
"""

from repro.audit.baseline import load_baseline, write_baseline
from repro.audit.catalog import all_rules, find_rule, known_rule_ids
from repro.audit.engine import (
    Finding,
    ProjectRule,
    Rule,
    audit_paths,
    audit_source,
)
from repro.audit.graph import ProjectIndex
from repro.audit.sarif import to_sarif, write_sarif

__all__ = [
    "Finding",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_rules",
    "audit_paths",
    "audit_source",
    "find_rule",
    "known_rule_ids",
    "load_baseline",
    "to_sarif",
    "write_baseline",
    "write_sarif",
]
