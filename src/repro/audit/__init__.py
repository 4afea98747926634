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
  qualified-name resolution through import tables, findings, and
  ``# repro: allow(<rule-id>)`` suppression comments, the one way to
  excuse a finding;
* :mod:`repro.audit.graph` — the whole-program layer: per-module
  call-graph facts, the assembled :class:`ProjectIndex`, and BFS
  sink-chain search, which the call-chain rules
  (:mod:`repro.audit.rules_interproc`) walk from every function;
* :mod:`repro.audit.rules_determinism`, :mod:`~repro.audit.rules_crypto`,
  :mod:`~repro.audit.rules_iteration`, :mod:`~repro.audit.rules_rngflow`,
  :mod:`~repro.audit.rules_faults` — the rule families (see
  ``docs/AUDIT.md`` for the catalogue); every rule is an error;
* :mod:`repro.audit.cli` — ``repro-aai audit`` / ``python -m repro.audit``,
  which exits non-zero on any finding.
"""

from repro.audit.catalog import all_rules, find_rule, known_rule_ids
from repro.audit.engine import (
    Finding,
    ProjectRule,
    Rule,
    audit_paths,
    audit_source,
)
from repro.audit.graph import ProjectIndex

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
]
