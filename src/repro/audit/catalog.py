"""The rule catalogue: every family assembled, plus engine meta-rules.

``docs/AUDIT.md`` documents each id; ``repro-aai audit --list-rules``
prints this table. Since the whole-program pass the catalogue carries
two kinds of rules — per-file :class:`~repro.audit.engine.Rule` and
whole-program :class:`~repro.audit.engine.ProjectRule` — which the
engine separates itself (:func:`repro.audit.engine.split_rules`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.audit import (
    rules_crypto,
    rules_determinism,
    rules_faults,
    rules_interproc,
    rules_iteration,
    rules_rngflow,
)
from repro.audit.engine import PARSE_ERROR, UNKNOWN_SUPPRESSION, Rule

#: Meta findings emitted by the engine itself rather than a Rule —
#: (id, summary) for ``--list-rules`` and docs.
META_RULES: Tuple[Tuple[str, str], ...] = (
    (UNKNOWN_SUPPRESSION,
     "a `# repro: allow(...)` comment names an unknown rule id"),
    (PARSE_ERROR, "file does not parse / cannot be read"),
)

#: The rule modules, in the order their findings are documented.
_RULE_MODULES = (
    rules_determinism,
    rules_crypto,
    rules_faults,
    rules_iteration,
    rules_rngflow,
    rules_interproc,
)


def all_rules() -> List[Rule]:
    """Every audit rule (per-file and project), in stable id order."""
    rules: List[Rule] = []
    for module in _RULE_MODULES:
        rules.extend(module.RULES)
    return sorted(rules, key=lambda rule: rule.id)


def known_rule_ids() -> Set[str]:
    """Every id that may appear in findings or suppressions."""
    ids = {rule.id for rule in all_rules()}
    ids.update(meta_id for meta_id, _ in META_RULES)
    return ids


def find_rule(rule_id: str) -> Optional[Rule]:
    for rule in all_rules():
        if rule.id == rule_id:
            return rule
    return None


def family_docs() -> Dict[str, str]:
    """Family name → first paragraph of its rule module's docstring."""
    docs: Dict[str, str] = {}
    for module in _RULE_MODULES:
        families = {rule.family for rule in module.RULES}
        doc = (module.__doc__ or "").strip()
        first_paragraph = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
        for family in families:
            docs[family] = first_paragraph
    return docs


def render_rule_listing() -> str:
    """Human-readable catalogue for ``--list-rules``.

    Rules are grouped by family (each introduced by its module's
    docstring summary) and id-sorted within a family; the engine's meta
    rules close the listing.
    """
    docs = family_docs()
    by_family: Dict[str, List[Rule]] = {}
    for rule in all_rules():
        by_family.setdefault(rule.family, []).append(rule)
    lines: List[str] = []
    for family in sorted(by_family):
        lines.append(f"== {family} ==")
        if docs.get(family):
            lines.append(f"   {docs[family]}")
        for rule in sorted(by_family[family], key=lambda rule: rule.id):
            lines.append(f"{rule.id}  ({rule.family}) {rule.summary}")
            lines.append(f"        {rule.rationale}")
        lines.append("")
    lines.append("== engine ==")
    for meta_id, summary in META_RULES:
        lines.append(f"{meta_id}  (engine) {summary}")
    return "\n".join(lines)
