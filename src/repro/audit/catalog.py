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
    rules_fastpath,
    rules_faults,
    rules_interproc,
    rules_iteration,
    rules_obs,
    rules_rngflow,
)
from repro.audit.engine import PARSE_ERROR, UNKNOWN_SUPPRESSION, Rule

#: Meta findings emitted by the engine itself rather than a Rule —
#: (id, severity, summary) for ``--list-rules`` and docs.
META_RULES: Tuple[Tuple[str, str, str], ...] = (
    (UNKNOWN_SUPPRESSION, "error",
     "a `# repro: allow(...)` comment names an unknown rule id"),
    (PARSE_ERROR, "error", "file does not parse / cannot be read"),
)

#: The rule modules, in the order their findings are documented.
_RULE_MODULES = (
    rules_determinism,
    rules_crypto,
    rules_faults,
    rules_iteration,
    rules_fastpath,
    rules_obs,
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
    ids.update(meta_id for meta_id, _, _ in META_RULES)
    return ids


def find_rule(rule_id: str) -> Optional[Rule]:
    for rule in all_rules():
        if rule.id == rule_id:
            return rule
    return None


def select_rules(
    select: Optional[List[str]] = None,
    ignore: Optional[List[str]] = None,
) -> List[Rule]:
    """The catalogue narrowed by ``--select``/``--ignore`` id lists.

    Unknown ids raise ``KeyError`` listing the offenders — the CLI turns
    that into exit code 2 so a typo cannot silently audit nothing.
    """
    known = known_rule_ids()
    unknown = sorted(
        {rule_id for rule_id in [*(select or []), *(ignore or [])]} - known
    )
    if unknown:
        raise KeyError(
            f"unknown rule id(s): {', '.join(unknown)} "
            "(see `repro-aai audit --list-rules`)"
        )
    rules = all_rules()
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.id in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.id not in dropped]
    return rules


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
            lines.append(f"{rule.id}  [{rule.severity:7s}]  ({rule.family}) "
                         f"{rule.summary}")
            lines.append(f"        {rule.rationale}")
        lines.append("")
    lines.append("== engine ==")
    for meta_id, severity, summary in META_RULES:
        lines.append(f"{meta_id}  [{severity:7s}]  (engine) {summary}")
    return "\n".join(lines)
