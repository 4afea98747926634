"""Fault-handling hygiene rules (FI*): no silently swallowed exceptions.

The robustness layer (docs/ROBUSTNESS.md) turns malformed traffic into
*counted* degraded-mode events — :meth:`repro.net.node.Node.record_fault`,
drop-with-metric at the deliver boundary — never into silence. A handler
that catches everything and does nothing defeats both halves of that
contract: real bugs (engine errors, configuration mistakes) disappear
along with the adversarial inputs the handler meant to tolerate, and the
``faults_seen`` accounting the chaos gate audits is never incremented.
Handlers must either narrow what they catch or visibly account for the
event (metric, counter, log, re-raise).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.audit.engine import Finding, ModuleContext, Rule

#: Exception names whose blanket capture the rule flags.
_BLANKET = ("Exception", "BaseException")


def _is_blanket(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception:``, and tuples thereof."""
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(node, ast.Name) and node.id in _BLANKET for node in types
    )


def _swallows(body: list) -> bool:
    """True when the handler body does nothing observable."""
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis
        ):
            continue
        return False
    return True


class SilentSwallowRule(Rule):
    """FI001 — blanket exception handler with a do-nothing body."""

    id = "FI001"
    family = "faults"
    summary = "bare/blanket `except` silently swallows all exceptions"
    rationale = (
        "`except:`/`except Exception:` with a pass/.../continue body hides "
        "engine bugs alongside the adversarial inputs it meant to "
        "tolerate and bypasses the degraded-mode fault accounting "
        "(`Node.record_fault`, docs/ROBUSTNESS.md). Catch the narrow "
        "exception, or count/log the event before discarding it."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.is_repro_module:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_blanket(node) and _swallows(node.body):
                caught = "bare `except`" if node.type is None else (
                    "blanket `except Exception`"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{caught} with a do-nothing body swallows every "
                    "failure silently; narrow the exception type or "
                    "account for the event (metric / record_fault / "
                    "re-raise)",
                )


RULES = (SilentSwallowRule(),)
