"""Fast-path rules (FP*): per-packet Python loops in batch-eligible code.

The vectorized fast path (``repro.net.fastpath``) and the closed-form
Monte-Carlo layer (``repro.mc``) exist precisely so that per-packet work
is drawn in batches (numpy blocks, multinomials) instead of one Python
iteration per packet. A ``for ... in range(<packet count>)`` loop in
those modules usually marks work that regressed to the per-packet idiom
the fast path was built to replace — each iteration costs a Python frame
and, worse, tends to grow per-iteration attribute lookups and RNG calls
that the batched equivalents amortize.

Loops that are genuinely per-round by design carry a
``# repro: allow(FP001)`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.audit.engine import Finding, ModuleContext, Rule

#: Modules expected to batch per-packet work rather than loop over it.
FASTPATH_SCOPE = ("repro.net.fastpath", "repro.mc", "repro.experiments")

#: Identifier fragments that mark a bound as a packet/round count.
_PACKET_SCALE_FRAGMENTS = (
    "packet",
    "round",
    "checkpoint",
    "horizon",
    "sequence",
)


def _bound_name(node: ast.AST) -> Optional[str]:
    """Terminal identifier of a ``range`` bound, if it has one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # `range(len(packets))` — look through a single `len(...)`.
        if node.func.id == "len" and len(node.args) == 1:
            return _bound_name(node.args[0])
    return None


def _is_packet_scale(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _PACKET_SCALE_FRAGMENTS)


class PerPacketLoopRule(Rule):
    """FP001 — per-packet ``range`` loop in fast-path-eligible code."""

    id = "FP001"
    family = "fastpath"
    severity = "warning"
    summary = "per-packet Python loop in batch-eligible module"
    rationale = (
        "Modules on the vectorized fast path batch per-packet draws "
        "(numpy blocks, grouped multinomials); a `for ... in "
        "range(<packets>)` loop there pays one Python frame per packet "
        "and usually re-introduces the per-packet RNG/attribute costs "
        "the fast path removes. Batch the work, or mark a deliberately "
        "per-round driver loop with `# repro: allow(FP001)`."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_module(*FASTPATH_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            call = node.iter
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"
                and call.func.id not in ctx.imports
            ):
                continue
            for bound in call.args:
                name = _bound_name(bound)
                if _is_packet_scale(name):
                    yield self.finding(
                        ctx,
                        node,
                        f"`range({name})` loops Python once per packet; "
                        "draw the per-packet quantities in a batch "
                        "(or allow a deliberate per-round driver loop)",
                    )
                    break


RULES: List[Rule] = [PerPacketLoopRule()]
