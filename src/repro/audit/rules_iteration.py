"""Iteration-order rules (ITER*): unordered collections feeding results.

CPython randomizes ``str`` hashing per process (PYTHONHASHSEED), so the
iteration order of a ``set`` of strings differs between the parent and a
pool worker. A loop over a set that appends to results, emits report
rows, or consumes RNG draws therefore produces different output — or the
same output with a differently-advanced RNG stream — depending on which
process ran it. ``dict`` iteration is insertion-ordered, so dict loops
are not flagged; the ``--jobs`` merges that fill dicts are pinned byte
for byte by the jobs-invariance gate instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.audit.engine import Finding, ModuleContext, Rule

#: Order-sensitive consumers of a single iterable argument.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate"})


def _is_unordered(node: ast.AST, ctx: ModuleContext) -> bool:
    """True for expressions whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # `set(...)`/`frozenset(...)` — only when the name still means
        # the builtin (not rebound by an import).
        return (
            node.func.id in {"set", "frozenset"}
            and node.func.id not in ctx.imports
        )
    return False


def _iteration_sites(tree: ast.Module) -> Iterator[ast.AST]:
    """Expressions whose iteration order reaches program output."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_CALLS
            and len(node.args) == 1
        ):
            yield node.args[0]


class UnorderedSetIterationRule(Rule):
    """ITER001 — iterating a set where order can reach results."""

    id = "ITER001"
    family = "iteration-order"
    summary = "iteration over a `set`/`frozenset` (hash-order dependent)"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED for strings, so a "
        "loop over a set can emit rows or consume RNG draws in a "
        "different order in a pool worker than in the parent — breaking "
        "the byte-identical `--jobs N` guarantee. Wrap the set in "
        "`sorted(...)` or keep an ordered container."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for site in _iteration_sites(ctx.tree):
            if _is_unordered(site, ctx):
                yield self.finding(
                    ctx,
                    site,
                    "iteration over an unordered set; use `sorted(...)` "
                    "(or an ordered container) so output and RNG "
                    "consumption order are reproducible",
                )


RULES: List[Rule] = [UnorderedSetIterationRule()]
