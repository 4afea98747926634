"""RNG-stream provenance rules (RNG*): where stream labels come from.

Every random value in the system flows from a labeled
:class:`repro.net.rng.RngFactory` stream; the *label* is therefore part
of the seed schedule. Two failure modes silently corrupt it:

* a label interpolating ambient state (a timestamp, `os.getpid()`,
  `id(obj)`, an unseeded draw) makes the derived stream differ between
  runs and between workers, defeating the whole point of labeling;
* two call sites reusing one label within a run draw from the *same*
  stream while believing themselves independent — correlated "independent"
  trials are precisely what invalidates the paper's Hoeffding-bound
  guarantees (§7) without failing a single equality test.

The contract these rules encode: no stream/spawn key reads ambient
state, and every constant key is unique per module. The fastpath engine deliberately
*reconstructs* streams under the event engine's labels, which is why
duplicate detection is scoped per module, not project-wide.

Call-site detection is heuristic on purpose: a ``.stream(...)`` /
``.spawn(...)`` method call counts when its receiver expression names an
RNG (``rng``/``factory``/``RngFactory``), so unrelated APIs with the
same method names (``FaultSchedule.stream``) stay out of scope;
``.stream_seed(...)``/``.nonce_source(...)`` are distinctive enough to
match unconditionally.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.audit.engine import Finding, ModuleContext, Rule
from repro.audit.rules_determinism import (
    ENTROPY_SOURCES,
    GLOBAL_RANDOM_FUNCTIONS,
    MONOTONIC_CLOCK,
    WALL_CLOCK,
)

#: Method names that consume a stream label as their first argument.
_LABEL_METHODS = frozenset({"stream", "spawn", "stream_seed", "nonce_source"})

#: Methods distinctive enough to match without a receiver hint.
_ALWAYS_MATCH = frozenset({"stream_seed", "nonce_source"})

_RECEIVER_HINT = re.compile(r"rng|factory", re.IGNORECASE)

#: Stream-namespace key per method: ``stream`` and ``stream_seed`` share
#: one keyspace (``stream`` is defined in terms of ``stream_seed``);
#: ``spawn`` and ``nonce_source`` prefix their material differently.
_NAMESPACE = {
    "stream": "stream",
    "stream_seed": "stream",
    "spawn": "spawn",
    "nonce_source": "nonce",
}

#: Builtins whose value depends on interpreter state, not inputs.
_IMPURE_BUILTINS = frozenset({"id", "hash", "object", "vars", "globals", "locals"})


def _label_sites(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.Call, str, ast.AST]]:
    """Yield ``(call, method, label_expr)`` for RNG label call sites."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _LABEL_METHODS:
            continue
        if func.attr not in _ALWAYS_MATCH:
            if not _RECEIVER_HINT.search(ast.unparse(func.value)):
                continue
        yield node, func.attr, node.args[0]


def _nondeterministic_call(ctx: ModuleContext, call: ast.Call) -> Optional[str]:
    """Name of the nondeterministic source a call draws from, if any."""
    qualified = ctx.resolve(call.func)
    if qualified is not None:
        if (
            qualified in WALL_CLOCK
            or qualified in MONOTONIC_CLOCK
            or qualified in ENTROPY_SOURCES
            or qualified in GLOBAL_RANDOM_FUNCTIONS
            or qualified.startswith("secrets.")
            or qualified in {"os.getpid", "os.getppid", "threading.get_ident"}
        ):
            return qualified
        return None
    func = call.func
    if isinstance(func, ast.Name) and func.id in _IMPURE_BUILTINS:
        return func.id
    return None


def _constant_label(expr: ast.AST) -> Optional[str]:
    """The label's exact string when it is fully constant, else ``None``."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts: List[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                return None
        return "".join(parts)
    return None


class LabelEntropyRule(Rule):
    """RNG001 — a stream label interpolates nondeterministic state."""

    id = "RNG001"
    family = "rng-flow"
    summary = "RNG stream label built from nondeterministic state"
    rationale = (
        "Stream labels are part of the seed schedule: interpolating a "
        "timestamp, pid, `id(...)`, or an unseeded draw into a "
        "`stream()`/`spawn()` key makes the derived stream differ per "
        "run and per worker. Build labels from literals, loop indices, "
        "and already-derived seeds only."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.is_repro_module:
            return
        for call, method, label in _label_sites(ctx):
            for sub in ast.walk(label):
                if isinstance(sub, ast.Call):
                    source = _nondeterministic_call(ctx, sub)
                    if source is not None:
                        yield self.finding(
                            ctx,
                            call,
                            f"`{method}()` label interpolates "
                            f"nondeterministic `{source}`; derive labels "
                            "from literals, indices, or derived seeds",
                        )
                        break


class DuplicateLabelRule(Rule):
    """RNG002 — one stream label used at two call sites in a module."""

    id = "RNG002"
    family = "rng-flow"
    summary = "duplicate RNG stream label within one module"
    rationale = (
        "Two call sites deriving the same label draw from the *same* "
        "stream while looking independent — correlated draws silently "
        "invalidate the independence the Hoeffding bounds assume. Labels "
        "are compared per module and per namespace "
        "(`stream`/`spawn`/`nonce`), so the fastpath engine's deliberate "
        "stream reconstruction across modules stays legal."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.is_repro_module:
            return
        first_use: Dict[Tuple[str, str], int] = {}
        for call, method, label in _label_sites(ctx):
            constant = _constant_label(label)
            if constant is None:
                continue
            key = (_NAMESPACE[method], constant)
            if key in first_use:
                yield self.finding(
                    ctx,
                    call,
                    f"label {constant!r} already used for a "
                    f"`{key[0]}` stream at line {first_use[key]}; "
                    "same label = same stream = correlated draws",
                )
            else:
                first_use[key] = call.lineno


RULES = (LabelEntropyRule(), DuplicateLabelRule())
