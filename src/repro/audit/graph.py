"""Whole-program import/call graph over the audited file set.

A per-file rule sees one :class:`~repro.audit.engine.ModuleContext` and
nothing else, so a function that reaches ``time.time()`` through a
helper in another module is invisible — each file looks innocent on its
own. This module builds the cross-file view the call-chain rules
(:mod:`repro.audit.rules_interproc`) walk:

* :func:`extract_facts` distils one parsed module into
  :class:`ModuleFacts` — its functions/methods, every call site each one
  makes and every dotted name it uses (qualified through the import
  table where possible), its export table (imports *plus* own defs,
  which is what makes re-exports through ``__init__`` resolvable), and
  its class bases (for method resolution on ``self``).
* :class:`ProjectIndex` assembles the facts of every audited file and
  resolves call sites across module boundaries: ``from repro.topology
  import Route`` chases the ``__init__`` re-export to
  ``repro.topology.graph.Route``, ``self.helper()`` resolves through the
  enclosing class and its project-resolvable bases, and instantiating a
  project class resolves to its ``__init__``. Resolution is a static
  under-approximation by design — calls through arbitrary objects or
  callbacks are dropped, never guessed — so every edge in the graph is a
  call that really can happen.

Cycles (mutually recursive functions, circular imports) are handled by
the breadth-first reachability walk in :func:`find_sink_chains`, which
visits every function at most once per query.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import ast

#: Synthetic function name for a module's import-time body: calls made at
#: module scope (``RULES = build_rules()``) belong to this node.
MODULE_BODY = "<module>"

#: Call-site kinds; see :class:`CallSite`.
CALL_DOTTED = "dotted"  # resolved through the import table: `util.helper`
CALL_LOCAL = "local"  # bare name, possibly a same-module def: `helper()`
CALL_SELF = "self"  # method on self: `self.helper()`


@dataclass(frozen=True)
class CallSite:
    """One call expression, or one dotted-name use, inside a function."""

    kind: str
    target: str
    lineno: int
    col: int


@dataclass
class FunctionNode:
    """One function, method, or module body in the call graph."""

    qual: str  #: ``module.func``, ``module.Class.method``, ``module.<module>``
    module: str
    name: str
    cls: Optional[str]
    lineno: int
    #: Call edges (resolved against the project by :class:`ProjectIndex`).
    calls: List[CallSite] = field(default_factory=list)
    #: Every maximal import-rooted dotted name used, called or not
    #: (``os.urandom`` passed as a value counts): the sink candidates.
    uses: List[CallSite] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the project passes need to know about one file.

    ``allowed`` carries the file's ``# repro: allow(...)`` lines so
    project rules can honor suppressions (and sanctioned sinks) without
    re-reading the source.
    """

    path: str
    module: str
    functions: List[FunctionNode] = field(default_factory=list)
    exports: Dict[str, str] = field(default_factory=dict)
    class_bases: Dict[str, List[str]] = field(default_factory=dict)
    allowed: Dict[int, List[str]] = field(default_factory=dict)

    def allows(self, lineno: int, rule_ids: Sequence[str]) -> bool:
        """True when any of ``rule_ids`` is suppressed on ``lineno``."""
        allowed = self.allowed.get(lineno, ())
        return any(rule_id in allowed for rule_id in rule_ids)


# -- fact extraction --------------------------------------------------------


def extract_facts(ctx, allowed: Optional[Dict[int, Set[str]]] = None) -> ModuleFacts:
    """Distil a parsed :class:`~repro.audit.engine.ModuleContext` into facts."""
    facts = ModuleFacts(
        path=ctx.path,
        module=ctx.module,
        exports=dict(ctx.imports),
        allowed={line: sorted(ids) for line, ids in (allowed or {}).items() if ids},
    )
    #: Nodes owned by named functions — everything else is module body.
    owned: Set[int] = set()
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.exports[stmt.name] = f"{ctx.module}.{stmt.name}"
            facts.functions.append(_function_node(ctx, stmt, None, owned))
        elif isinstance(stmt, ast.ClassDef):
            facts.exports[stmt.name] = f"{ctx.module}.{stmt.name}"
            facts.class_bases[stmt.name] = [
                base_name
                for base in stmt.bases
                if (base_name := ctx.resolve(base) or _bare_name(base))
            ]
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    facts.functions.append(
                        _function_node(ctx, item, stmt.name, owned)
                    )
    # Decorators, class-body statements and import-time code all run at
    # module scope.
    body_node = FunctionNode(
        qual=f"{ctx.module}.{MODULE_BODY}",
        module=ctx.module,
        name=MODULE_BODY,
        cls=None,
        lineno=1,
    )
    _collect(ctx, ctx.tree, body_node, owned)
    if body_node.calls or body_node.uses:
        facts.functions.append(body_node)
    return facts


def _bare_name(node: ast.AST) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _function_node(ctx, node, cls: Optional[str], owned: Set[int]) -> FunctionNode:
    qual = (
        f"{ctx.module}.{cls}.{node.name}" if cls else f"{ctx.module}.{node.name}"
    )
    fn = FunctionNode(
        qual=qual,
        module=ctx.module,
        name=node.name,
        cls=cls,
        lineno=node.lineno,
    )
    # Default-argument expressions evaluate at def time in the enclosing
    # scope, but a sink used there still executes — attribute them too.
    defaults = [d for d in [*node.args.defaults, *node.args.kw_defaults] if d]
    for part in [*node.body, *defaults]:
        owned.add(id(part))
        _collect(ctx, part, fn, set())
    return fn


def _collect(ctx, root: ast.AST, fn: FunctionNode, skip: Set[int]) -> None:
    """Add the calls and dotted uses under ``root`` to ``fn``, in source
    order, skipping the subtrees in ``skip`` (nested defs roll up)."""
    inner: Set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call):
            site = _classify_call(ctx, node)
            if site is not None:
                fn.calls.append(site)
        elif isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in inner:
            # Only the maximal chain counts: `np.random.seed` is one use of
            # `numpy.random.seed`, not also of `numpy.random` and `numpy`.
            qualified = ctx.resolve(node)
            if qualified is not None:
                fn.uses.append(_site(ctx, node, CALL_DOTTED, qualified))
        if isinstance(node, ast.Attribute):
            inner.add(id(node.value))
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _site(ctx, node: ast.AST, kind: str, target: str) -> CallSite:
    return CallSite(
        kind=kind,
        target=target,
        lineno=node.lineno,
        col=node.col_offset + 1,
    )


def _classify_call(ctx, call: ast.Call) -> Optional[CallSite]:
    func = call.func
    if isinstance(func, ast.Name):
        imported = ctx.imports.get(func.id)
        kind, target = (
            (CALL_DOTTED, imported) if imported else (CALL_LOCAL, func.id)
        )
    elif isinstance(func, ast.Attribute):
        parts: List[str] = []
        inner = func
        while isinstance(inner, ast.Attribute):
            parts.append(inner.attr)
            inner = inner.value
        if isinstance(inner, ast.Name) and inner.id == "self" and len(parts) == 1:
            kind, target = CALL_SELF, parts[0]
        else:
            resolved = ctx.resolve(func)
            if resolved is None:
                # A call through an arbitrary object (`obj.method()`):
                # statically unresolvable, dropped by design.
                return None
            kind, target = CALL_DOTTED, resolved
    else:
        return None
    return _site(ctx, call, kind, target)


# -- the assembled project --------------------------------------------------

#: Export chains longer than this are cut (defensive: cyclic re-exports).
_MAX_EXPORT_HOPS = 16


class ProjectIndex:
    """Cross-module resolution over the facts of every audited file."""

    def __init__(self, facts: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        self.functions: Dict[str, FunctionNode] = {}
        for module_facts in facts:
            self.modules[module_facts.module] = module_facts
            for fn in module_facts.functions:
                self.functions[fn.qual] = fn
        #: Module names sorted longest-first so prefix matching is maximal.
        self._module_names = sorted(self.modules, key=len, reverse=True)

    def iter_functions(self) -> Iterator[FunctionNode]:
        for qual in sorted(self.functions):
            yield self.functions[qual]

    def facts_for(self, module: str) -> Optional[ModuleFacts]:
        return self.modules.get(module)

    def _split_module(self, dotted: str) -> "Optional[Tuple[str, List[str]]]":
        """Split ``dotted`` into (analyzed module, remaining attr parts)."""
        for name in self._module_names:
            if dotted == name:
                return name, []
            if dotted.startswith(name + "."):
                return name, dotted[len(name) + 1 :].split(".")
        return None

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Resolve a dotted name to a project function qual, if it is one.

        Chases re-exports: ``repro.topology.Route.walk`` follows the
        package ``__init__``'s ``from .graph import Route`` to
        ``repro.topology.graph.Route.walk``. Class references resolve to
        the class's ``__init__`` (instantiation executes it). Returns
        ``None`` for externals and anything unresolvable.
        """
        seen: Set[str] = set()
        for _ in range(_MAX_EXPORT_HOPS):
            if dotted in seen:
                return None
            seen.add(dotted)
            split = self._split_module(dotted)
            if split is None:
                return None
            module, parts = split
            if not parts:
                return None
            direct = self._lookup_in_module(module, parts)
            if direct is not None:
                return direct
            target = self.modules[module].exports.get(parts[0])
            here = f"{module}.{parts[0]}"
            if target is None or target == here:
                return None
            dotted = ".".join([target, *parts[1:]])
        return None

    def _lookup_in_module(
        self, module: str, parts: List[str]
    ) -> Optional[str]:
        """``parts`` as a function/method/class defined in ``module``."""
        qual = f"{module}.{'.'.join(parts)}"
        if qual in self.functions:
            return qual
        facts = self.modules[module]
        if len(parts) == 1 and parts[0] in facts.class_bases:
            init = f"{module}.{parts[0]}.__init__"
            return init if init in self.functions else None
        return None

    def resolve_method(self, module: str, cls: str, name: str) -> Optional[str]:
        """Resolve ``self.<name>()`` through ``cls`` and its bases."""
        seen: Set[Tuple[str, str]] = set()
        queue: "deque[Tuple[str, str]]" = deque([(module, cls)])
        while queue:
            mod, klass = queue.popleft()
            if (mod, klass) in seen:
                continue
            seen.add((mod, klass))
            qual = f"{mod}.{klass}.{name}"
            if qual in self.functions:
                return qual
            facts = self.modules.get(mod)
            if facts is None:
                continue
            for base in facts.class_bases.get(klass, ()):
                located = self._locate_class(mod, base)
                if located is not None:
                    queue.append(located)
        return None

    def _locate_class(self, module: str, base: str) -> Optional[Tuple[str, str]]:
        """Find the (module, class) a base-class reference points at."""
        if "." not in base:
            facts = self.modules[module]
            if base in facts.class_bases:
                return module, base
            base = facts.exports.get(base, base)
            if "." not in base:
                return None
        split = self._split_module(base)
        if split is None:
            return None
        # Chase one re-export hop at a time until the class is local.
        for _ in range(_MAX_EXPORT_HOPS):
            mod, parts = split
            if len(parts) != 1:
                return None
            name = parts[0]
            if name in self.modules[mod].class_bases:
                return mod, name
            target = self.modules[mod].exports.get(name)
            if target is None or target == f"{mod}.{name}":
                return None
            split = self._split_module(target)
            if split is None:
                return None
        return None

    def resolve_call(
        self, caller: FunctionNode, call: CallSite
    ) -> Optional[str]:
        """Project function qual a call site lands on, if resolvable."""
        if call.kind == CALL_SELF:
            if caller.cls is None:
                return None
            return self.resolve_method(caller.module, caller.cls, call.target)
        if call.kind == CALL_LOCAL:
            return self.resolve_dotted(f"{caller.module}.{call.target}")
        return self.resolve_dotted(call.target)


# -- reachability -----------------------------------------------------------

#: Chains longer than this are cut; deep enough for any real helper stack.
_MAX_CHAIN_DEPTH = 24


def find_sink_chains(
    index: ProjectIndex,
    start: FunctionNode,
    is_sink: Callable[[CallSite, FunctionNode], Optional[str]],
) -> List[Tuple[List[str], CallSite, FunctionNode, CallSite]]:
    """Shortest call chains from ``start`` to each reachable sink.

    ``is_sink(use, holder)`` inspects a dotted use inside ``holder`` and
    returns the sink's canonical name (or ``None``). A sink ``start``
    uses itself is a chain of length 0, reported once per use; a sink
    further down is reported once per distinct name, via the BFS-shortest
    chain.

    Returns ``(chain_of_quals, sink_use, sink_holder, anchor)`` tuples;
    ``anchor`` is the sink use itself for length 0, otherwise the call
    in ``start`` that begins the chain. Cycles terminate because each
    function is visited at most once.
    """
    results: List[Tuple[List[str], CallSite, FunctionNode, CallSite]] = [
        ([start.qual], use, start, use)
        for use in start.uses
        if is_sink(use, start) is not None
    ]
    seen_sinks: Set[str] = set()
    visited: Set[str] = {start.qual}
    queue: "deque[Tuple[FunctionNode, List[str], Optional[CallSite]]]" = deque(
        [(start, [start.qual], None)]
    )
    while queue:
        node, chain, first_hop = queue.popleft()
        if len(chain) > _MAX_CHAIN_DEPTH:
            continue
        if first_hop is not None:
            for use in node.uses:
                sink = is_sink(use, node)
                if sink is not None and sink not in seen_sinks:
                    seen_sinks.add(sink)
                    results.append((list(chain), use, node, first_hop))
        for call in node.calls:
            callee = index.resolve_call(node, call)
            if callee is not None and callee not in visited:
                visited.add(callee)
                queue.append(
                    (index.functions[callee], [*chain, callee], first_hop or call)
                )
    return results
