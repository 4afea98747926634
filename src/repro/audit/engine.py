"""AST rule engine: module contexts, findings, suppressions.

The engine parses each audited file once, builds a :class:`ModuleContext`
(syntax tree, import table, dotted module name, suppression comments) and
hands it to every registered :class:`Rule`. Rules walk the AST and emit
:class:`Finding` objects; the engine filters findings suppressed by
``# repro: allow(<rule-id>)`` comments on the finding's line and reports
unknown rule ids inside suppressions as findings themselves (``AUD001``),
so a typo cannot silently disable a rule.

Analysis is two-stage: each file yields a :class:`FileAnalysis` (its
per-file findings plus the call-graph facts of :mod:`repro.audit.graph`),
and the :class:`ProjectRule` subclasses then check properties of the
*assembled* project — call chains that cross files, which no single
:class:`ModuleContext` can see.

Scoping: most rules only make sense for specific packages (wall-clock is
banned in simulator code but ``time.monotonic`` is fine in telemetry).
The context derives the dotted module name from the file path (anything
under ``src/repro`` maps to ``repro.*``); fixture files outside the
package can impersonate a scope with a ``# repro: module=<dotted>``
pragma in their first lines, which is how the test suite exercises
scoped rules without living inside ``src/``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(\s*([^)]*?)\s*\)")
_MODULE_PRAGMA_RE = re.compile(r"#\s*repro:\s*module\s*=\s*([\w.]+)")

#: Meta rule ids emitted by the engine itself (not by a Rule subclass).
UNKNOWN_SUPPRESSION = "AUD001"
PARSE_ERROR = "AUD002"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Rule:
    """Base class for audit rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` states which repo invariant the rule protects — it is
    surfaced by ``repro-aai audit --list-rules`` and ``docs/AUDIT.md``.
    """

    id: str = ""
    family: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    A project rule sees the assembled :class:`repro.audit.graph.ProjectIndex`
    rather than one file, so it can follow call chains across module
    boundaries (the interprocedural ``DET``/``ST`` semantics of
    :mod:`repro.audit.rules_interproc`). Findings it emits still anchor to
    a concrete file/line and respect that line's ``# repro: allow(...)``
    suppressions — the engine filters them through the per-file
    suppression tables carried in the facts.
    """

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        # Project rules have no per-file component.
        return iter(())

    def check_project(self, index) -> Iterator[Finding]:
        raise NotImplementedError


class ModuleContext:
    """Everything a rule needs to know about one audited file."""

    def __init__(self, path: str, source: str, module: Optional[str] = None) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: ``{lineno: comment text}`` — actual COMMENT tokens, so prose
        #: *about* suppressions inside docstrings never activates one.
        self.comments = _comment_table(source)
        pragma = self._pragma_module()
        self.module = pragma or module or module_name_for(path)
        self.imports = _import_table(self.tree, self.module)

    def _pragma_module(self) -> Optional[str]:
        for lineno in sorted(self.comments):
            if lineno > 10:
                break
            match = _MODULE_PRAGMA_RE.search(self.comments[lineno])
            if match:
                return match.group(1)
        return None

    def in_module(self, *prefixes: str) -> bool:
        """True when this file's module falls under any dotted prefix."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    @property
    def is_repro_module(self) -> bool:
        return self.in_module("repro")

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted qualified name of a Name/Attribute expression, if known.

        ``import numpy as np`` + ``np.random.seed`` resolves to
        ``numpy.random.seed``; names that are not rooted in an import
        (locals, parameters) resolve to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``.

    Files under a ``src/repro`` tree map to the real package name; other
    files (tests, benchmarks, fixtures) get a path-derived pseudo-name so
    scoped rules simply don't apply to them unless a ``# repro: module=``
    pragma opts in.
    """
    normalized = os.path.normpath(os.path.abspath(path))
    pieces = normalized.split(os.sep)
    if "repro" in pieces:
        index = pieces.index("repro")
        if index > 0 and pieces[index - 1] == "src":
            pieces = pieces[index:]
    else:
        # Path-derived pseudo-name: last few components, dotted.
        pieces = pieces[-3:]
    dotted = ".".join(pieces)
    if dotted.endswith(".py"):
        dotted = dotted[: -len(".py")]
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _comment_table(source: str) -> Dict[int, str]:
    """Map line numbers to their ``#`` comment text (tokenize-accurate)."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except tokenize.TokenError:
        pass
    return comments


def _import_table(tree: ast.Module, module: str) -> Dict[str, str]:
    """Map local names to the dotted import they are rooted in."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the root name ``a``.
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.rsplit(".", node.level)[0] if module else ""
                base = f"{package}.{base}".strip(".") if base else package
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


# -- suppressions -----------------------------------------------------------


@dataclass
class Suppressions:
    """Per-line ``# repro: allow(...)`` comments for one file."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)

    def allows(self, line: int, rule_id: str) -> bool:
        return rule_id in self.by_line.get(line, set())


def parse_suppressions(
    ctx: ModuleContext, known_ids: Set[str]
) -> "tuple[Suppressions, List[Finding]]":
    """Extract suppression comments; report unknown rule ids (AUD001).

    A suppression silences exactly the named rule(s) on exactly its own
    line — there is no file- or block-level form, so every exception
    stays visible next to the code it excuses.
    """
    suppressions = Suppressions()
    findings: List[Finding] = []
    for lineno in sorted(ctx.comments):
        text = ctx.comments[lineno]
        match = _ALLOW_RE.search(text)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        for rule_id in sorted(ids):
            if rule_id not in known_ids:
                findings.append(
                    Finding(
                        rule=UNKNOWN_SUPPRESSION,
                        path=ctx.path,
                        line=lineno,
                        col=match.start() + 1,
                        message=(
                            f"suppression names unknown rule id {rule_id!r} "
                            "(see `repro-aai audit --list-rules`)"
                        ),
                    )
                )
        suppressions.by_line[lineno] = ids & known_ids
    return suppressions, findings


# -- file collection and the audit entry points -----------------------------

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name not in _SKIP_DIRS and not name.endswith(".egg-info")
            )
            files.extend(
                os.path.join(dirpath, name)
                for name in sorted(filenames)
                if name.endswith(".py")
            )
    return sorted(dict.fromkeys(files))


def _display_path(path: str, root: Optional[str]) -> str:
    """Posix-style path relative to ``root``, so findings read the same
    across checkouts and operating systems."""
    if root:
        try:
            path = os.path.relpath(path, root)
        except ValueError:
            pass
    return path.replace(os.sep, "/")


def split_rules(
    rules: Sequence[Rule],
) -> "tuple[List[Rule], List[ProjectRule]]":
    """Separate per-file rules from whole-program rules."""
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return file_rules, project_rules


@dataclass
class FileAnalysis:
    """One file's per-file findings plus its whole-program facts."""

    path: str
    module: str
    findings: List[Finding]
    facts: object  #: :class:`repro.audit.graph.ModuleFacts`


def analyze_source(
    source: str,
    path: str = "<memory>",
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    display_path: Optional[str] = None,
) -> FileAnalysis:
    """Run the per-file stage over one source blob.

    Findings and facts carry ``display_path`` (checkout-relative, stable
    across machines) when given; ``path`` is only used for parsing
    diagnostics. Only per-file rules run here — project rules need the
    assembled index (:func:`run_project_rules`).
    """
    from repro.audit.catalog import all_rules, known_rule_ids
    from repro.audit.graph import ModuleFacts, extract_facts

    if rules is None:
        rules = all_rules()
    file_rules, _ = split_rules(rules)
    display = display_path or path
    # Suppressions are checked against the whole catalogue, so a run
    # with a narrowed rule list still accepts every valid id.
    known = known_rule_ids()
    try:
        ctx = ModuleContext(path, source, module=module)
    except SyntaxError as exc:
        finding = Finding(
            rule=PARSE_ERROR,
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
        )
        facts = ModuleFacts(path=display, module=module or module_name_for(path))
        return FileAnalysis(
            path=display, module=facts.module, findings=[finding], facts=facts
        )
    suppressions, findings = parse_suppressions(ctx, known)
    for rule in file_rules:
        for finding in rule.check(ctx):
            if not suppressions.allows(finding.line, finding.rule):
                findings.append(finding)
    findings = [replace(finding, path=display) for finding in findings]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    facts = extract_facts(ctx, allowed=suppressions.by_line)
    facts.path = display
    return FileAnalysis(
        path=display, module=ctx.module, findings=findings, facts=facts
    )


def run_project_rules(
    analyses: Sequence[FileAnalysis],
    project_rules: Sequence[ProjectRule],
) -> List[Finding]:
    """Whole-program stage: assemble the index, run every project rule.

    Findings are filtered through the per-file suppression tables the
    analyses carry, so ``# repro: allow(...)`` works identically for
    per-file and project findings.
    """
    if not project_rules:
        return []
    from repro.audit.graph import ProjectIndex

    index = ProjectIndex([analysis.facts for analysis in analyses])
    by_path = {analysis.facts.path: analysis.facts for analysis in analyses}
    findings: List[Finding] = []
    for rule in project_rules:
        for finding in rule.check_project(index):
            facts = by_path.get(finding.path)
            if facts is not None and facts.allows(finding.line, [finding.rule]):
                continue
            findings.append(finding)
    return findings


def audit_source(
    source: str,
    path: str = "<memory>",
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Audit one in-memory source blob (the test-suite entry point).

    Project rules run over the blob as a one-module project, so
    single-file fixtures exercise them too (their cross-file power only
    shows under :func:`audit_paths`).
    """
    if rules is None:
        from repro.audit.catalog import all_rules

        rules = all_rules()
    analysis = analyze_source(source, path=path, module=module, rules=rules)
    _, project_rules = split_rules(rules)
    findings = list(analysis.findings)
    findings.extend(run_project_rules([analysis], project_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _analyze_file(
    filename: str,
    display: str,
    module: Optional[str],
    rules: Optional[Sequence[Rule]],
) -> FileAnalysis:
    from repro.audit.graph import ModuleFacts

    try:
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        finding = Finding(
            rule=PARSE_ERROR,
            path=display,
            line=1,
            col=1,
            message=f"file cannot be read: {exc}",
        )
        facts = ModuleFacts(path=display, module=module or display)
        return FileAnalysis(
            path=display, module=facts.module, findings=[finding], facts=facts
        )
    return analyze_source(
        source, path=filename, module=module, rules=rules, display_path=display
    )


def audit_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Audit every ``.py`` file under ``paths``; findings in stable order."""
    if root is None:
        root = os.getcwd()
    if rules is None:
        from repro.audit.catalog import all_rules

        rules = all_rules()
    _, project_rules = split_rules(rules)
    analyses = [
        _analyze_file(
            filename, _display_path(filename, root), module_name_for(filename),
            rules,
        )
        for filename in collect_files(paths)
    ]
    findings: List[Finding] = []
    for analysis in analyses:
        findings.extend(analysis.findings)
    findings.extend(run_project_rules(analyses, project_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
