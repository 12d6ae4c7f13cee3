"""The analysis driver: file discovery, parsing, rule dispatch, reporting.

The driver owns everything the rules share: the parsed module set, a parent
map over each AST (so rules can ask "am I inside ``__init__``?"), a local
import table (so ``from time import sleep`` and ``import time`` are the same
fact), and cross-module lookups such as the declared ``Settings`` fields.

Running an analysis is pure: no module under analysis is ever imported —
everything is read from source, which is what lets the checker lint code
whose import would have side effects (servers, storage engines).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, SuppressedFinding
from repro.analysis.registry import Rule, all_rules
from repro.analysis.suppressions import (
    MALFORMED_RULE,
    STALE_RULE,
    SuppressionIndex,
    collect_suppressions,
)

#: Pseudo-rule id for files the parser rejects.
PARSE_RULE = "parse-error"

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache"}


@dataclass
class ModuleContext:
    """One parsed source file plus the derived facts rules keep asking for."""

    path: Path  # absolute path on disk
    display: str  # the path as reported in findings
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    _parents: Dict[int, ast.AST] = field(default_factory=dict)
    _imports: Optional[Dict[str, str]] = None

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    # -- structure helpers ---------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Enclosing nodes, innermost first (``node`` excluded)."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def at_module_scope(self, node: ast.AST) -> bool:
        """Whether ``node`` executes at import time (module or class body)."""
        return self.enclosing_function(node) is None

    # -- name resolution ------------------------------------------------------

    @property
    def imports(self) -> Dict[str, str]:
        """Local name → fully qualified imported name, module-wide.

        ``import time`` maps ``time -> time``; ``from repro.obs import
        metrics as obs_metrics`` maps ``obs_metrics -> repro.obs.metrics``;
        ``from time import sleep`` maps ``sleep -> time.sleep``.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        table[local] = alias.name if alias.asname else local
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    for alias in node.names:
                        table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression with the import table applied.

        ``obs_metrics.counter`` resolves to ``repro.obs.metrics.counter``;
        names never imported resolve to themselves (``self.x`` → ``self.x``).
        Returns ``None`` for expressions that are not plain dotted names.
        """
        parts: List[str] = []
        current: ast.AST = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        parts[0] = self.imports.get(parts[0], parts[0])
        return ".".join(parts)

    def relative_to(self, *suffix: str) -> bool:
        """Whether this module's path ends with the given parts."""
        return self.path.parts[-len(suffix):] == suffix


@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: List[Finding]
    suppressed: List[SuppressedFinding]
    files: int
    rules: List[Rule]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "files_scanned": self.files,
            "rules": [{"id": r.id, "summary": r.summary} for r in self.rules],
            "findings": [f.to_json() for f in sorted(self.findings)],
            "suppressed": [s.to_json() for s in self.suppressed],
            "summary": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": self.by_rule(),
            },
        }

    def render_human(self) -> str:
        lines = [f.render() for f in sorted(self.findings)]
        if self.suppressed:
            lines.append("")
            lines.append(f"suppressed ({len(self.suppressed)} intentional exceptions):")
            for s in sorted(self.suppressed, key=lambda s: s.finding):
                lines.append(f"  {s.finding.render()}  [allowed: {s.reason}]")
        lines.append("")
        verdict = "clean" if not self.findings else "FAILED"
        lines.append(
            f"repro.analysis: {verdict} — {len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, {self.files} file(s) scanned"
        )
        return "\n".join(lines)


class AnalysisSession:
    """Shared state of one run: the module set plus cross-module lookups."""

    def __init__(self, modules: Sequence[ModuleContext]):
        self.modules = list(modules)
        self._settings_fields: Optional[Set[str]] = None
        self._fault_sites: Optional[Set[str]] = None
        self._fault_sites_resolved = False

    # -- cross-module facts ---------------------------------------------------

    def settings_fields(self) -> Optional[Set[str]]:
        """Declared field and method names of the ``Settings`` dataclass.

        Looked up in the scanned module set first (so fixtures can carry
        their own ``settings.py``), then on disk next to the ``repro``
        package of any scanned module.  ``None`` when no declaration can be
        found — the settings-knob rule then skips rather than guessing.
        """
        if self._settings_fields is None:
            tree = self._find_settings_tree()
            self._settings_fields = _settings_declaration(tree) if tree else None
        return self._settings_fields

    def _find_settings_tree(self) -> Optional[ast.Module]:
        for module in self.modules:
            if module.path.name == "settings.py" and _settings_declaration(module.tree):
                return module.tree
        for module in self.modules:
            for ancestor in module.path.parents:
                candidate = ancestor / "repro" / "engine" / "optimizer" / "settings.py"
                if candidate.is_file():
                    try:
                        return ast.parse(candidate.read_text(encoding="utf-8"))
                    except SyntaxError:  # pragma: no cover - tree is lint-clean
                        return None
        return None

    def fault_sites(self) -> Optional[Set[str]]:
        """Declared fault-site names (the ``SITES`` dict of the faults package).

        Looked up in the scanned module set first (so fixtures can carry
        their own ``sites.py``), then on disk next to the ``repro`` package
        of any scanned module.  ``None`` when no declaration can be found —
        the fault-site-registered rule then skips rather than guessing.
        """
        if not self._fault_sites_resolved:
            self._fault_sites_resolved = True
            tree = self._find_fault_sites_tree()
            self._fault_sites = _fault_declaration(tree) if tree else None
        return self._fault_sites

    def _find_fault_sites_tree(self) -> Optional[ast.Module]:
        for module in self.modules:
            if module.path.name == "sites.py" and _fault_declaration(module.tree):
                return module.tree
        for module in self.modules:
            for ancestor in module.path.parents:
                candidate = ancestor / "repro" / "faults" / "sites.py"
                if candidate.is_file():
                    try:
                        return ast.parse(candidate.read_text(encoding="utf-8"))
                    except SyntaxError:  # pragma: no cover - tree is lint-clean
                        return None
        return None


def _fault_declaration(tree: ast.Module) -> Optional[Set[str]]:
    """Literal string keys of a module-level ``SITES = {...}`` dict, if any."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == "SITES" for t in targets):
            continue
        if not isinstance(value, ast.Dict):
            return None
        names: Set[str] = set()
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
        return names or None
    return None


def _settings_declaration(tree: ast.Module) -> Optional[Set[str]]:
    """Field + method names of ``class Settings`` in ``tree``, if present."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Settings":
            names: Set[str] = set()
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
            return names
    return None


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def _display_path(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def load_module(path: Path) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    """Parse one file; returns (context, None) or (None, parse finding)."""
    display = _display_path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(
            file=display,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            rule=PARSE_RULE,
            message=f"file does not parse: {error.msg}",
        )
    return ModuleContext(path, display, source, tree, collect_suppressions(source)), None


def analyze_paths(
    paths: Sequence[Path], rule_ids: Optional[Sequence[str]] = None
) -> Report:
    """Run the (optionally filtered) rule set over ``paths``."""
    rules = all_rules()
    if rule_ids:
        unknown = sorted(set(rule_ids) - {r.id for r in rules})
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [r for r in rules if r.id in set(rule_ids)]

    modules: List[ModuleContext] = []
    findings: List[Finding] = []
    files = discover_files(paths)
    for path in files:
        module, parse_finding = load_module(path)
        if parse_finding is not None:
            findings.append(parse_finding)
        if module is not None:
            modules.append(module)

    session = AnalysisSession(modules)
    suppressed: List[SuppressedFinding] = []
    for module in modules:
        for rule in rules:
            for raw in rule.check(module, session):
                claim = module.suppressions.claim(raw.line, raw.rule)
                if claim is not None:
                    suppressed.append(SuppressedFinding(raw, claim.reason))
                else:
                    findings.append(raw)
        # Suppression hygiene is checked per module, after every rule ran.
        for attempt in module.suppressions.malformed:
            findings.append(
                Finding(
                    file=module.display,
                    line=attempt.comment_line,
                    col=0,
                    rule=MALFORMED_RULE,
                    message=(
                        "unparseable suppression; the form is "
                        "`# repro: allow(<rule-id>): <reason>` (reason required)"
                    ),
                )
            )
        known_ids = {r.id for r in all_rules()} | {PARSE_RULE}
        for stale in module.suppressions.stale():
            if stale.rule not in known_ids:
                findings.append(
                    Finding(
                        file=module.display,
                        line=stale.comment_line,
                        col=0,
                        rule=MALFORMED_RULE,
                        message=f"suppression names unknown rule {stale.rule!r}",
                    )
                )
            elif not rule_ids or stale.rule in {r.id for r in rules}:
                # Only report staleness for rules that actually ran: under
                # --rule filtering an un-run rule's allow is not evidence.
                findings.append(
                    Finding(
                        file=module.display,
                        line=stale.comment_line,
                        col=0,
                        rule=STALE_RULE,
                        message=(
                            f"suppression of {stale.rule!r} matches no finding; "
                            "delete it or re-justify it"
                        ),
                    )
                )
    return Report(
        findings=sorted(findings),
        suppressed=sorted(suppressed, key=lambda s: s.finding),
        files=len(files),
        rules=rules,
    )
