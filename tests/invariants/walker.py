"""The one pass over source that every invariant test shares.

Each ``test_<rule>.py`` beside this module is one engine contract: a
``check(module)`` generator of :class:`Finding`\\ s plus the tests that hold
the committed tree and a bad fixture to it.  This module parses every
``src/repro/**.py`` once per session (nothing under test is imported: a
server or storage module is read, never run), keeps a parent map and an
import table per module, and reads the inline exceptions::

    # repro: allow(<rule-id>): <reason>

An allow silences one rule on one line: the line it sits on, or the next
code line when the comment stands alone.  It must carry a reason and name
a rule of :data:`RULE_IDS`, or it is malformed; one that silences nothing
is stale.  Comments are found with :mod:`tokenize`, so an ``allow(...)``
inside a string literal never counts.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src" / "repro"
FIXTURES = HERE / "fixtures"

#: One id per ``test_<id with underscores>.py`` module of this directory.
RULE_IDS = (
    "mutation-funnel",
    "trace-only-annotations",
    "no-blocking-in-async",
    "metrics-discipline",
    "settings-knob",
    "swallowed-error",
    "fault-site-registered",
)

#: Anything that *looks* like an allow; the strict form is matched second so
#: a near-miss is reported instead of silently ignored.
_ATTEMPT = re.compile(r"#\s*repro:\s*allow\b")
_STRICT = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rule>[a-z][a-z0-9-]*)\s*\)\s*:\s*(?P<reason>\S.*)$"
)


class Finding(NamedTuple):
    """One rule violation; ``path`` is relative to the scanned root."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class Allow(NamedTuple):
    line: int  # where the comment sits
    covers: int  # the code line it silences
    rule: str  # "" when the comment does not parse
    reason: str


class Module:
    """One parsed file plus the facts the rules keep asking for."""

    def __init__(self, root: Path, path: Path):
        self.path = path.relative_to(root).as_posix()
        self.parts = tuple(self.path.split("/"))
        source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(source, filename=str(path))
        self.nodes: List[ast.AST] = [self.tree]  # breadth first, as ast.walk
        self._parents: Dict[ast.AST, ast.AST] = {}
        self.imports: Dict[str, str] = {}
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
                self.nodes.append(child)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.allows = _allows(source)

    def within(self, scope: str) -> bool:
        """``"server/"`` names a directory on the path, ``"serve.py"`` a file."""
        if scope.endswith("/"):
            return scope[:-1] in self.parts[:-1]
        return self.path == scope or self.path.endswith("/" + scope)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(self.path, getattr(node, "lineno", 1), rule, message)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return current
            current = self._parents.get(current)
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of ``node`` with the import table applied.

        ``obs_metrics.counter`` after ``from repro.obs import metrics as
        obs_metrics`` is ``repro.obs.metrics.counter``, ``sleep`` after
        ``from time import sleep`` is ``time.sleep``; names never imported
        stay themselves.  ``None`` for anything but a plain dotted name.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))


def _allows(source: str) -> List[Allow]:
    allows: List[Allow] = []
    if not _ATTEMPT.search(source):
        return allows  # most modules: no need to tokenize
    lines = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT or not _ATTEMPT.search(token.string):
            continue
        line = token.start[0]
        covers = line + 1 if lines[line - 1].lstrip().startswith("#") else line
        match = _STRICT.search(token.string)
        if match is None:
            allows.append(Allow(line, covers, "", ""))
        else:
            allows.append(Allow(line, covers, match["rule"], match["reason"].strip()))
    return allows


@functools.lru_cache(maxsize=None)
def _parse(target: Path, root: Path) -> Tuple[Module, ...]:
    paths = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    return tuple(Module(root, p) for p in paths if "__pycache__" not in p.parts)


def tree() -> Tuple[Module, ...]:
    """Every module of ``src/repro``, paths relative to it."""
    return _parse(SRC, SRC)


def tree_module(path: str) -> Module:
    (module,) = [m for m in tree() if m.path == path]
    return module


def fixture(name: str) -> Tuple[Module, ...]:
    """The fixture file or directory ``name``, paths relative to ``fixtures/``."""
    return _parse(FIXTURES / name, FIXTURES)


def fixture_names() -> List[str]:
    return sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


Check = Callable[[Module], Iterable[Finding]]


class Outcome(NamedTuple):
    findings: List[Finding]  # not covered by an allow
    allowed: List[Tuple[Finding, Allow]]
    stale: List[Finding]  # allows of the rule that cover no finding

    @property
    def problems(self) -> List[Finding]:
        return self.findings + self.stale


def run(rule: str, check: Check, modules: Iterable[Module]) -> Outcome:
    """``check`` over ``modules``, with ``rule``'s allows applied."""
    outcome = Outcome([], [], [])
    for module in modules:
        mine = [a for a in module.allows if a.rule == rule]
        used = set()
        for finding in sorted(check(module)):
            allow = next((a for a in mine if a.covers == finding.line), None)
            if allow is None:
                outcome.findings.append(finding)
            else:
                used.add(allow)
                outcome.allowed.append((finding, allow))
        outcome.stale.extend(
            Finding(module.path, a.line, "stale-suppression",
                    f"suppression of {rule!r} matches no finding; delete it or re-justify it")
            for a in mine
            if a not in used
        )
    return outcome


def assert_tree_clean(rule: str, check: Check) -> None:
    """The committed tree raises exactly the findings ``rule``'s allows cover."""
    problems = run(rule, check, tree()).problems
    assert not problems, "\n".join(map(str, problems))


def assert_quiet_on_other_fixtures(rule: str, check: Check, own: str) -> None:
    """``check`` finds nothing in any fixture but its own bad one."""
    for name in fixture_names():
        if name != own:
            findings = run(rule, check, fixture(name)).findings
            assert findings == [], "\n".join(map(str, findings))


def assert_scopes_match(*scopes: str) -> None:
    """Every path scope a rule names matches a module of the tree, so a
    rename cannot leave the rule checking nothing."""
    for scope in scopes:
        assert any(m.within(scope) for m in tree()), f"{scope} matches no module of src/repro"


def malformed(modules: Iterable[Module]) -> Iterator[Finding]:
    for module in modules:
        for allow in module.allows:
            if not allow.rule:
                yield Finding(module.path, allow.line, "malformed-suppression",
                              "unparseable suppression; the form is "
                              "`# repro: allow(<rule-id>): <reason>` (reason required)")
            elif allow.rule not in RULE_IDS:
                yield Finding(module.path, allow.line, "malformed-suppression",
                              f"suppression names unknown rule {allow.rule!r}")
