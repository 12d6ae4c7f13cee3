"""``swallowed-error``: no silent broad except where poisoning matters.

The storage engine's failure semantics are deliberate: a failed WAL append
or checkpoint *poisons* the engine (it refuses further commits rather than
let memory lead the log), and the server maps every error onto a typed wire
response.  A ``except: pass`` — or a broad ``except Exception`` whose body
only ``pass``/``break``/``continue``\\ s — in these modules converts a
poison-worthy failure into silent divergence between memory and disk (or a
client left waiting).  Scoped to ``storage/``, ``server/`` and ``serve.py``;
narrow except types (``FileNotFoundError``, ``ConnectionError``,
``CancelledError``) are fine — it is silence about *unknown* failures that
is banned.  The WAL's torn-tail truncation carries the one allow: an
unpicklable tail frame *is* the torn tail the recovery contract truncates.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

import walker
from walker import Finding, Module

RULE_ID = "swallowed-error"
SCOPE = ("storage/", "server/", "serve.py")

_BROAD = {"Exception", "BaseException"}


def _is_broad(type_node: Optional[ast.expr]) -> bool:
    if type_node is None:
        return True  # bare except
    if isinstance(type_node, ast.Name):
        return type_node.id in _BROAD
    if isinstance(type_node, ast.Attribute):
        return type_node.attr in _BROAD
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(element) for element in type_node.elts)
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body does nothing with the failure."""
    for statement in handler.body:
        if isinstance(statement, (ast.Pass, ast.Break, ast.Continue)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # a bare docstring/ellipsis is still silence
        return False
    return True


def check(module: Module) -> Iterator[Finding]:
    if not any(module.within(scope) for scope in SCOPE):
        return
    for handler in module.nodes:
        if not isinstance(handler, ast.ExceptHandler):
            continue
        if handler.type is None:
            yield module.finding(
                handler,
                RULE_ID,
                "bare except: in poisoning-sensitive code; name the exceptions "
                "this path is allowed to absorb",
            )
        elif _is_broad(handler.type) and _swallows(handler):
            yield module.finding(
                handler,
                RULE_ID,
                "broad except swallows the failure silently; storage/server "
                "failures must poison, propagate, or be handled visibly",
            )


def test_committed_tree_is_clean():
    walker.assert_tree_clean(RULE_ID, check)


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, check, walker.fixture("storage")).findings
    assert [f.line for f in findings] == [7, 14]


def test_quiet_on_the_other_fixtures():
    walker.assert_quiet_on_other_fixtures(RULE_ID, check, "storage")


def test_scope_matches_the_tree():
    walker.assert_scopes_match(*SCOPE)
