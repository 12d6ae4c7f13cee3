"""``no-blocking-in-async``: nothing blocks the event loop.

The server's correctness argument is that a statement runs to completion
*without awaiting*, so statements are structurally serialized — but that
same single-threaded loop means one blocking call freezes every connected
client, the metrics endpoint and shutdown handling at once.  This rule bans
the classic offenders inside ``async def`` bodies in ``server/`` and
``serve.py``: ``time.sleep``, ``os.fsync``-family calls, ``subprocess`` use,
builtin ``open`` and the eager :class:`pathlib.Path` read/write helpers.
Nested ``def``\\ s are skipped — they run in whatever frame calls them.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

import walker
from walker import Finding, Module

RULE_ID = "no-blocking-in-async"
SCOPE = ("server/", "serve.py")

#: Fully qualified callables that block the calling thread.
_BANNED_QUALIFIED = {
    "time.sleep",
    "os.fsync",
    "os.fdatasync",
    "os.sync",
    "os.system",
    "os.wait",
    "os.waitpid",
}

#: Attribute names that read/write files eagerly wherever they appear.
_BANNED_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}


def _body_without_nested_functions(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk the statements executed in the coroutine's own frame."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested def body runs in its own frame, checked there
        yield node
        stack.extend(ast.iter_child_nodes(node))


def check(module: Module) -> Iterator[Finding]:
    if not any(module.within(scope) for scope in SCOPE):
        return
    for func in module.nodes:
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in _body_without_nested_functions(func):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func) or ""
            blocking = None
            if resolved in _BANNED_QUALIFIED:
                blocking = resolved
            elif resolved == "open" or resolved.endswith(".open"):
                blocking = "open()"
            elif resolved == "subprocess" or resolved.startswith("subprocess."):
                blocking = resolved
            elif isinstance(node.func, ast.Attribute) and node.func.attr in _BANNED_ATTRS:
                blocking = f".{node.func.attr}()"
            if blocking is not None:
                yield module.finding(
                    node,
                    RULE_ID,
                    f"blocking call {blocking} inside async def {func.name}; it stalls "
                    "every client on the event loop — run it before serving, in an "
                    "executor, or not at all",
                )


def test_committed_tree_is_clean():
    walker.assert_tree_clean(RULE_ID, check)


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, check, walker.fixture("server")).findings
    assert [f.line for f in findings] == [9, 10, 12, 13]


def test_quiet_on_the_other_fixtures():
    walker.assert_quiet_on_other_fixtures(RULE_ID, check, "server")


def test_from_imports_resolve_like_module_imports(tmp_path):
    (tmp_path / "server").mkdir()
    source = tmp_path / "server" / "loop.py"
    source.write_text(
        "from time import sleep\n"
        "async def tick():\n"
        "    sleep(1)\n"
    )
    assert [f.line for f in check(Module(tmp_path, source))] == [3]


def test_scope_matches_the_tree():
    walker.assert_scopes_match(*SCOPE)
