"""``trace-only-annotations``: executors annotate traces, not node state.

The executor's post-run facts (``executed=``, ``input=``) live on trace
spans, not on the physical nodes, so that ``explain()`` is static before
*and* after execution and a plan can be re-run without leaking state between
runs.  An operator that assigns ``self.<attr>`` after ``__init__`` regresses
exactly that: node state survives across iterations, EXPLAIN output starts
depending on execution history, and concurrent traces of the same plan tree
race.  Run-time facts belong on the active span via
:func:`repro.obs.trace.annotate`.  ``CountingNode`` carries the documented
exceptions: counting pulls is that instrumentation node's whole output.
"""

from __future__ import annotations

import ast
from typing import Iterator

import walker
from walker import Finding, Module

RULE_ID = "trace-only-annotations"
SCOPE = "executor/"


def _is_node_class(class_def: ast.ClassDef) -> bool:
    """Whether the class subclasses a physical operator (a ``*Node`` base)."""
    for base in class_def.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name.endswith("Node"):
            return True
    return False


def check(module: Module) -> Iterator[Finding]:
    if not module.within(SCOPE):
        return
    for class_def in module.nodes:
        if not isinstance(class_def, ast.ClassDef) or not _is_node_class(class_def):
            continue
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        yield module.finding(
                            node,
                            RULE_ID,
                            f"{class_def.name}.{method.name} assigns self.{target.attr} "
                            "at run time; operators record run-time facts via "
                            "trace.annotate(node, ...), not node state",
                        )


def test_committed_tree_is_clean():
    walker.assert_tree_clean(RULE_ID, check)


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, check, walker.fixture("executor")).findings
    assert [f.line for f in findings] == [15, 16]


def test_quiet_on_the_other_fixtures():
    walker.assert_quiet_on_other_fixtures(RULE_ID, check, "executor")


def test_scope_matches_the_tree():
    walker.assert_scopes_match(SCOPE)
