"""``mutation-funnel``: relation internals mutate only inside the funnel.

Everything downstream of a mutation — derived-cache invalidation, change-log
records, mutation listeners (which feed the WAL, MVCC version stores and
incremental view maintenance) — hangs off
:meth:`~repro.relation.relation.TemporalRelation._after_mutation`.  A write
to ``_tuples``/``_rowids``/``_next_rowid``/``_derived_cache``/``_changelog``
anywhere else silently desynchronizes caches, views, storage and
transactions from the relation's contents — engine scans included, which
read the relation's rows from its derived cache.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

import walker
from walker import Finding, Module

RULE_ID = "mutation-funnel"

#: The relation attributes that make up row/derived state.
PROTECTED = {
    "_tuples",
    "_rowids",
    "_next_rowid",
    "_derived_cache",
    "_changelog",
}

#: Method calls that mutate a protected container in place.
MUTATORS = {
    "append",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "clear",
    "sort",
    "reverse",
    "setdefault",
    "update",
}

#: The funnel: the only functions in ``relation/relation.py`` allowed to
#: write protected state.  ``_apply_run`` is the one writer of a live
#: relation's rows: every UPDATE, DELETE, tracked insert, transaction commit
#: and WAL replay reaches it.  The rest are construction (``__init__``,
#: ``restore``, the untracked ``add`` that builds intermediate results) and
#: the bookkeeping that ends every mutation (``_after_mutation``) or owns
#: one protected attribute (``derived``, ``enable_change_tracking``).
FUNNEL_FUNCTIONS = {
    "__init__",
    "add",
    "enable_change_tracking",
    "restore",
    "_apply_run",
    "_after_mutation",
    "derived",
}

RELATION_MODULE = ("relation", "relation.py")


def _protected_attribute(node: ast.AST) -> Optional[ast.Attribute]:
    """The protected ``x._tuples``-style attribute written by ``node``."""
    if isinstance(node, ast.Attribute) and node.attr in PROTECTED:
        return node
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return _protected_attribute(node.value)
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            hit = _protected_attribute(element)
            if hit is not None:
                return hit
    return None


def _writes(module: Module) -> Iterator[tuple]:
    """``(statement or call, protected attribute)`` for every write."""
    for node in module.nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            hit = _protected_attribute(target)
            if hit is not None:
                yield node, hit


def _in_funnel(module: Module, node: ast.AST) -> bool:
    enclosing = module.enclosing_function(node)
    return (
        module.parts[-2:] == RELATION_MODULE
        and isinstance(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef))
        and enclosing.name in FUNNEL_FUNCTIONS
    )


def check(module: Module) -> Iterator[Finding]:
    for node, attribute in _writes(module):
        if not _in_funnel(module, node):
            yield module.finding(
                node,
                RULE_ID,
                f"write to TemporalRelation.{attribute.attr} outside the mutation "
                "funnel; hand the batch to _apply_run, the one writer, so "
                "_after_mutation runs",
            )


def test_committed_tree_is_clean():
    walker.assert_tree_clean(RULE_ID, check)


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, check, walker.fixture("funnel")).findings
    assert [(f.path, f.line) for f in findings] == [
        ("funnel/bad_funnel.py", 5),
        ("funnel/bad_funnel.py", 6),
        ("funnel/bad_funnel.py", 7),
        # relation.py's second method writing the rows, beside the one writer
        ("funnel/relation/relation.py", 10),
    ]


def test_quiet_on_the_other_fixtures():
    # funnel_ok writes protected state from funnel methods of relation.py.
    walker.assert_quiet_on_other_fixtures(RULE_ID, check, "funnel")


def test_allows_silence_their_line_and_report_the_reason():
    outcome = walker.run(RULE_ID, check, walker.fixture("suppress/ok_suppressed.py"))
    assert outcome.problems == []
    assert {allow.reason for _, allow in outcome.allowed} == {
        "fixture demonstrating a documented exception",
        "trailing-comment form",  # a trailing comment covers its own line
    }


def test_an_allow_that_matches_nothing_is_stale():
    outcome = walker.run(RULE_ID, check, walker.fixture("suppress/stale.py"))
    assert [f.rule for f in outcome.problems] == ["stale-suppression"]
    assert RULE_ID in outcome.problems[0].message


def test_every_protected_attribute_and_funnel_function_is_in_relation_py():
    relation = walker.tree_module("relation/relation.py")
    written = {attr.attr for node, attr in _writes(relation) if _in_funnel(relation, node)}
    assert written == PROTECTED
    defined = {n.name for n in relation.nodes if isinstance(n, ast.FunctionDef)}
    assert FUNNEL_FUNCTIONS <= defined
