"""R1 ``mutation-funnel``: relation internals mutate only inside the funnel.

Everything downstream of a mutation — derived-cache invalidation, change-log
records, mutation listeners (which feed the WAL, MVCC version stores and
incremental view maintenance) — hangs off
:meth:`~repro.relation.relation.TemporalRelation._after_mutation`.  A write
to ``_tuples``/``_rowids``/``_next_rowid``/``_derived_cache``/``_changelog``
anywhere else silently desynchronizes caches, views, storage and
transactions from the relation's contents.  ``_generation`` — what engine
table snapshots compare before reading a derived structure on their own
behalf — moves only with the cache drop, so it is protected the same way.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding, finding
from repro.analysis.registry import rule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.driver import AnalysisSession, ModuleContext

RULE_ID = "mutation-funnel"

#: The relation attributes that make up row/derived state.
PROTECTED = {
    "_tuples",
    "_rowids",
    "_next_rowid",
    "_derived_cache",
    "_changelog",
    "_generation",
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
#: write protected state.  ``_mutate``/``apply_effects``/``restore`` are the
#: contract; the rest are the narrow construction/bookkeeping paths that
#: themselves end in ``_after_mutation``.
FUNNEL_FUNCTIONS = {
    "__init__",
    "add",
    "enable_change_tracking",
    "restore",
    "replay_deltas",
    "_mutate",
    "apply_effects",
    "_after_mutation",
    "derived",
}


def _protected_attribute(node: ast.AST) -> ast.Attribute | None:
    """The protected ``x._tuples``-style attribute written by ``node``."""
    if isinstance(node, ast.Attribute) and node.attr in PROTECTED:
        return node
    if isinstance(node, ast.Subscript):
        return _protected_attribute(node.value)
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            hit = _protected_attribute(element)
            if hit is not None:
                return hit
    if isinstance(node, ast.Starred):
        return _protected_attribute(node.value)
    return None


@rule(RULE_ID, "TemporalRelation row/derived state mutates only via the funnel")
def check(module: ModuleContext, session: AnalysisSession) -> Iterator[Finding]:
    in_relation_module = module.relative_to("relation", "relation.py")

    def allowed(node: ast.AST) -> bool:
        if not in_relation_module:
            return False
        enclosing = module.enclosing_function(node)
        return (
            isinstance(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef))
            and enclosing.name in FUNNEL_FUNCTIONS
        )

    def report(node: ast.AST, attr: str) -> Finding:
        return finding(
            module.display,
            node,
            RULE_ID,
            f"write to TemporalRelation.{attr} outside the mutation funnel; "
            "go through _mutate/apply_effects/restore so _after_mutation runs",
        )

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                hit = _protected_attribute(target)
                if hit is not None and not allowed(node):
                    yield report(node, hit.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS:
                hit = _protected_attribute(node.func.value)
                if hit is not None and not allowed(node):
                    yield report(node, hit.attr)
