"""``settings-knob``: every ``settings.<knob>`` read names a declared field,
and every declared field is read.

:class:`~repro.engine.optimizer.settings.Settings` is a plain dataclass, so
``settings.enable_colummar`` (note the typo) is not an error anywhere — it
raises ``AttributeError`` only on the execution path that reaches it, which
for optimizer gates is exactly the path no test covers at small sizes.
This rule checks every attribute read off a name or attribute called
``settings`` against the fields and methods of a ``Settings`` declaration
parsed from source: the optimizer's for the tree, the fixture's own
``knobs/settings.py`` for the fixtures.

Worse, a *dead* knob (declared once, read never after a rename) keeps
accepting overrides that do nothing.  So every declared field must also be
read as an attribute (``.<field>``, off any receiver: ``database.py`` reads
``active.statement_timeout_ms``) by some module other than ``settings.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from typing import Dict, Iterable, Iterator, Set

import walker
from walker import Finding, Module

from repro.engine.optimizer.settings import Settings

RULE_ID = "settings-knob"


def _settings_class(module: Module) -> ast.ClassDef:
    (settings,) = [
        n for n in module.nodes if isinstance(n, ast.ClassDef) and n.name == "Settings"
    ]
    return settings


def declared(module: Module) -> Set[str]:
    """Field, class-variable and method names of ``class Settings``."""
    names: Set[str] = set()
    for item in _settings_class(module).body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
    return names


def _is_settings_expression(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "settings"
    if isinstance(node, ast.Attribute):
        return node.attr == "settings"
    return False


def check(module: Module, fields: Set[str]) -> Iterator[Finding]:
    if module.parts[-1] == "settings.py":
        return  # the declaration itself
    for node in module.nodes:
        if not isinstance(node, ast.Attribute) or not _is_settings_expression(node.value):
            continue
        if node.attr.startswith("__") or node.attr in fields:
            continue
        yield module.finding(
            node,
            RULE_ID,
            f"settings.{node.attr} is not a declared Settings field; a typo'd knob "
            "raises only on the untested execution path that reaches it",
        )


def fields_of(module: Module) -> Dict[str, ast.AnnAssign]:
    """The annotated fields of ``class Settings``, by name."""
    return {
        item.target.id: item
        for item in _settings_class(module).body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def attribute_reads(modules: Iterable[Module]) -> Set[str]:
    """Every ``.<name>`` loaded anywhere outside a ``settings.py``."""
    return {
        node.attr
        for module in modules
        if module.parts[-1] != "settings.py"
        for node in module.nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def dead_knobs(module: Module, reads: Set[str]) -> Iterator[Finding]:
    """Findings for the fields of the ``Settings`` declaration in ``module``
    that no attribute read in ``reads`` names."""
    for name, node in fields_of(module).items():
        if name not in reads:
            yield module.finding(
                node,
                RULE_ID,
                f"Settings.{name} is read nowhere; a dead knob accepts overrides "
                "that change nothing",
            )


TREE_SETTINGS = "engine/optimizer/settings.py"


def _fixture_check():
    return functools.partial(check, fields=declared(walker.fixture("knobs/settings.py")[0]))


def test_committed_tree_is_clean():
    fields = declared(walker.tree_module(TREE_SETTINGS))
    walker.assert_tree_clean(RULE_ID, functools.partial(check, fields=fields))


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, _fixture_check(), walker.fixture("knobs")).findings
    assert [(f.line, f.message.split()[0]) for f in findings] == [
        (5, "settings.fixture_min_rowz")
    ]


def test_quiet_on_the_other_fixtures():
    walker.assert_quiet_on_other_fixtures(RULE_ID, _fixture_check(), "knobs")


def test_parsed_declaration_is_the_settings_class():
    fields = {field.name for field in dataclasses.fields(Settings)}
    methods = {
        name for name, value in vars(Settings).items()
        if callable(value) and not name.startswith("_")
    }
    assert declared(walker.tree_module(TREE_SETTINGS)) == fields | methods


def test_every_tree_knob_is_read():
    findings = list(dead_knobs(walker.tree_module(TREE_SETTINGS), attribute_reads(walker.tree())))
    assert not findings, "\n".join(map(str, findings))


def test_dead_fixture_knob_fires():
    knobs = walker.fixture("knobs")
    (declaration,) = [m for m in knobs if m.parts[-1] == "settings.py"]
    findings = list(dead_knobs(declaration, attribute_reads(knobs)))
    assert [(f.path, f.message.split()[0]) for f in findings] == [
        ("knobs/settings.py", "Settings.fixture_unread")
    ]
