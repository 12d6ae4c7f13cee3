"""``fault-site-registered``: every ``faults.fire(...)`` names a declared site.

Fault injection is only trustworthy when the set of injection points is
closed: :func:`repro.faults.fire` raises ``KeyError`` on an undeclared site
at runtime, but that guard only trips on the execution path that reaches the
call — which for failure-path code is exactly the path no ordinary test
covers.  This rule checks every literal site passed to
``faults.fire``/``faults.stall_ms`` (and the ``FaultPlan`` methods) against a
``SITES`` registry parsed from source — ``faults/sites.py`` for the tree,
the fixture's own ``faultsite/sites.py`` for the fixtures — and flags
non-literal site arguments outright: a computed site name cannot be audited
against the registry at all.  The faults package itself is exempt; it is
the registry's own machinery.
"""

from __future__ import annotations

import ast
import functools
from typing import Iterator, Set

import walker
from walker import Finding, Module

from repro import faults

RULE_ID = "fault-site-registered"
EXEMPT = "faults/"

#: Resolved callee names that take a fault-site string as first argument.
_SITE_CALLS = {
    "repro.faults.fire",
    "repro.faults.stall_ms",
    "repro.faults.plan.fire",
    "repro.faults.plan.stall_ms",
}


def declared(module: Module) -> Set[str]:
    """The literal string keys of the module-level ``SITES = {...}`` dict."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "SITES" for t in targets):
            assert isinstance(value, ast.Dict), f"{module.path}: SITES is not a dict literal"
            keys = [k.value for k in value.keys if isinstance(k, ast.Constant)]
            return {k for k in keys if isinstance(k, str)}
    raise AssertionError(f"{module.path} declares no SITES")


def check(module: Module, sites: Set[str]) -> Iterator[Finding]:
    if module.within(EXEMPT):
        return
    for node in module.nodes:
        if not isinstance(node, ast.Call) or module.resolve(node.func) not in _SITE_CALLS:
            continue
        if not node.args:
            continue  # wrong arity fails loudly at runtime; not this rule's job
        site = node.args[0]
        if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
            yield module.finding(
                node,
                RULE_ID,
                "fault site must be a literal string so the registry can be audited "
                "statically; computed names hide dead injection points",
            )
        elif site.value not in sites:
            yield module.finding(
                node,
                RULE_ID,
                f"fault site {site.value!r} is not declared in repro.faults.sites.SITES; "
                "an undeclared site is a dead injection point that can never be armed",
            )


def _fixture_check():
    return functools.partial(check, sites=declared(walker.fixture("faultsite/sites.py")[0]))


def test_committed_tree_is_clean():
    sites = declared(walker.tree_module("faults/sites.py"))
    walker.assert_tree_clean(RULE_ID, functools.partial(check, sites=sites))


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, _fixture_check(), walker.fixture("faultsite")).findings
    assert [f.line for f in findings] == [14, 19]


def test_quiet_on_the_other_fixtures():
    walker.assert_quiet_on_other_fixtures(RULE_ID, _fixture_check(), "faultsite")


def test_parsed_registry_is_the_runtime_one():
    sites = declared(walker.tree_module("faults/sites.py"))
    assert sites == set(faults.SITES)
    assert len(sites) == 7
    walker.assert_scopes_match(EXEMPT)
