"""The ``# repro: allow(<rule-id>): <reason>`` comments and the rule catalog.

Each rule's own module judges its allows (one that covers nothing is
stale there); this module checks what belongs to no single rule: every
allow parses and names a rule, every reason explains itself, and every rule
id has its module and its row in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import re

import walker


def test_malformed_allows_are_reported():
    findings = list(walker.malformed(walker.fixture("suppress/malformed.py")))
    assert [f.rule for f in findings] == ["malformed-suppression"] * 2
    messages = " ".join(f.message for f in findings)
    assert "reason required" in messages
    assert "not-a-rule" in messages


def test_tree_allows_are_well_formed_and_explained():
    assert list(walker.malformed(walker.tree())) == []
    allows = [a for module in walker.tree() for a in module.allows]
    assert allows, "the tree documents its known exceptions"
    for allow in allows:
        assert len(allow.reason.split()) >= 3, allow


def test_every_rule_has_its_module_and_catalog_row():
    modules = {p.stem for p in walker.HERE.glob("test_*.py")} - {"test_allow_comments"}
    assert modules == {"test_" + rule.replace("-", "_") for rule in walker.RULE_IDS}
    catalog = (walker.HERE.parents[1] / "docs" / "static-analysis.md").read_text()
    for rule in walker.RULE_IDS:
        module = "test_" + rule.replace("-", "_") + ".py"
        assert re.search(rf"\[`{rule}`\]\([^)]*{module}\)", catalog), f"{rule} missing from docs"
