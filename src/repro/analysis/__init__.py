"""Repo-specific static invariant checker for the engine's contracts.

Eight PRs of engine growth rest on hand-enforced contracts: mutations funnel
through ``_after_mutation``, executors annotate traces instead of node
state, the asyncio server never blocks its loop, metrics registration is literal
and module-scope, settings knobs exist, and storage/server code never
swallows errors silently.  This package makes those contracts *machine
checkable*: an AST-level rule per contract, inline
``# repro: allow(<rule-id>): <reason>`` suppressions that are themselves
linted for staleness, and a CLI gate CI runs on every push::

    python -m repro.analysis [--json] [paths]

Rule catalog (ids, contracts, suppression etiquette, how to add a rule):
``docs/static-analysis.md``.  The companion gate — ``mypy --strict`` over a
growing starter set of packages — lives in ``mypy.ini``.
"""

from repro.analysis.driver import AnalysisSession, ModuleContext, Report, analyze_paths
from repro.analysis.findings import Finding, SuppressedFinding
from repro.analysis.registry import RULES, Rule, all_rules, rule

__all__ = [
    "AnalysisSession",
    "Finding",
    "ModuleContext",
    "RULES",
    "Report",
    "Rule",
    "SuppressedFinding",
    "all_rules",
    "analyze_paths",
    "rule",
]
