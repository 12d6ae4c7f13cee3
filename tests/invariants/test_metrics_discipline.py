"""``metrics-discipline``: literal names, one label, module-scope registration.

The metrics registry is get-or-create by *name*: a dynamic or misspelled
name silently forks a metric into two series, and a name outside the
``snake.dotted`` grammar stops round-tripping through the Prometheus
sanitizer (``relation.derived`` → ``relation_derived``) — two raw names can
even collide post-sanitization.  Registration also takes the registry lock;
doing it per call on a hot path (the derived-cache counter sits inside every
index probe) pays that lock for nothing.  Hence the discipline:

* ``counter``/``gauge``/``histogram`` call sites pass a **literal** name
  matching ``[a-z][a-z0-9_]*(\\.[a-z0-9_]+)*``;
* a counter declares at most the one label dimension the API supports, with
  a literal ``label_name``;
* instruments are registered **at module scope** (a module-level constant);
  hot paths then call ``.inc()``/``.observe()`` on the constant.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

import walker
from walker import Finding, Module

RULE_ID = "metrics-discipline"
#: The registry's own implementation and wrappers.
EXEMPT = "obs/metrics.py"

_KINDS = {"counter", "gauge", "histogram"}
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_ALLOWED_KWARGS = {"counter": {"label_name"}, "gauge": set(), "histogram": {"buckets"}}
_MAX_POSITIONAL = {"counter": 2, "gauge": 1, "histogram": 2}


def _registration_kind(module: Module, call: ast.Call) -> Optional[str]:
    """``counter``/``gauge``/``histogram`` when ``call`` registers a metric."""
    func = call.func
    if isinstance(func, ast.Name):
        head, _, tail = (module.resolve(func) or "").rpartition(".")
        if tail in _KINDS and head in ("repro.obs.metrics", "repro.obs"):
            return tail
        return None
    if isinstance(func, ast.Attribute) and func.attr in _KINDS:
        base = module.resolve(func.value) or ""
        if base in ("repro.obs.metrics", "REGISTRY") or base.endswith(".REGISTRY"):
            return func.attr
    return None


def check(module: Module) -> Iterator[Finding]:
    if module.within(EXEMPT):
        return
    for call in module.nodes:
        if not isinstance(call, ast.Call):
            continue
        kind = _registration_kind(module, call)
        if kind is None:
            continue

        name_arg: Optional[ast.expr] = call.args[0] if call.args else None
        for keyword in call.keywords:
            if keyword.arg == "name":
                name_arg = keyword.value
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            yield module.finding(
                call,
                RULE_ID,
                f"{kind}() needs a literal string name; a dynamic name can silently "
                "fork a metric into two series",
            )
        elif not _NAME_RE.match(name_arg.value):
            yield module.finding(
                call,
                RULE_ID,
                f"metric name {name_arg.value!r} is outside the snake.dotted grammar "
                "[a-z][a-z0-9_]*(.[a-z0-9_]+)* that survives Prometheus sanitization "
                "unambiguously",
            )

        if len(call.args) > _MAX_POSITIONAL[kind]:
            yield module.finding(
                call,
                RULE_ID,
                f"{kind}() takes at most {_MAX_POSITIONAL[kind]} positional argument(s); "
                "metrics carry at most one label dimension",
            )
        for keyword in call.keywords:
            if keyword.arg in (None, "name"):
                continue
            if keyword.arg not in _ALLOWED_KWARGS[kind]:
                yield module.finding(
                    call,
                    RULE_ID,
                    f"{kind}() does not accept {keyword.arg!r}; metrics carry at most "
                    "one label dimension (label_name on counters)",
                )
            elif keyword.arg == "label_name" and not (
                isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
                and _LABEL_RE.match(keyword.value.value)
            ):
                yield module.finding(
                    call, RULE_ID, "label_name must be a literal matching [a-z][a-z0-9_]*"
                )

        if module.enclosing_function(call) is not None:
            yield module.finding(
                call,
                RULE_ID,
                f"{kind}() registered inside a function; register the instrument once "
                "at module scope and call .inc()/.observe() on the constant "
                "(registration takes the registry lock)",
            )


def test_committed_tree_is_clean():
    walker.assert_tree_clean(RULE_ID, check)


def test_bad_fixture_fires():
    findings = walker.run(RULE_ID, check, walker.fixture("metrics")).findings
    assert [f.line for f in findings] == [7, 8, 9, 13]


def test_quiet_on_the_other_fixtures():
    walker.assert_quiet_on_other_fixtures(RULE_ID, check, "metrics")


def test_exemption_names_a_module_of_the_tree():
    walker.assert_scopes_match(EXEMPT)
