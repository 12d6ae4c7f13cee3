"""Per-query operator tracing: the backing store of ``EXPLAIN ANALYZE``.

A :class:`QueryTrace` is built from a physical plan *before* execution: one
:class:`Span` per plan node, mirroring the ``explain()`` tree shape exactly.
While the trace is *active* (a thread-local, managed as a stack so nested
executions such as view recomputation keep their own traces), the executor
base class routes every node's iterator through :meth:`QueryTrace.instrument`
(and every batch a node hands over through :meth:`QueryTrace.record_batch`),
which records

* wall time — the inclusive open interval from the first row pulled to
  iterator exhaustion (or abandonment), one ``perf_counter`` pair per
  iteration rather than per row, so enabling tracing stays cheap even on
  row-at-a-time pipelines;
* rows out and the number of times the node was (re-)iterated (``loops``);
* operator annotations (``executed=``, ``ship=``, fallbacks) attached by the
  operators themselves via :func:`annotate` — these live on the span, never
  on the node, so re-executing one plan can't show stale state.

When no trace is active the executor's check is a single thread-local read —
the "near-zero overhead when disabled" contract.  Tracing for a whole
process is toggled by the ``REPRO_TRACE`` environment knob (read once at
import) or programmatically with :func:`set_tracing`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


_TRACING = _env_flag("REPRO_TRACE")


def tracing_enabled() -> bool:
    """Whether ``Database.execute`` collects a trace for every query."""
    return _TRACING


def set_tracing(enabled: bool) -> None:
    """Override the ``REPRO_TRACE`` knob for this process (tests, bench)."""
    global _TRACING
    _TRACING = bool(enabled)


class _ActiveState(threading.local):
    trace: Optional[QueryTrace] = None


_state = _ActiveState()


def active_trace() -> Optional[QueryTrace]:
    """The trace currently collecting on this thread, if any."""
    return _state.trace


def annotate(node: Any, **attributes: Any) -> None:
    """Attach ``key=value`` annotations to ``node``'s span, if one is live.

    Operators call this from ``rows()`` to record runtime decisions
    (``executed=numpy``, ``input=frame``, fallback causes).  A no-op when
    tracing is inactive or ``node`` belongs to a different plan.
    """
    trace = _state.trace
    if trace is not None:
        trace.annotate(node, **attributes)


class Span:
    """Execution record of one plan node; mirrors the EXPLAIN tree."""

    __slots__ = (
        "label",
        "estimated_rows",
        "estimated_cost",
        "seconds",
        "rows_out",
        "loops",
        "attributes",
        "children",
    )

    def __init__(self, label: str, estimated_rows: float, estimated_cost: float):
        self.label = label
        self.estimated_rows = estimated_rows
        self.estimated_cost = estimated_cost
        self.seconds = 0.0
        self.rows_out = 0
        self.loops = 0
        self.attributes: Dict[str, Any] = {}
        self.children: List[Span] = []

    @property
    def executed(self) -> bool:
        return self.loops > 0

    def render(self, indent: int = 0) -> str:
        """One ``explain()``-shaped line per span, annotated with actuals."""
        if self.executed:
            actual = (
                f"(actual time={self.seconds * 1000.0:.3f}ms "
                f"rows={self.rows_out} loops={self.loops}"
            )
            for key, value in self.attributes.items():
                actual += f" {key}={value}"
            actual += ")"
        else:
            actual = "(never executed)"
        line = (
            " " * indent
            + f"{self.label}  "
            + f"(rows={self.estimated_rows:.0f} cost={self.estimated_cost:.2f}) "
            + actual
        )
        return "\n".join([line] + [child.render(indent + 2) for child in self.children])

    def summary(self) -> Dict[str, Any]:
        """JSON-able view (the slow-query log's ``trace`` field)."""
        entry: Dict[str, Any] = {
            "operator": self.label,
            "seconds": self.seconds,
            "rows": self.rows_out,
            "loops": self.loops,
        }
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        if self.children:
            entry["children"] = [child.summary() for child in self.children]
        return entry

    def find(self, fragment: str) -> List[Span]:
        """All spans (self included) whose label contains ``fragment``."""
        found = [self] if fragment in self.label else []
        for child in self.children:
            found.extend(child.find(fragment))
        return found

    def walk(self) -> Iterator[Span]:
        yield self
        for child in self.children:
            yield from child.walk()


class QueryTrace:
    """Operator spans for one execution of one physical plan.

    The span tree is laid down from the plan's node tree at construction, so
    its shape matches ``explain()`` by definition; nodes the executor never
    pulls from (short-circuited branches, scans a ``ColumnarAdjustment``
    bypasses by reading cached frames) render as ``(never executed)``.
    """

    def __init__(self, root: Any, sql: Optional[str] = None):
        self.sql = sql
        self.total_seconds: float = 0.0
        self._spans: Dict[int, Span] = {}
        self.root_span = self._build(root)

    def _build(self, node: Any) -> Span:
        span = Span(
            node.describe(),
            getattr(node, "estimated_rows", 0.0),
            getattr(node, "estimated_cost", 0.0),
        )
        self._spans[id(node)] = span
        for child in getattr(node, "children", ()):
            span.children.append(self._build(child))
        return span

    def span_for(self, node: Any) -> Optional[Span]:
        return self._spans.get(id(node))

    def instrument(self, node: Any, iterator: Iterator[Any]) -> Iterator[Any]:
        """Wrap a node's fresh iterator so its span accumulates actuals."""
        span = self._spans.get(id(node))
        if span is None:
            return iterator  # a node from some other plan (nested execution)
        return self._measured(span, iterator)

    @staticmethod
    def _measured(span: Span, iterator: Iterator[Any]) -> Iterator[Any]:
        span.loops += 1
        rows = 0
        started = perf_counter()
        try:
            for row in iterator:
                rows += 1
                yield row
        finally:
            span.seconds += perf_counter() - started
            span.rows_out += rows

    def record_batch(self, node: Any, rows: int, seconds: float) -> None:
        """Account one batch a node handed over as one loop of ``rows``
        rows taking ``seconds`` (the batch twin of :meth:`instrument`)."""
        span = self._spans.get(id(node))
        if span is not None:
            span.loops += 1
            span.rows_out += rows
            span.seconds += seconds

    def annotate(self, node: Any, **attributes: Any) -> None:
        span = self._spans.get(id(node))
        if span is not None:
            span.attributes.update(attributes)

    @contextmanager
    def activate(self) -> Iterator[QueryTrace]:
        """Install as the thread's collecting trace (stacked: save/restore)."""
        previous = _state.trace
        _state.trace = self
        started = perf_counter()
        try:
            yield self
        finally:
            self.total_seconds += perf_counter() - started
            _state.trace = previous

    def render(self) -> str:
        """The annotated plan tree plus a total — EXPLAIN ANALYZE's output."""
        return (
            self.root_span.render()
            + f"\nExecution time: {self.total_seconds * 1000.0:.3f} ms"
        )

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest for the slow-query log."""
        return {
            "total_seconds": self.total_seconds,
            "root": self.root_span.summary(),
        }

    def find(self, fragment: str) -> List[Span]:
        return self.root_span.find(fragment)

    def spans(self) -> List[Span]:
        """All spans in explain (pre-order) order."""
        return list(self.root_span.walk())


@contextmanager
def collect(root: Any, sql: Optional[str] = None) -> Iterator[QueryTrace]:
    """Build a trace over ``root``'s plan tree and activate it for the body.

    >>> # with collect(physical) as trace: list(physical)   # doctest: +SKIP
    """
    trace = QueryTrace(root, sql=sql)
    with trace.activate():
        yield trace
