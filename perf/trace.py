"""The benchmark's own span recorder (tracing inside ``src/`` comes later).

A traced run wraps each call into a layer's public function in
``recorder.span(name, op_id)``.  Spans stay in memory — one list per thread,
so concurrent clients never contend — and are written out when the run ends.
An untraced run never constructs a recorder: its timed path executes none of
this module.

A span is ``[name, start, end, parent, op_id]``: ``parent`` is the index of
the enclosing span of the same thread (``-1`` for a root) and the spans of one
query / client operation / mutation share ``op_id``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Dict, List, Sequence

NAME, START, END, PARENT, OP = range(5)
Span = List[Any]


class _Open:
    __slots__ = ("_spans", "_stack", "_span")

    def __init__(self, spans: List[Span], stack: List[int], name: str, op_id: Any):
        self._spans = spans
        self._stack = stack
        self._span = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id]

    def __enter__(self) -> None:
        self._stack.append(len(self._spans))
        self._spans.append(self._span)
        self._span[START] = perf_counter()

    def __exit__(self, *_exc: object) -> None:
        self._span[END] = perf_counter()
        self._stack.pop()


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[Span]] = []

    def span(self, name: str, op_id: Any = None) -> _Open:
        local = self._local
        try:
            spans, stack = local.spans, local.stack
        except AttributeError:
            spans, stack = local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(spans)
        return _Open(spans, stack, name, op_id)

    def spans(self) -> List[Span]:
        """Every recorded span, parents re-indexed into the merged list."""
        merged: List[Span] = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            offset = len(merged)
            for name, start, end, parent, op_id in spans:
                merged.append([name, start, end, parent + offset if parent >= 0 else -1, op_id])
        return merged


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it its child spans cover.

    Children are clipped to the parent and overlapping children (possible when
    a child span is handed to another thread) are counted once.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for child in sorted(children.get(index, ()), key=lambda c: c[START]):
            start = max(child[START], reach)
            end = min(child[END], span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append((span[END] - span[START]) - covered)
    return result


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self milliseconds."""
    summary: Dict[str, Dict[str, float]] = {}
    for span, self_time in zip(spans, self_times(spans)):
        entry = summary.setdefault(span[NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += (span[END] - span[START]) * 1e3
        entry["self_ms"] += self_time * 1e3
    return summary


def write(path: str, spans: Sequence[Span], meta: Dict[str, Any]) -> None:
    document = {
        "meta": meta,
        "fields": ["name", "start", "end", "parent", "op_id"],
        "summary": summarize(spans),
        "spans": spans,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
