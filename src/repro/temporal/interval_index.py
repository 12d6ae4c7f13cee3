"""The overlap index a maintained ALIGN view probes.

The group construction of alignment ``Φθ`` is an interval overlap join
(Sec. 5/6.1 of the paper).  The event-based plane sweep in
:mod:`repro.core.sweep` is the right strategy when both inputs are seen
once: it sorts both sides and pays ``O((n+m) log(n+m))`` per call.  But a
maintained :class:`~repro.views.view.AlignView` re-aligns every changed base
tuple against the *same* reference relation, and then re-sorting the
reference on every probe is wasted work.

:class:`IntervalIndex` is the amortised alternative: sort the reference side
**once** into endpoint arrays plus a static centered interval tree, then
answer each overlap query with ``bisect`` probes (for entries *starting*
inside the query) and a stabbing query on the tree (for entries straddling
the query start).  Building costs ``O(m log m)``; a probe costs
``O(log m + k)`` where ``k`` is the number of reported intervals — the bound
holds even in the adversarial case of one very long interval covering the
whole axis (an open-ended "current" row in temporal data), which defeats
simpler scan-with-cutoff schemes.

:class:`KeyedIntervalIndex` adds the equality-key restriction of an equi-θ
alignment: one :class:`IntervalIndex` per key partition (an unkeyed view
uses the single key ``()``).

Both classes are static snapshots: they do not observe later mutations of the
indexed collection.  The view caches its index on the reference relation
(:meth:`~repro.relation.relation.TemporalRelation.derived`), which drops the
cache on every mutation — the repeated-reference speedup without a
coherence hazard.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple


class _StabNode:
    """One node of a static centered interval tree (half-open semantics)."""

    __slots__ = ("center", "left", "right", "by_start", "by_end")

    def __init__(self, center: int):
        self.center = center
        self.left: Optional[_StabNode] = None
        self.right: Optional[_StabNode] = None
        #: Entries containing ``center``, ascending by start / descending by end.
        self.by_start: List[Tuple[int, int, Any]] = []
        self.by_end: List[Tuple[int, int, Any]] = []


def _build_stab_tree(entries: List[Tuple[int, int, Any]]) -> Optional[_StabNode]:
    """Build a centered interval tree over non-degenerate ``(start, end, item)``.

    ``center`` is a median start point, which guarantees both subtrees hold at
    most half of the distinct starts (depth ``O(log m)``); every entry whose
    interval contains the center stays at the node.
    """
    if not entries:
        return None
    starts = sorted(e[0] for e in entries)
    node = _StabNode(starts[len(starts) // 2])
    left_entries: List[Tuple[int, int, Any]] = []
    right_entries: List[Tuple[int, int, Any]] = []
    for entry in entries:
        if entry[1] <= node.center:
            left_entries.append(entry)
        elif entry[0] > node.center:
            right_entries.append(entry)
        else:
            node.by_start.append(entry)
    node.by_start.sort(key=lambda e: (e[0], e[1]))
    node.by_end = sorted(node.by_start, key=lambda e: e[1], reverse=True)
    node.left = _build_stab_tree(left_entries)
    node.right = _build_stab_tree(right_entries)
    return node


def _stab(node: Optional[_StabNode], point: int, out: List[Tuple[int, int, Any]]) -> None:
    """Collect entries with ``start <= point < end`` into ``out``."""
    while node is not None:
        if point < node.center:
            # Center entries end past the center, hence past ``point``; only
            # the start side needs checking.
            for entry in node.by_start:
                if entry[0] > point:
                    break
                out.append(entry)
            node = node.left
        elif point > node.center:
            # Center entries start at or before the center; only the end side
            # needs checking.
            for entry in node.by_end:
                if entry[1] <= point:
                    break
                out.append(entry)
            node = node.right
        else:
            out.extend(node.by_start)
            return


class IntervalIndex:
    """Sorted-endpoint index answering "which entries overlap ``[start, end)``?".

    Entries are ``(start, end, item)`` triples.  The index keeps parallel
    arrays sorted by start point (probed with ``bisect`` for entries starting
    inside a query) plus a centered interval tree used to *stab* the query
    start for straddling entries — keeping probes ``O(log m + k)`` even when
    a few long intervals span the whole axis.

    Args:
        entries: Iterable of ``(start, end, item)`` triples.  Degenerate
            entries (``end <= start``) are allowed; whether they can match is
            decided by the probe predicate, which is the exact half-open
            overlap test ``entry.start < end and entry.end > start``.

    >>> index = IntervalIndex([(0, 5, "a"), (3, 9, "b"), (7, 8, "c")])
    >>> index.probe(4, 7)
    ['a', 'b']
    >>> index.probe(20, 30)
    []
    """

    __slots__ = ("_starts", "_ends", "_items", "_tree")

    def __init__(self, entries: Iterable[Tuple[int, int, Any]]):
        ordered = sorted(entries, key=lambda e: (e[0], e[1]))
        self._starts: List[int] = [e[0] for e in ordered]
        self._ends: List[int] = [e[1] for e in ordered]
        self._items: List[Any] = [e[2] for e in ordered]
        # Degenerate entries contain no point, so they can never straddle a
        # query start; keeping them out also guarantees tree construction
        # makes progress (every entry with start == center stays at the node).
        self._tree = _build_stab_tree([e for e in ordered if e[1] > e[0]])

    def __len__(self) -> int:
        return len(self._items)

    def probe(self, start: int, end: int) -> List[Any]:
        """All items whose interval overlaps the half-open ``[start, end)``.

        The overlap predicate is ``entry.start < end and entry.end > start``
        — identical to the condition the planner attaches to the
        group-construction join (Fig. 8), so probe results match what a
        nested-loop evaluation of that condition would produce.

        Returns:
            Matching items ordered by ``(start, end)`` of their interval.
        """
        starts = self._starts
        if not starts:
            return []
        # Candidates split exactly in two: entries *starting* inside
        # ``(start, end)`` — a bisect range, all of which overlap because
        # their end is at least their start — and entries straddling the
        # query start (``entry.start <= start < entry.end``), answered by the
        # stab tree.
        hi = bisect_left(starts, end)
        lo = bisect_right(starts, start, 0, hi)

        straddlers: List[Tuple[int, int, Any]] = []
        _stab(self._tree, start, straddlers)
        # A stabbed entry may start exactly at ``start``; for a degenerate
        # query (``end == start``) that violates ``entry.start < end``.
        straddlers = [e for e in straddlers if e[0] < end]
        straddlers.sort(key=lambda e: (e[0], e[1]))
        result = [e[2] for e in straddlers]
        ends = self._ends
        items = self._items
        result.extend(items[i] for i in range(lo, hi) if ends[i] > start)
        return result


class KeyedIntervalIndex:
    """One :class:`IntervalIndex` per equality-key partition.

    This mirrors the hash-partition-then-sweep strategy of
    :func:`repro.core.sweep.overlap_groups`: candidates must agree on a key
    (the equi part of an alignment θ) before the interval test applies.

    Args:
        entries: Iterable of ``(key, start, end, item)`` quadruples.
    """

    __slots__ = ("_partitions",)

    def __init__(self, entries: Iterable[Tuple[Hashable, int, int, Any]]):
        grouped: Dict[Hashable, List[Tuple[int, int, Any]]] = {}
        for key, start, end, item in entries:
            grouped.setdefault(key, []).append((start, end, item))
        self._partitions: Dict[Hashable, IntervalIndex] = {
            key: IntervalIndex(part) for key, part in grouped.items()
        }

    def __len__(self) -> int:
        return sum(len(index) for index in self._partitions.values())

    def probe(self, key: Hashable, start: int, end: int) -> List[Any]:
        """Items of partition ``key`` overlapping ``[start, end)`` (or ``[]``)."""
        index = self._partitions.get(key)
        if index is None:
            return []
        return index.probe(start, end)
