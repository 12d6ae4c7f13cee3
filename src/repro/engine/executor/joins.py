"""Join operators: nested loop, hash and sort-merge.

All three strategies support the join kinds the planner may request:
``inner``, ``left``, ``right``, ``full``, ``semi``, ``anti`` and ``cross``
(nested loop only for ``cross``).  Hash and merge joins require at least one
equality key pair; the full join condition is re-checked as a residual
predicate after the key match, so handing them the complete condition is
always safe.  (The hash join skips the re-check when the condition *is* its
key equalities — the lookup already decided it.)

Null semantics follow SQL: rows whose key contains a null never match, and
end up padded (outer joins) or retained (anti join) accordingly.

The hash join also has a batch form (:func:`repro.columnar.batch.join`) for
a batch consumer above it: ``inner``/``left`` joins whose condition is
exactly the key equalities, over two batch-producing children — the join on
``r.T = s.T`` of the paper's outer-join reductions.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.columnar import batch as batches
from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.expressions import (
    Column,
    Comparison,
    Expression,
    conjuncts_of,
    resolve_column,
)
from repro.obs import trace as obs_trace
from repro.relation.errors import PlanError, QueryError
from repro.relation.tuple import NULL, compare_values, is_null

JOIN_KINDS = ("inner", "left", "right", "full", "semi", "anti", "cross")


class _JoinBase(PhysicalNode):
    """Shared bookkeeping of the three join strategies."""

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        condition: Optional[Expression],
    ):
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        self.kind = kind
        self.left = left
        self.right = right
        self.condition = condition
        if kind in ("semi", "anti"):
            columns = list(left.columns)
        else:
            columns = list(left.columns) + list(right.columns)
        super().__init__(columns, [left, right])
        combined = list(left.columns) + list(right.columns)
        self._right_width = len(right.columns)
        self._left_width = len(left.columns)
        self._bound_condition = condition.bind(combined) if condition is not None else None

    # -- helpers -----------------------------------------------------------------

    def _matches(self, left_row: Row, right_row: Row) -> bool:
        if self._bound_condition is None:
            return True
        return bool(self._bound_condition(left_row + right_row))

    def _emit_pair(self, left_row: Row, right_row: Row) -> Row:
        return left_row + right_row

    def _pad_right(self, left_row: Row) -> Row:
        return left_row + (NULL,) * self._right_width

    def _pad_left(self, right_row: Row) -> Row:
        return (NULL,) * self._left_width + right_row


class _ReplayBuffer:
    """Lazily materialised, re-iterable view of a one-shot row iterator.

    The nested loop needs to scan its inner input once per outer row, but a
    Python iterator can be consumed only once.  Materialising the whole inner
    input up front would defeat short-circuiting consumers (``LIMIT``,
    ``semi``/``exists``), so the buffer pulls inner rows on demand and caches
    them: the first pass reads from the child, later passes replay the cache
    and extend it only as far as they are actually consumed.
    """

    def __init__(self, source: Iterable[Row]):
        self._iterator = iter(source)
        self._cache: List[Row] = []
        self._exhausted = False

    def __iter__(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(index, row)`` pairs, pulling from the source as needed."""
        index = 0
        while True:
            if index < len(self._cache):
                row = self._cache[index]
            elif self._exhausted:
                return
            else:
                try:
                    row = next(self._iterator)
                except StopIteration:
                    self._exhausted = True
                    return
                self._cache.append(row)
            yield index, row
            index += 1


class NestedLoopJoinNode(_JoinBase):
    """Nested loop join: works for every join kind and every condition.

    The inner input is buffered incrementally (see :class:`_ReplayBuffer`)
    rather than materialised up front, so a short-circuiting consumer — a
    downstream ``LIMIT``, or the ``semi`` kind's first-match break — stops
    pulling inner rows as soon as it has what it needs.  Only the ``right``
    and ``full`` kinds must drain the inner input completely (their dangling
    pass needs every inner row).
    """

    def rows(self) -> Iterator[Row]:
        inner = _ReplayBuffer(self.right)
        matched_inner: set = set()

        for left_row in self.left:
            matched = False
            for index, right_row in inner:
                if self._matches(left_row, right_row):
                    matched = True
                    matched_inner.add(index)
                    if self.kind == "semi":
                        break
                    if self.kind not in ("anti",):
                        yield self._emit_pair(left_row, right_row)
            if self.kind == "semi" and matched:
                yield left_row
            elif self.kind == "anti" and not matched:
                yield left_row
            elif not matched and self.kind in ("left", "full"):
                yield self._pad_right(left_row)

        if self.kind in ("right", "full"):
            for index, right_row in inner:
                if index not in matched_inner:
                    yield self._pad_left(right_row)

    def describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"


def _any_null(key: Tuple[Any, ...]) -> bool:
    return any(map(is_null, key))


class HashJoinNode(_JoinBase):
    """Hash join on equality key index pairs.

    The full condition is re-checked as a residual after the key match —
    unless it consists of exactly the key equalities, which the bucket
    lookup has already established (dictionary equality: ``==``, with
    identical objects always equal).
    """

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        condition: Optional[Expression],
        key_pairs: Sequence[Tuple[int, int]],
    ):
        if not key_pairs:
            raise PlanError("hash join requires at least one equality key pair")
        super().__init__(left, right, kind, condition)
        self.key_pairs = list(key_pairs)
        # One key column: the bare value is the key (itemgetter's shape).
        self._left_key: Callable[[Row], Any] = itemgetter(*[i for i, _ in self.key_pairs])
        self._right_key: Callable[[Row], Any] = itemgetter(*[j for _, j in self.key_pairs])
        self._null_key: Callable[[Any], bool] = is_null if len(self.key_pairs) == 1 else _any_null
        self._residual = None if self._keys_decide_condition() else self._bound_condition

    def _keys_decide_condition(self) -> bool:
        """Whether the condition is exactly the equalities of ``key_pairs``.

        Judged on the positions the *bound* condition reads in the combined
        row, so a name that resolves differently there than it did per side
        keeps its residual.
        """
        if self.condition is None:
            return True
        combined = list(self.left.columns) + list(self.right.columns)
        pairs = set()
        for conjunct in conjuncts_of(self.condition):
            if not (
                isinstance(conjunct, Comparison)
                and conjunct.operator == "="
                and isinstance(conjunct.left, Column)
                and isinstance(conjunct.right, Column)
            ):
                return False
            try:
                low, high = sorted(
                    resolve_column(side.name, combined) for side in (conjunct.left, conjunct.right)
                )
            except QueryError:
                return False
            if not low < self._left_width <= high:
                return False
            pairs.add((low, high - self._left_width))
        return pairs == set(self.key_pairs)

    def rows(self) -> Iterator[Row]:
        return self._join(self.left, self.right)

    def produce_batch(self) -> Optional[batches.Batch]:
        if self.kind not in ("inner", "left") or self._residual is not None:
            return None
        left = self.left.batch()
        if left is None:
            return None
        right = self.right.batch()
        if right is not None:
            joined = batches.join(left, right, self.key_pairs, self.kind)
            if joined is not None:
                obs_trace.annotate(self, input="batch")
                return joined
        obs_trace.annotate(self, input="rows")
        right_rows: Iterable[Row] = self.right if right is None else right.materialize()
        rows = list(self._join(left.materialize(), right_rows))
        return batches.Batch.from_rows(rows, len(self.columns))

    def _join(self, left_rows: Iterable[Row], right_rows: Iterable[Row]) -> Iterator[Row]:
        kind = self.kind
        residual = self._residual
        right_key, null_key = self._right_key, self._null_key
        buckets: Dict[Any, List[Tuple[int, Row]]] = defaultdict(list)
        inner_rows: List[Row] = []
        for index, right_row in enumerate(right_rows):
            inner_rows.append(right_row)
            key = right_key(right_row)
            if not null_key(key):
                buckets[key].append((index, right_row))
        matched_inner = [False] * len(inner_rows)

        # Every bucket key is null-free and ω equals only ω, so a probe key
        # containing a null finds no bucket: it needs no check of its own.
        left_key = self._left_key
        for left_row in left_rows:
            matched = False
            for index, right_row in buckets.get(left_key(left_row), ()):
                if residual is None or residual(left_row + right_row):
                    matched = True
                    matched_inner[index] = True
                    if kind == "semi":
                        break
                    if kind != "anti":
                        yield left_row + right_row
            if kind == "semi" and matched:
                yield left_row
            elif kind == "anti" and not matched:
                yield left_row
            elif not matched and kind in ("left", "full"):
                yield self._pad_right(left_row)

        if kind in ("right", "full"):
            for index, right_row in enumerate(inner_rows):
                if not matched_inner[index]:
                    yield self._pad_left(right_row)

    def describe(self) -> str:
        return f"HashJoin({self.kind}, keys={self.key_pairs})"


class MergeJoinNode(_JoinBase):
    """Sort-merge join on equality key index pairs.

    Both inputs are sorted on their key columns; groups of equal keys are
    matched pairwise with the residual condition re-checked.  Null keys sort
    first and never match.
    """

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        condition: Optional[Expression],
        key_pairs: Sequence[Tuple[int, int]],
    ):
        if not key_pairs:
            raise PlanError("merge join requires at least one equality key pair")
        super().__init__(left, right, kind, condition)
        self.key_pairs = list(key_pairs)

    def _sorted(self, rows: List[Row], indexes: List[int]) -> List[Row]:
        def compare(a: Row, b: Row) -> int:
            for i in indexes:
                result = compare_values(a[i], b[i])
                if result != 0:
                    return result
            return 0

        return sorted(rows, key=functools.cmp_to_key(compare))

    def rows(self) -> Iterator[Row]:
        left_indexes = [i for i, _ in self.key_pairs]
        right_indexes = [j for _, j in self.key_pairs]
        left_rows = self._sorted(list(self.left), left_indexes)
        right_rows = self._sorted(list(self.right), right_indexes)

        def key_of(row: Row, indexes: List[int]) -> Optional[Tuple[Any, ...]]:
            key = tuple(row[i] for i in indexes)
            return None if any(is_null(v) for v in key) else key

        def compare_keys(a: Optional[Tuple], b: Optional[Tuple]) -> int:
            # None (null key) sorts first and never equals anything.
            if a is None and b is None:
                return -1
            if a is None:
                return -1
            if b is None:
                return 1
            for x, y in zip(a, b):
                result = compare_values(x, y)
                if result != 0:
                    return result
            return 0

        matched_right: set = set()
        produced_left: set = set()
        li, ri = 0, 0
        while li < len(left_rows) and ri < len(right_rows):
            lkey = key_of(left_rows[li], left_indexes)
            rkey = key_of(right_rows[ri], right_indexes)
            if lkey is None:
                li += 1
                continue
            if rkey is None:
                ri += 1
                continue
            comparison = compare_keys(lkey, rkey)
            if comparison < 0:
                li += 1
            elif comparison > 0:
                ri += 1
            else:
                # Collect the equal-key groups on both sides.
                lj = li
                while lj < len(left_rows) and key_of(left_rows[lj], left_indexes) == lkey:
                    lj += 1
                rj = ri
                while rj < len(right_rows) and key_of(right_rows[rj], right_indexes) == rkey:
                    rj += 1
                for a in range(li, lj):
                    left_row = left_rows[a]
                    matched = False
                    for b in range(ri, rj):
                        right_row = right_rows[b]
                        if self._matches(left_row, right_row):
                            matched = True
                            matched_right.add(b)
                            if self.kind == "semi":
                                break
                            if self.kind != "anti":
                                yield self._emit_pair(left_row, right_row)
                    if matched:
                        produced_left.add(a)
                li, ri = lj, rj

        # Emit dangling left rows (or anti/semi results) in a final pass.
        if self.kind in ("left", "full", "anti", "semi"):
            for index, left_row in enumerate(left_rows):
                if self.kind == "semi":
                    if index in produced_left:
                        yield left_row
                elif self.kind == "anti":
                    if index not in produced_left:
                        yield left_row
                elif index not in produced_left:
                    yield self._pad_right(left_row)

        if self.kind in ("right", "full"):
            for index, right_row in enumerate(right_rows):
                if index not in matched_right:
                    yield self._pad_left(right_row)

    def describe(self) -> str:
        return f"MergeJoin({self.kind}, keys={self.key_pairs})"
