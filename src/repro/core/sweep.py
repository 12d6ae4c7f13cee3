"""Plane-sweep helpers shared by alignment and normalization.

Both primitives need, per argument tuple, the *group* of matching tuples of
the other relation.  Only group members whose interval overlaps the argument
tuple can influence the adjusted timestamps (non-overlapping members produce
an empty intersection and no interior split point), so the group construction
boils down to an **interval overlap join**, optionally restricted by an
equality key or a residual θ predicate.

The paper delegates the group construction to a database-internal left outer
join and lets the optimizer pick nested loop, hash or merge join
(Sec. 6.1/7.2).  The native implementation here uses an event-based plane
sweep, which is ``O((n + m) log(n + m) + |output|)`` — the analogue of the
sort-merge strategy PostgreSQL picks for this join when it is allowed to.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval

#: A θ predicate over one tuple of each argument relation.
ThetaPredicate = Callable[[TemporalTuple, TemporalTuple], bool]

#: A key function used to restrict candidate pairs by equality.
KeyFunction = Callable[[TemporalTuple], Hashable]


def overlap_groups(
    left: Sequence[TemporalTuple],
    right: Sequence[TemporalTuple],
    theta: Optional[ThetaPredicate] = None,
    left_key: Optional[KeyFunction] = None,
    right_key: Optional[KeyFunction] = None,
) -> List[List[TemporalTuple]]:
    """For every tuple of ``left`` return the overlapping matches in ``right``.

    This is the group construction of Sec. 5/6.1: both adjustment primitives
    (normalize, Def. 9; align, Def. 11) need, per ``left`` tuple, the group of
    ``right`` tuples whose interval overlaps it.  The paper delegates this to
    a DBMS left outer join and lets the optimizer choose a strategy; this
    function is the native analogue, with the strategy chosen by its
    arguments:

    * no key — event-based plane sweep (sort-merge analogue);
    * ``left_key``/``right_key`` — hash partition by key, sweep per partition
      (hash-join analogue, for an alignment's equality key).

    Args:
        left: Argument tuples; the result is parallel to this sequence.
        right: Reference tuples searched for overlapping matches.
        theta: Optional residual predicate over ``(left tuple, right tuple)``
            checked after the overlap/key match.
        left_key, right_key: Optional equality-key functions restricting
            candidate pairs to equal keys; must be given together.

    Returns:
        A list parallel to ``left``: entry ``i`` holds the tuples of ``right``
        whose interval overlaps ``left[i].interval`` and which satisfy the
        optional equality key and residual ``theta`` predicate.  All
        strategies produce the same groups (up to member order).
    """
    if left_key is not None or right_key is not None:
        if left_key is None or right_key is None:
            raise ValueError("left_key and right_key must be given together")
        return _keyed_overlap_groups(left, right, theta, left_key, right_key)
    return _sweep_overlap_groups(left, right, theta)


def _keyed_overlap_groups(
    left: Sequence[TemporalTuple],
    right: Sequence[TemporalTuple],
    theta: Optional[ThetaPredicate],
    left_key: KeyFunction,
    right_key: KeyFunction,
) -> List[List[TemporalTuple]]:
    """Hash-partition both inputs by key, then sweep within each partition."""
    right_partitions: Dict[Hashable, List[TemporalTuple]] = defaultdict(list)
    for s in right:
        right_partitions[right_key(s)].append(s)

    left_partitions: Dict[Hashable, List[int]] = defaultdict(list)
    for index, r in enumerate(left):
        left_partitions[left_key(r)].append(index)

    groups: List[List[TemporalTuple]] = [[] for _ in left]
    for key, left_indexes in left_partitions.items():
        partition_right = right_partitions.get(key)
        if not partition_right:
            continue
        partition_left = [left[i] for i in left_indexes]
        partition_groups = _sweep_overlap_groups(partition_left, partition_right, theta)
        for local_index, original_index in enumerate(left_indexes):
            groups[original_index] = partition_groups[local_index]
    return groups


def _sweep_overlap_groups(
    left: Sequence[TemporalTuple],
    right: Sequence[TemporalTuple],
    theta: Optional[ThetaPredicate],
) -> List[List[TemporalTuple]]:
    """Event-based sweep producing, per left tuple, its overlapping right tuples.

    Events are interval start points; tuples are removed lazily from the
    active sets when their end precedes the sweep position.  The complexity is
    ``O((n+m) log(n+m) + |pairs|)`` where pairs are the *overlapping* pairs,
    so disjoint datasets (the paper's ``Ddisj``) cost only the sort.
    """
    groups: List[List[TemporalTuple]] = [[] for _ in left]
    if not left or not right:
        return groups

    # Interval endpoints hoisted into plain lists: the inner loops below run
    # once per event and once per live pair, and repeated ``tuple.end``
    # property chains dominate their cost.
    interval_of = attrgetter("interval")
    left_intervals = [interval_of(t) for t in left]
    right_intervals = [interval_of(t) for t in right]
    left_ends = [iv.end for iv in left_intervals]
    right_ends = [iv.end for iv in right_intervals]

    # (start, kind, index); kind 0 = right before left at equal start so that
    # a right tuple starting exactly where a left tuple starts is active.
    events: List[Tuple[int, int, int]] = []
    append_event = events.append
    for index, iv in enumerate(left_intervals):
        if iv.end > iv.start:
            append_event((iv.start, 1, index))
    for index, iv in enumerate(right_intervals):
        if iv.end > iv.start:
            append_event((iv.start, 0, index))
    events.sort()

    active_left: List[int] = []
    active_right: List[int] = []

    for position, kind, index in events:
        if kind == 1:
            active_right = [j for j in active_right if right_ends[j] > position]
            if active_right:
                group = groups[index]
                if theta is None:
                    group.extend(right[j] for j in active_right)
                else:
                    r = left[index]
                    group.extend(s for s in (right[j] for j in active_right) if theta(r, s))
            active_left.append(index)
        else:
            active_left = [i for i in active_left if left_ends[i] > position]
            if active_left:
                s = right[index]
                if theta is None:
                    for i in active_left:
                        groups[i].append(s)
                else:
                    for i in active_left:
                        if theta(left[i], s):
                            groups[i].append(s)
            active_right.append(index)
    return groups


def matching_groups(
    left: Sequence[TemporalTuple],
    right: Sequence[TemporalTuple],
    theta: Optional[ThetaPredicate] = None,
    require_overlap: bool = True,
    left_key: Optional[KeyFunction] = None,
    right_key: Optional[KeyFunction] = None,
) -> List[List[TemporalTuple]]:
    """Group construction used by the primitives (Defs. 8/10: the set ``g``).

    With ``require_overlap`` (the default, and what alignment/normalization
    need — see the Notes of Def. 9/11 on non-contributing tuples) the
    efficient sweep is used.  Without it every pair is tested with ``theta``
    — that variant exists only to cross-check the definitional semantics in
    tests.

    Args:
        left: Argument tuples; the result is parallel to this sequence.
        right: Reference tuples searched for matches.
        theta: Optional predicate over ``(left tuple, right tuple)``.
        require_overlap: When true, only interval-overlapping pairs are
            candidates and the sweep/key strategies of
            :func:`overlap_groups` apply.
        left_key, right_key: Optional equality-key functions (see
            :func:`overlap_groups`); only honoured with ``require_overlap``.

    Returns:
        Per left tuple, the list of matching right tuples.
    """
    if require_overlap:
        return overlap_groups(left, right, theta, left_key=left_key, right_key=right_key)
    groups: List[List[TemporalTuple]] = []
    for r in left:
        groups.append([s for s in right if theta is None or theta(r, s)])
    return groups


def value_key(attributes: Sequence[str]) -> KeyFunction:
    """Key function returning the tuple of values of ``attributes``.

    This is the equality key of normalization's group construction: tuples
    agree on the ``B`` attributes of ``N_B`` (Def. 9) iff their keys are
    equal.

    Args:
        attributes: Nontemporal attribute names forming the key.

    Returns:
        A function mapping a :class:`~repro.relation.tuple.TemporalTuple` to
        the hashable tuple of its values of ``attributes``.
    """
    names = tuple(attributes)

    def key(t: TemporalTuple) -> Tuple[Any, ...]:
        return t.values_of(names)

    return key


def uncovered_intervals(interval: Interval, covers: Iterable[Interval]) -> List[Interval]:
    """Maximal sub-intervals of ``interval`` not covered by any of ``covers``.

    Used by the aligner for the "no matching tuple" pieces (third and fourth
    line of Def. 10): the parts of an argument tuple's timestamp that no
    group member's interval covers survive unchanged.

    Args:
        interval: The :class:`~repro.temporal.interval.Interval` to cover.
        covers: Iterable of :class:`~repro.temporal.interval.Interval`
            candidate covers (non-overlapping parts are ignored).

    Returns:
        List of maximal gap intervals in ascending order (possibly empty).
    """
    from repro.temporal.interval import Interval, coalesce

    merged = coalesce([c.intersect(interval) for c in covers if c.overlaps(interval)])
    gaps: List[Interval] = []
    cursor = interval.start
    for cover in merged:
        if cover.start > cursor:
            gaps.append(Interval(cursor, cover.start))
        cursor = max(cursor, cover.end)
    if cursor < interval.end:
        gaps.append(Interval(cursor, interval.end))
    return gaps
