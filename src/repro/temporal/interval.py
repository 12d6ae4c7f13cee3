"""Half-open intervals over a discrete, linearly ordered time domain.

The paper represents the valid time of a tuple as a pair ``[Ts, Te)`` of time
points, with ``Ts`` inclusive and ``Te`` exclusive (Sec. 3.1).  An interval is
a contiguous, non-empty set of time points; the degenerate case ``Ts == Te``
denotes the empty interval and is only used as the result of an empty
intersection.

The class below is deliberately small and allocation-friendly: alignment and
normalization create large numbers of intervals, so we keep the representation
as a frozen two-slot object with integer endpoints and implement every
operation without constructing intermediate point sets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class IntervalError(ValueError):
    """Raised for malformed intervals (e.g. ``end < start``)."""


class Interval:
    """A half-open interval ``[start, end)`` over integer time points.

    The interval contains every time point ``t`` with ``start <= t < end``.
    Instances are immutable, hashable and totally ordered by
    ``(start, end)``, which is the order used by the plane-sweep algorithms.

    >>> Interval(1, 6).intersect(Interval(3, 9))
    Interval(3, 6)
    >>> Interval(1, 6).duration()
    5
    >>> 5 in Interval(1, 6)
    True
    >>> 6 in Interval(1, 6)
    False
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if end < start:
            raise IntervalError(f"interval end {end!r} precedes start {start!r}")
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "end", int(end))

    # -- immutability -----------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interval instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Interval instances are immutable")

    def __reduce__(self):
        # The immutability guard breaks slot-based pickling and copying;
        # reconstruct through the constructor instead.
        return (Interval, (self.start, self.end))

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return f"Interval({self.start}, {self.end})"

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __lt__(self, other: Interval) -> bool:
        return (self.start, self.end) < (other.start, other.end)

    def __le__(self, other: Interval) -> bool:
        return (self.start, self.end) <= (other.start, other.end)

    def __gt__(self, other: Interval) -> bool:
        return (self.start, self.end) > (other.start, other.end)

    def __ge__(self, other: Interval) -> bool:
        return (self.start, self.end) >= (other.start, other.end)

    def __contains__(self, point: int) -> bool:
        return self.start <= point < self.end

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end))

    def __len__(self) -> int:
        return self.end - self.start

    def __bool__(self) -> bool:
        return self.end > self.start

    # -- interrogation -----------------------------------------------------

    def is_empty(self) -> bool:
        """Return ``True`` when the interval contains no time point."""
        return self.end <= self.start

    def duration(self) -> int:
        """Number of time points in the interval (the paper's ``DUR``)."""
        return self.end - self.start

    def points(self) -> range:
        """The contained time points as a :class:`range` (cheap, lazy)."""
        return range(self.start, self.end)

    def as_pair(self) -> Tuple[int, int]:
        """Return ``(start, end)`` — handy for storing into tuples."""
        return (self.start, self.end)

    # -- relationships -----------------------------------------------------

    def overlaps(self, other: Interval) -> bool:
        """``True`` iff the two intervals share at least one time point."""
        return self.start < other.end and other.start < self.end

    def contains_interval(self, other: Interval) -> bool:
        """``True`` iff ``other ⊆ self`` (empty intervals are contained)."""
        if other.is_empty():
            return True
        return self.start <= other.start and other.end <= self.end

    def is_contained_in(self, other: Interval) -> bool:
        """``True`` iff ``self ⊆ other``."""
        return other.contains_interval(self)

    def properly_contains(self, other: Interval) -> bool:
        """``True`` iff ``other ⊂ self`` (strict containment, paper's ``⊂``)."""
        return self.contains_interval(other) and self != other

    def meets(self, other: Interval) -> bool:
        """``True`` iff ``self`` ends exactly where ``other`` starts."""
        return self.end == other.start

    def adjacent(self, other: Interval) -> bool:
        """``True`` iff the intervals touch without overlapping."""
        return self.end == other.start or other.end == self.start

    def precedes(self, other: Interval) -> bool:
        """``True`` iff every point of ``self`` is before every point of ``other``."""
        return self.end <= other.start

    # -- construction of derived intervals ----------------------------------

    def intersect(self, other: Interval) -> Interval:
        """The common sub-interval; empty interval when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end < start:
            return Interval(start, start)
        return Interval(start, end)

    def union_hull(self, other: Interval) -> Interval:
        """Smallest interval covering both arguments (not a set union)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def minus(self, other: Interval) -> List[Interval]:
        """Set difference ``self − other`` as zero, one or two intervals."""
        if not self.overlaps(other):
            return [] if self.is_empty() else [self]
        pieces: List[Interval] = []
        if self.start < other.start:
            pieces.append(Interval(self.start, other.start))
        if other.end < self.end:
            pieces.append(Interval(other.end, self.end))
        return pieces

    def split_at(self, points: Iterable[int]) -> List[Interval]:
        """Split the interval at every interior point of ``points``.

        Only points strictly inside ``(start, end)`` act as split points; the
        result is the ordered list of maximal sub-intervals between them.
        This mirrors how the temporal splitter breaks timestamps at the start
        and end points of group tuples.
        """
        if self.is_empty():
            return []
        interior = sorted({p for p in points if self.start < p < self.end})
        bounds = [self.start] + interior + [self.end]
        return [Interval(a, b) for a, b in zip(bounds, bounds[1:])]

    def shift(self, delta: int) -> Interval:
        """Return the interval translated by ``delta`` time points."""
        return Interval(self.start + delta, self.end + delta)

    def expand(self, before: int = 0, after: int = 0) -> Interval:
        """Return the interval grown by ``before``/``after`` points."""
        return Interval(self.start - before, self.end + after)


#: Canonical empty interval (used as the "no intersection" sentinel).
EMPTY_INTERVAL = Interval(0, 0)


def overlaps(a: Interval, b: Interval) -> bool:
    """Module-level convenience wrapper for :meth:`Interval.overlaps`."""
    return a.overlaps(b)


def duration(a: Interval) -> int:
    """Module-level convenience wrapper for :meth:`Interval.duration`."""
    return a.duration()


def coalesce(intervals: Sequence[Interval]) -> List[Interval]:
    """Merge overlapping or adjacent intervals into maximal intervals.

    The result is sorted and pairwise disjoint with gaps preserved.  This is
    the classical *coalescing* step of temporal databases; note that the
    paper's change-preserving operators deliberately do **not** coalesce
    result tuples that stem from different lineage — this helper is only used
    for analysis, workload generation and the fold/unfold baseline.
    """
    live = sorted((iv for iv in intervals if not iv.is_empty()))
    merged: List[Interval] = []
    for iv in live:
        if merged and iv.start <= merged[-1].end:
            last = merged[-1]
            if iv.end > last.end:
                merged[-1] = Interval(last.start, iv.end)
        else:
            merged.append(iv)
    return merged


def covered_points(intervals: Iterable[Interval]) -> int:
    """Total number of distinct time points covered by ``intervals``."""
    return sum(iv.duration() for iv in coalesce(list(intervals)))


def span(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Smallest interval covering all arguments, or ``None`` when empty."""
    live = [iv for iv in intervals if not iv.is_empty()]
    if not live:
        return None
    return Interval(min(iv.start for iv in live), max(iv.end for iv in live))
