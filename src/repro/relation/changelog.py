"""Per-relation change logs: the delta stream behind incremental maintenance.

Every mutation of a tracked :class:`~repro.relation.relation.TemporalRelation`
is recorded as a sequence of :class:`Delta` records — ``+`` for an inserted
tuple, ``-`` for a removed one.  A sequenced ``UPDATE``/``DELETE`` that splits
a tuple's interval at the period boundaries therefore appears in the log
exactly as its set-semantics effect: one removal of the original tuple
followed immediately by one insertion per surviving (or rewritten) fragment.
The interleaving (each removal directly trailed by its replacements) encodes
fragment lineage, which the write-ahead log of :mod:`repro.storage` relies on
to rebuild the exact physical tuple layout during crash recovery.

Consumers (the materialized views of :mod:`repro.views`, the engine's table
snapshots) remember the last :attr:`ChangeLog.version` they observed and pull
everything newer with :meth:`ChangeLog.since`; deltas are never pushed.  The
log can be trimmed to bound memory — a consumer whose cursor predates the
trimmed prefix gets :class:`ChangeLogTruncatedError` and must fall back to a
full recompute, which is exactly the fallback path the view maintenance cost
model already owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.relation.tuple import TemporalTuple


class ChangeLogTruncatedError(LookupError):
    """The requested cursor lies before the trimmed prefix of the log."""


@dataclass(frozen=True)
class Delta:
    """One tuple-level change: ``sign`` is ``'+'`` (insert) or ``'-'`` (delete).

    ``rowid`` identifies the *physical* tuple (two value-equal tuples inserted
    separately carry distinct rowids), which is what lets a view remove
    exactly the fragments derived from one deleted base tuple.
    """

    sign: str
    rowid: int
    tuple: TemporalTuple
    version: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Delta({self.sign}{self.rowid}@{self.version}, {self.tuple!r})"


class ChangeLog:
    """An append-only, trimmable sequence of :class:`Delta` records.

    Versions are assigned per *record* (not per statement): a sequenced update
    that splits one tuple into three fragments advances the version by four.
    ``since(v)`` returns every record with version ``> v`` — the natural
    cursor protocol for pull-based consumers.
    """

    def __init__(self) -> None:
        self._records: List[Delta] = []
        #: Highest version assigned so far (0 before the first record).
        self.version: int = 0
        #: Versions ``<= trimmed_below`` are no longer available.
        self.trimmed_below: int = 0

    def __len__(self) -> int:
        return len(self._records)

    def append(self, sign: str, rowid: int, tuple_: TemporalTuple, version: int) -> Delta:
        """Record one change under ``version``, the next one.

        Versions are dense and monotonically increasing: a live mutation
        and WAL replay hand records over in the same order, and any gap
        means the caller's history and this log disagree.
        """
        if version != self.version + 1:
            raise ValueError(
                f"version {version} does not follow log version {self.version}"
            )
        self.version = version
        delta = Delta(sign, rowid, tuple_, version)
        self._records.append(delta)
        return delta

    # -- durability support --------------------------------------------------

    def restore(self, version: int, trimmed_below: int) -> None:
        """Reset the log counters to a recovered snapshot state.

        Only valid on an empty log (recovery builds the relation first, then
        restores the counters, then replays the WAL suffix on top).
        """
        if self._records:
            raise ValueError("cannot restore counters on a non-empty change log")
        if trimmed_below > version:
            raise ValueError(
                f"trimmed_below {trimmed_below} exceeds restored version {version}"
            )
        self.version = version
        self.trimmed_below = trimmed_below

    def since(self, version: int) -> List[Delta]:
        """All records newer than ``version`` (oldest first).

        Raises :class:`ChangeLogTruncatedError` when ``version`` predates the
        trimmed prefix — the caller can no longer catch up incrementally.
        """
        if version < self.trimmed_below:
            raise ChangeLogTruncatedError(
                f"cursor {version} predates trimmed prefix (< {self.trimmed_below})"
            )
        if version >= self.version:
            return []
        # Records are version-ordered; find the first record > version.
        low, high = 0, len(self._records)
        while low < high:
            mid = (low + high) // 2
            if self._records[mid].version <= version:
                low = mid + 1
            else:
                high = mid
        return self._records[low:]

    def trim(self, below: int) -> int:
        """Drop records with version ``<= below``; returns how many were dropped.

        Consumers whose cursor is older than ``below`` will subsequently get
        :class:`ChangeLogTruncatedError` from :meth:`since`.
        """
        below = min(below, self.version)
        if below <= self.trimmed_below:
            return 0
        kept = [d for d in self._records if d.version > below]
        dropped = len(self._records) - len(kept)
        self._records = kept
        self.trimmed_below = below
        return dropped
