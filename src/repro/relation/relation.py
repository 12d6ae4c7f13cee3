"""The temporal relation container.

A temporal relation is a finite set of interval-timestamped tuples over a
common schema.  The paper assumes *set-based semantics with duplicate-free
relations*: no two distinct tuples may agree on every nontemporal attribute
while their timestamps overlap (Sec. 3.1).  :class:`TemporalRelation` can
either enforce or merely check this condition; intermediate results of the
reduction rules (e.g. aligned relations) legitimately violate it, so
enforcement is opt-in.

The container also provides the two schema-level operators the paper defines
outside the algebra proper:

* the timeslice operator ``τ_t`` (Sec. 3.1), and
* the extend operator ``U`` for timestamp propagation (Def. 3).

Mutations follow *sequenced* semantics: ``delete``/``update`` restricted to a
period split the affected tuples' intervals at the period boundaries (the
same split machinery normalization uses, :meth:`Interval.split_at`), touch
only the fragment inside the period and leave the rest intact.  Relations
with change tracking enabled additionally record every mutation as ``+``/``-``
:class:`~repro.relation.changelog.Delta` records, which is what the
incremental view maintenance of :mod:`repro.views` consumes.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs import metrics as obs_metrics

_DERIVED_COUNTER = obs_metrics.counter("relation.derived", label_name="cache")
from repro.relation.changelog import ChangeLog, Delta
from repro.relation.errors import DuplicateTupleError, SchemaError
from repro.relation.schema import Schema
from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval

#: Signature of a mutation listener: ``fn(relation, deltas)``.
MutationListener = Callable[["TemporalRelation", List[Delta]], None]


def sequenced_fragments(
    t: TemporalTuple,
    period: Optional[Interval],
    assignments: Optional[Mapping[str, Any]],
    schema: Schema,
) -> List[TemporalTuple]:
    """Surviving fragments of one tuple under a sequenced mutation
    (``assignments is None`` encodes a delete); only they are constructed.

    An autocommit statement and a transaction workspace both reach this
    through :meth:`TemporalRelation._mutate`, so both produce identical
    fragments for identical statements.
    """
    if assignments is None:  # delete
        if period is None:
            return []
        return [t.with_interval(piece) for piece in t.interval.minus(period)]
    values = list(t.values)
    for name, value in assignments.items():
        values[schema.index_of(name)] = value(t) if callable(value) else value
    updated = tuple(values)
    if period is None:
        return [TemporalTuple(schema, updated, t.interval)]
    return [
        TemporalTuple(schema, updated if piece.is_contained_in(period) else t.values, piece)
        for piece in t.interval.split_at((period.start, period.end))
    ]


#: A stored row: ``(rowid, tuple)``.
Row = Tuple[int, TemporalTuple]
#: One logged record of a mutation batch: ``(sign, rowid, tuple, version)``.
#: A removal's tuple may be ``None``: applying a batch takes the live one.
DeltaRecord = Tuple[str, int, Optional[TemporalTuple], int]


def log_order(
    removed: Sequence[Tuple[Row, Sequence[Row]]], appended: Sequence[Row]
) -> List[Tuple[str, int, TemporalTuple]]:
    """The one order a mutation batch is logged in; :func:`parse_log_order`
    reads it back.

    ``removed`` pairs each removed stored row with the rows of the fragments
    replacing it.  The ``appended`` rows' ``+`` come first, then each
    removed row's ``-`` directly followed by its fragments' ``+``: the
    lineage that lets replay rebuild the exact physical layout.
    """
    records = [("+", rowid, t) for rowid, t in appended]
    for (rowid, t), fragments in removed:
        records.append(("-", rowid, t))
        records.extend(("+", fragment_rowid, f) for fragment_rowid, f in fragments)
    return records


def parse_log_order(
    records: Iterable[Sequence[Any]],
) -> Tuple[List[Tuple[int, List[Row]]], List[Row]]:
    """Split one batch in :func:`log_order` back into ``(removed, appended)``:
    each removed rowid with its fragment rows, in log order, and the
    appended rows.  A ``+`` before the first ``-`` is appended; every later
    ``+`` replaces the closest preceding ``-``."""
    removed: List[Tuple[int, List[Row]]] = []
    appended: List[Row] = []
    current = appended
    for sign, rowid, t, *_ in records:
        if sign == "-":
            current = []
            removed.append((rowid, current))
        else:
            current.append((rowid, t))
    return removed, appended


class TemporalRelation:
    """A finite collection of :class:`TemporalTuple` over one schema.

    Tuples are stored in insertion order (deterministic iteration makes tests
    and benchmarks reproducible) but compare as sets: two relations are equal
    when they contain the same set of tuples.

    >>> rel = TemporalRelation(Schema(["name"]))
    >>> _ = rel.insert(("Ann",), Interval(0, 7))
    >>> len(rel)
    1
    """

    def __init__(
        self,
        schema: Schema,
        tuples: Optional[Iterable[TemporalTuple]] = None,
        enforce_duplicate_free: bool = False,
    ):
        self.schema = schema
        self.enforce_duplicate_free = enforce_duplicate_free
        self._tuples: List[TemporalTuple] = []
        #: Rowids parallel to ``_tuples``: stable physical identity of each
        #: stored tuple (two value-equal tuples carry distinct rowids).
        self._rowids: List[int] = []
        self._next_rowid: int = 0
        #: Cache of expensive derived structures (columnar frames, split
        #: points, the rows the engine scans); dropped on
        #: every mutation so cached entries are always consistent with the
        #: current tuple set.
        self._derived_cache: Dict[Any, Any] = {}
        #: Change log (``None`` until tracking is enabled — intermediate
        #: results built by the adjustment operators never pay for logging).
        self._changelog: Optional[ChangeLog] = None
        self._listeners: List[MutationListener] = []
        if tuples is not None:
            self._tuples = list(tuples)
            for t in self._tuples:
                _check_schema(schema, t)
            if enforce_duplicate_free and not _tuples_duplicate_free(self._tuples):
                raise DuplicateTupleError("the tuples violate the duplicate-free condition")
            self._rowids = list(range(len(self._tuples)))
            self._next_rowid = len(self._tuples)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Tuple[Sequence[Any], Interval]],
        enforce_duplicate_free: bool = False,
    ) -> TemporalRelation:
        """Build a relation from ``(values, interval)`` pairs."""
        relation = cls(schema, enforce_duplicate_free=enforce_duplicate_free)
        for values, interval in rows:
            relation.insert(values, interval)
        return relation

    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        rows: Iterable[Dict[str, Any]],
        enforce_duplicate_free: bool = False,
    ) -> TemporalRelation:
        """Build a relation from dictionaries with a ``(start, end)`` pair
        or :class:`Interval` stored under the schema's timestamp name."""
        relation = cls(schema, enforce_duplicate_free=enforce_duplicate_free)
        for row in rows:
            raw = row[schema.timestamp]
            interval = raw if isinstance(raw, Interval) else Interval(*raw)
            values = tuple(row[a] for a in schema.attribute_names)
            relation.insert(values, interval)
        return relation

    def add(self, tuple_: TemporalTuple) -> TemporalTuple:
        """Add an existing tuple (its schema must match attribute-wise)."""
        _check_schema(self.schema, tuple_)
        if self._changelog is not None or self.enforce_duplicate_free:
            self._apply_statement((), (), [tuple_])
            return tuple_
        # Untracked relations (intermediate results) append in place and
        # skip the listener dispatch of ``_after_mutation``, keeping its
        # invalidation.
        self._tuples.append(tuple_)
        self._rowids.append(self._next_rowid)
        self._next_rowid += 1
        if self._derived_cache:
            self._derived_cache.clear()
        return tuple_

    def insert(self, values: Sequence[Any], interval: Interval) -> TemporalTuple:
        """Create and add a tuple from raw values and an interval."""
        if not isinstance(interval, Interval):
            interval = Interval(*interval)
        return self.add(TemporalTuple(self.schema, values, interval))

    # -- change tracking -----------------------------------------------------

    def enable_change_tracking(self) -> None:
        """Start recording mutations as :class:`Delta` records.

        Idempotent.  Tracking is opt-in so that the millions of intermediate
        tuples the adjustment operators build never pay for logging; the
        engine enables it for every relation registered in a
        :class:`~repro.engine.database.Database`.
        """
        if self._changelog is None:
            self._changelog = ChangeLog()

    @property
    def tracks_changes(self) -> bool:
        """Whether mutations are being recorded in a change log."""
        return self._changelog is not None

    @property
    def version(self) -> int:
        """Version of the last recorded change (0 when untracked/unchanged)."""
        return self._changelog.version if self._changelog is not None else 0

    def changes_since(self, version: int) -> List[Delta]:
        """Deltas newer than ``version`` (oldest first); requires tracking.

        Raises :class:`~repro.relation.changelog.ChangeLogTruncatedError` when
        the cursor predates a trimmed prefix — consumers then recompute.
        """
        if self._changelog is None:
            raise SchemaError("change tracking is not enabled on this relation")
        return self._changelog.since(version)

    def trim_changelog(self, below: int) -> int:
        """Drop change records with version ``<= below`` (memory bound)."""
        if self._changelog is None:
            return 0
        return self._changelog.trim(below)

    @property
    def next_rowid(self) -> int:
        """The rowid the next inserted tuple will receive (storage metadata)."""
        return self._next_rowid

    @property
    def changelog_trimmed_below(self) -> int:
        """Trim watermark of the change log (0 when untracked/untrimmed)."""
        return self._changelog.trimmed_below if self._changelog is not None else 0

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register ``listener(relation, deltas)`` to run after each mutation."""
        self._listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        self._listeners.remove(listener)

    def rows_with_ids(self) -> List[Tuple[int, TemporalTuple]]:
        """``(rowid, tuple)`` pairs in insertion order (a copy)."""
        return list(zip(self._rowids, self._tuples))

    def live_rowids(self) -> Set[int]:
        """The rowids of the relation's tuples, without touching the tuples."""
        return set(self._rowids)

    # -- durability support ---------------------------------------------------

    @classmethod
    def restore(
        cls,
        schema: Schema,
        rows_with_ids: Iterable[Tuple[int, Tuple[Sequence[Any], Interval]]],
        next_rowid: int,
        changelog_version: int = 0,
        trimmed_below: int = 0,
        enforce_duplicate_free: bool = False,
    ) -> TemporalRelation:
        """Rebuild a tracked relation from persisted state (snapshot load).

        ``rows_with_ids`` carries the *physical* identity of every tuple —
        rowids must round-trip exactly or the fragment lineage of dependent
        materialized views would no longer address the right base tuples.
        The change-log counters are restored so that WAL replay continues the
        original version sequence.
        """
        relation = cls(schema, enforce_duplicate_free=enforce_duplicate_free)
        for rowid, (values, interval) in rows_with_ids:
            relation._tuples.append(TemporalTuple(schema, tuple(values), interval))
            relation._rowids.append(rowid)
        relation._next_rowid = next_rowid
        relation.enable_change_tracking()
        assert relation._changelog is not None
        relation._changelog.restore(changelog_version, trimmed_below)
        return relation

    def replay_deltas(self, batches: Sequence[Sequence[DeltaRecord]]) -> int:
        """Re-apply a run of logged mutation batches during recovery.

        Each batch holds its records in :func:`log_order`.  The run is
        applied by the one writer, :meth:`_apply_run`, in one call: one
        layout rebuild however many batches the run holds, so a recovered
        relation is identical to the lost one, iteration order included.

        A batch whose last version is not newer than the log's version at
        that point of the run is skipped entirely (it is already contained
        in the snapshot the relation was restored from — the idempotence
        check that makes recovery safe when a crash hits between the
        snapshot rename and the WAL reset).  Returns the number of batches
        applied.
        """
        if not self.tracks_changes:
            raise SchemaError("replay requires change tracking on the relation")
        version = self.version
        applied = []
        for batch in batches:
            if batch and batch[-1][3] > version:
                applied.append(batch)
                version = batch[-1][3]
        if not applied:
            return 0
        removed = {rowid for batch in applied for sign, rowid, *_ in batch if sign == "-"}
        positions = [p for p, rowid in enumerate(self._rowids) if rowid in removed]
        self._apply_run(positions, applied)
        return len(applied)

    def _after_mutation(self, deltas: List[Delta]) -> None:
        """Epilogue of every batch :meth:`_apply_run` applies.

        Drops **all** derived caches (columnar frames, split points,
        engine rows) so no stale structure can be served, then
        notifies listeners.
        """
        if self._derived_cache:
            self._derived_cache.clear()
        if deltas and self._listeners:
            for listener in list(self._listeners):
                listener(self, deltas)

    # -- sequenced mutations -------------------------------------------------

    def delete(
        self,
        predicate: Optional[Callable[[TemporalTuple], bool]] = None,
        period: Optional[Interval] = None,
    ) -> List[Delta]:
        """Sequenced ``DELETE``: remove matching tuples over ``period``.

        Without ``period`` matching tuples are removed entirely.  With a
        period, each matching tuple whose interval overlaps it is split at
        the period boundaries; the overlapping fragment disappears and the
        fragments outside the period survive with their original values —
        the textbook sequenced-delete semantics.

        Returns the list of deltas describing the change (``-`` for each
        removed tuple, ``+`` for each surviving fragment); empty when nothing
        matched.  The deltas are also appended to the change log when
        tracking is enabled.
        """
        return self._mutate(predicate, period, assignments=None)

    def update(
        self,
        assignments: Mapping[str, Any],
        predicate: Optional[Callable[[TemporalTuple], bool]] = None,
        period: Optional[Interval] = None,
    ) -> List[Delta]:
        """Sequenced ``UPDATE``: rewrite matching tuples over ``period``.

        ``assignments`` maps attribute names to new values; a value may be a
        callable receiving the original tuple (``lambda t: t["a"] + 10``).
        With a ``period`` the affected tuples are split at the period
        boundaries (reusing the normalization split machinery,
        :meth:`Interval.split_at`): fragments inside the period carry the new
        values, fragments outside keep the old ones.  Without a period the
        whole tuple is rewritten.

        Returns the deltas describing the change.
        """
        if not assignments:
            return []
        missing = [a for a in assignments if a not in self.schema.attribute_names]
        if missing:
            raise SchemaError(
                f"cannot update unknown attributes {missing}; schema has "
                f"{list(self.schema.attribute_names)}"
            )
        return self._mutate(predicate, period, assignments=dict(assignments))

    def _mutate(
        self,
        predicate: Optional[Callable[[TemporalTuple], bool]],
        period: Optional[Interval],
        assignments: Optional[Dict[str, Any]],
    ) -> List[Delta]:
        """Shared engine of :meth:`delete` (``assignments is None``) and
        :meth:`update`: one predicate pass records the affected positions
        and their fragments, then the batch is applied."""
        if period is not None and not isinstance(period, Interval):
            period = Interval(*period)
        if period is not None and period.is_empty():
            return []
        positions: List[int] = []
        fragments: List[List[TemporalTuple]] = []
        for position, t in enumerate(self._tuples):
            if (predicate is None or predicate(t)) and (
                period is None or t.interval.overlaps(period)
            ):
                positions.append(position)
                fragments.append(sequenced_fragments(t, period, assignments, self.schema))
        return self._apply_statement(positions, fragments, ())

    def apply_effects(
        self,
        removals: Sequence[Tuple[int, Sequence[TemporalTuple]]],
        inserts: Sequence[TemporalTuple],
    ) -> List[Delta]:
        """Apply precomputed effects as one mutation batch.

        ``removals`` pairs each removed *live* rowid with the fragments that
        replace it (empty for a plain delete); ``inserts`` are appended new
        tuples.  A committing transaction applies its workspace this way,
        and an autocommit ``INSERT`` its rows: one change-log batch, one
        listener dispatch, hence one WAL record and one MVCC epoch.  The
        layout is the one :meth:`_mutate` produces (see
        :meth:`_apply_statement`).
        """
        replacements = dict(removals)
        if len(replacements) != len(removals):
            raise SchemaError("duplicate rowid in transactional effects")
        rowids = self._rowids
        positions = [p for p, r in enumerate(rowids) if r in replacements] if removals else []
        if len(positions) != len(replacements):
            missing = sorted(replacements.keys() - {rowids[p] for p in positions})
            raise SchemaError(
                f"transactional effects remove unknown rowid(s) {missing}; "
                "the workspace no longer matches this relation"
            )
        return self._apply_statement(
            positions, [replacements[rowids[p]] for p in positions], inserts
        )

    # -- the one mutation batch ---------------------------------------------

    def _apply_statement(
        self,
        positions: Sequence[int],
        fragments: Sequence[Sequence[TemporalTuple]],
        inserts: Sequence[TemporalTuple],
    ) -> List[Delta]:
        """Apply one statement's batch: the stored rows at ``positions``
        (ascending) are replaced by their ``fragments``, ``inserts`` are
        appended.  Fresh rowids follow storage order (fragments by position,
        then inserts); the batch is then applied exactly as WAL replay
        applies its record, so recovery rebuilds the layout by construction.
        """
        if not positions and not inserts:
            return []
        fresh = count(self._next_rowid)
        tuples, rowids = self._tuples, self._rowids
        removed = [
            ((rowids[p], tuples[p]), [(next(fresh), f) for f in pieces])
            for p, pieces in zip(positions, fragments)
        ]
        appended = [(next(fresh), t) for t in inserts]
        batch = [
            (sign, rowid, t, version)
            for version, (sign, rowid, t) in enumerate(
                log_order(removed, appended), self.version + 1
            )
        ]
        return self._apply_run(positions, [batch])

    def _apply_run(
        self, positions: Sequence[int], batches: Sequence[Sequence[DeltaRecord]]
    ) -> List[Delta]:
        """The one writer of a relation's rows after construction.

        ``batches`` are mutation batches in :func:`log_order`, consecutive
        in version; ``positions`` (ascending) locate the stored rows they
        remove.  The whole run is validated before any state changes (each
        version follows the last, each removed rowid is live at that point,
        an enforced duplicate-free condition holds on the result).  The rows
        from the first affected position on are then rebuilt from slices of
        the untouched rows and the fragments — chains where a later batch
        replaces an earlier one's row expand with an explicit stack — then
        the appended rows.  :meth:`_after_mutation` runs once per batch in
        log order.  Cost: O(records + rows after the first position).
        """
        tuples, rowids = self._tuples, self._rowids
        live: Dict[int, TemporalTuple] = {rowids[p]: tuples[p] for p in positions}
        #: Removed rowid -> the live tuple it held (rowids are never reused).
        removed: Dict[int, TemporalTuple] = {}
        #: Removed rowid -> the rows of the fragments that replaced it.
        replaced: Dict[int, List[Row]] = {}
        appended: List[Row] = []
        version = self.version
        next_rowid = self._next_rowid
        for batch in batches:
            batch_replaced, batch_appended = parse_log_order(batch)
            replaced.update(batch_replaced)
            appended.extend(batch_appended)
            for sign, rowid, t, record_version in batch:
                if record_version != version + 1:
                    raise SchemaError(
                        f"replayed version {record_version} does not follow log "
                        f"version {version}; the log does not continue this "
                        "relation's history"
                    )
                version = record_version
                if sign == "+":
                    live[rowid] = t  # an insertion always carries its tuple
                    next_rowid = max(next_rowid, rowid + 1)
                elif rowid in live:
                    removed[rowid] = live.pop(rowid)
                else:
                    raise SchemaError(
                        f"replayed batch removes unknown rowid {rowid}; the log "
                        "does not continue this relation's history"
                    )
        new_tuples: List[TemporalTuple] = []
        new_rowids: List[int] = []

        def expand(rows: Sequence[Row]) -> None:
            pending = list(reversed(rows))
            while pending:  # a stack, so chains of any depth expand in order
                rowid, t = pending.pop()
                fragments = replaced.get(rowid)
                if fragments is None:
                    new_tuples.append(t)
                    new_rowids.append(rowid)
                else:
                    pending.extend(reversed(fragments))

        first = previous = positions[0] if positions else len(tuples)
        for p in positions:
            new_tuples.extend(tuples[previous:p])
            new_rowids.extend(rowids[previous:p])
            expand([(rowids[p], tuples[p])])
            previous = p + 1
        new_tuples.extend(tuples[previous:])
        new_rowids.extend(rowids[previous:])
        expand(appended)
        if self.enforce_duplicate_free:
            # The relation was duplicate-free: only the value groups the run
            # adds to can break the condition.
            added = {t.values for batch in batches for sign, _, t, _ in batch if sign == "+"}
            if not _tuples_duplicate_free(
                t for t in chain(tuples[:first], new_tuples) if t.values in added
            ):
                raise DuplicateTupleError(
                    "mutation would violate the duplicate-free condition; no change applied"
                )

        self._tuples[first:] = new_tuples
        self._rowids[first:] = new_rowids
        self._next_rowid = next_rowid
        log = self._changelog
        every: List[Delta] = []
        for batch in batches:
            deltas = []
            for sign, rowid, t, v in batch:
                t = removed[rowid] if sign == "-" else t
                deltas.append(
                    Delta(sign, rowid, t, 0) if log is None else log.append(sign, rowid, t, v)
                )
            self._after_mutation(deltas)
            every.extend(deltas)
        return every

    # -- basic protocol ------------------------------------------------------

    def __iter__(self) -> Iterator[TemporalTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __contains__(self, item: object) -> bool:
        return item in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalRelation):
            return NotImplemented
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.as_set() == other.as_set()
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are rarely hashed
        return hash((self.schema.attribute_names, frozenset(self.as_set())))

    def __repr__(self) -> str:
        return f"TemporalRelation({self.schema!r}, {len(self)} tuples)"

    # -- interrogation -------------------------------------------------------

    def tuples(self) -> List[TemporalTuple]:
        """The tuples in insertion order (a copy; mutation safe)."""
        return list(self._tuples)

    def tuples_at(self, positions: Iterable[int]) -> List[TemporalTuple]:
        """The tuples at ``positions`` (a columnar frame's row positions)."""
        return [self._tuples[position] for position in positions]

    def as_set(self) -> Set[Tuple[Tuple[Any, ...], Interval]]:
        """Set view ``{(values, interval)}`` used for order-insensitive equality."""
        return {(t.values, t.interval) for t in self._tuples}

    def is_duplicate_free(self) -> bool:
        """Check the duplicate-free condition of Sec. 3.1.

        Uses a sweep per value-equivalence class, so it is ``O(n log n)``
        rather than quadratic.
        """
        return _tuples_duplicate_free(self._tuples)

    def active_points(self) -> List[int]:
        """All start/end points appearing in the relation, sorted and unique.

        The active points are sufficient to check snapshot properties: the
        content of a snapshot can only change at one of these points.
        """
        points: Set[int] = set()
        for t in self._tuples:
            points.add(t.start)
            points.add(t.end)
        return sorted(points)

    def span(self) -> Optional[Interval]:
        """Smallest interval covering all tuples, or ``None`` if empty."""
        if not self._tuples:
            return None
        return Interval(
            min(t.start for t in self._tuples),
            max(t.end for t in self._tuples),
        )

    def cardinality(self) -> int:
        """Number of tuples (alias of ``len`` for readability in benchmarks)."""
        return len(self._tuples)

    # -- derived structures ---------------------------------------------------

    def derived(self, key: Any, builder: Callable[[], Any]) -> Any:
        """Build-once cache for structures derived from the current tuples.

        ``builder`` is called at most once per ``key`` until the relation is
        mutated, at which point every cached entry is dropped.  Used for the
        columnar frames, the normalization split points and the rows the
        engine scans, so that relations
        read by many queries pay the preprocessing cost once.
        """
        try:
            value = self._derived_cache[key]
        except KeyError:
            _DERIVED_COUNTER.inc(label="miss")
            value = builder()
            self._derived_cache[key] = value
            return value
        _DERIVED_COUNTER.inc(label="hit")
        return value

    def peek_derived(self, key: Any) -> Any:
        """The cached derived structure for ``key``, or ``None`` — never builds.

        Read-only companion of :meth:`derived` for consumers that want to
        *reuse* a cache when present without paying to populate it.
        """
        return self._derived_cache.get(key)

    # -- the paper's schema-level operators -----------------------------------

    def timeslice(self, point: int) -> Set[Tuple[Any, ...]]:
        """The timeslice operator ``τ_t(r)`` (Sec. 3.1).

        Returns the *nontemporal* snapshot at ``point``: the set of value
        tuples of all tuples whose interval contains the point.
        """
        return {t.values for t in self._tuples if t.valid_at(point)}

    def timeslice_relation(self, point: int) -> TemporalRelation:
        """Timeslice that keeps tuples (with their intervals) — convenience
        for inspection; the formal ``τ_t`` drops timestamps."""
        return TemporalRelation(
            self.schema, [t for t in self._tuples if t.valid_at(point)]
        )

    def extend(self, attribute: str = "U") -> TemporalRelation:
        """The extend operator ``U`` (Def. 3): timestamp propagation.

        Appends a nontemporal attribute holding a copy of each tuple's
        timestamp so that predicates and functions can reference the
        *original* interval after adjustment.
        """
        extended_schema = self.schema.extend([attribute])
        result = TemporalRelation(extended_schema)
        for t in self._tuples:
            result.insert(t.values + (t.interval,), t.interval)
        return result

    # -- convenience transforms ------------------------------------------------

    def filter(self, predicate: Callable[[TemporalTuple], bool]) -> TemporalRelation:
        """Relation with only the tuples satisfying ``predicate``."""
        return TemporalRelation(self.schema, [t for t in self._tuples if predicate(t)])

    def map_intervals(self, fn: Callable[[Interval], Interval]) -> TemporalRelation:
        """Relation with every interval replaced by ``fn(interval)``."""
        return TemporalRelation(
            self.schema, [t.with_interval(fn(t.interval)) for t in self._tuples]
        )

    def limit(self, n: int) -> TemporalRelation:
        """Relation with only the first ``n`` tuples (insertion order)."""
        return TemporalRelation(self.schema, self._tuples[:n])

    def sorted_by_interval(self) -> TemporalRelation:
        """Relation sorted by ``(start, end, values)`` — used by sweeps and tests."""
        ordered = sorted(self._tuples, key=lambda t: (t.start, t.end, _sort_key(t.values)))
        return TemporalRelation(self.schema, ordered)

    def rename(self, mapping: Dict[str, str]) -> TemporalRelation:
        """Relation with attributes renamed according to ``mapping``."""
        schema = self.schema.rename(mapping)
        return TemporalRelation(
            schema, [TemporalTuple(schema, t.values, t.interval) for t in self._tuples]
        )

    # -- presentation -----------------------------------------------------------

    def pretty(self, timeline=None, limit: Optional[int] = None) -> str:
        """A small fixed-width rendering used by the examples.

        ``timeline`` (a :class:`repro.temporal.timeline.Timeline`) renders
        interval endpoints as labels; by default raw integers are shown.
        """
        rows = self._tuples if limit is None else self._tuples[:limit]
        header = list(self.schema.attribute_names) + [self.schema.timestamp]
        rendered: List[List[str]] = [header]
        for t in rows:
            interval = (
                timeline.format_interval(t.interval) if timeline is not None else str(t.interval)
            )
            rendered.append([str(v) for v in t.values] + [interval])
        widths = [max(len(row[i]) for row in rendered) for i in range(len(header))]
        lines = []
        for row_index, row in enumerate(rendered):
            line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            lines.append(line.rstrip())
            if row_index == 0:
                lines.append("  ".join("-" * w for w in widths))
        if limit is not None and len(self._tuples) > limit:
            lines.append(f"... ({len(self._tuples) - limit} more tuples)")
        return "\n".join(lines)


def _check_schema(schema: Schema, t: TemporalTuple) -> None:
    if t.schema is not schema and t.schema.attribute_names != schema.attribute_names:
        raise SchemaError(f"tuple schema {t.schema!r} does not match relation schema {schema!r}")


def _tuples_duplicate_free(tuples: Iterable[TemporalTuple]) -> bool:
    """Whether no two value-equivalent tuples overlap (Sec. 3.1 condition)."""
    groups: Dict[Tuple[Any, ...], List[Interval]] = {}
    for t in tuples:
        groups.setdefault(t.values, []).append(t.interval)
    for intervals in groups.values():
        intervals.sort()
        for previous, current in zip(intervals, intervals[1:]):
            if current.start < previous.end:
                return False
    return True


def _sort_key(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Total order over heterogeneous value tuples (nulls first, then by repr)."""
    return tuple((0, v) if isinstance(v, (int, float)) and not isinstance(v, bool) else (1, repr(v))
                 for v in values)
