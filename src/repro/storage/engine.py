"""The storage engine: wires a :class:`~repro.engine.database.Database` to
its write-ahead log and snapshot files.

Directory layout (``Database.open(path)`` creates it)::

    path/
      wal.log       framed mutation/DDL records since the last checkpoint
      snapshot.bin  latest checkpoint (atomic rename; one generation kept)

Logged record types
-------------------

``register``    a relation registered under a name (schema + current rows +
                rowids + change-log counters — relations may arrive already
                populated)
``mutate``      one statement's mutation batch (a multi-row ``INSERT``
                included), or inside ``txn_commit`` one relation's share of
                a transaction: ``(sign, rowid, values, ts, te, version)``
                deltas of one relation in
                :func:`~repro.relation.relation.log_order`
``create_view`` a materialized view's serializable definition
``drop_view`` / ``drop_table`` / ``trim``  the remaining DDL events

Checkpoint policy
-----------------

A checkpoint (manual ``CHECKPOINT``/``Database.checkpoint()``, automatic
every ``auto_checkpoint`` records, and always on ``Database.close()``) first
refreshes every view — so view cursors equal the relation versions and the
serialized reference-side state is cursor-consistent — then atomically
writes the snapshot labelled ``epoch + 1`` and resets the WAL to that epoch.
Recovery order is the mirror image: snapshot relations, snapshot views,
then WAL replay; replayed deltas advance the change logs past the view
cursors, so the first post-recovery refresh folds exactly the suffix —
*incremental* maintenance resumes, nothing silently recomputes.

Recovery does O(snapshot + log) work.  Consecutive ``mutate`` records —
including those inside ``txn_commit`` frames — are buffered per relation
and replayed as one run
(:meth:`~repro.relation.relation.TemporalRelation.replay_deltas`, one
call of the relation's one writer and one layout rebuild per run); every other record kind flushes the runs first, as
does the end of the log.  The cyclic garbage collector is paused for the
whole recovery (the caller's setting is restored afterwards), and
``storage.recovery_seconds`` / ``storage.wal_apply_seconds`` time each
recovery and its log apply.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

try:  # POSIX only; on other platforms the double-open guard is advisory-off
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.relation.changelog import Delta
from repro.relation.relation import DeltaRecord, TemporalRelation
from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval

from repro.storage import snapshot as snapshot_module
from repro.storage.wal import Record, WalCorruptionError, WalWriter, _fsync_directory, read_wal

_CHECKPOINT_SECONDS = obs_metrics.histogram("storage.checkpoint_seconds")
_RECOVERY_SECONDS = obs_metrics.histogram("storage.recovery_seconds")
_WAL_APPLY_SECONDS = obs_metrics.histogram("storage.wal_apply_seconds")
_POISONED_GAUGE = obs_metrics.gauge("storage.poisoned")

#: One replayed mutation batch (``None`` for a removal's tuple).
Batch = List[DeltaRecord]
#: Mutation batches buffered during replay, per relation name.
Runs = Dict[str, Tuple[TemporalRelation, List[Batch]]]

#: The fields each logged record kind carries besides ``type``.
RECORD_FIELDS: Dict[str, Tuple[str, ...]] = {
    "register": ("name", "relation"),
    "mutate": ("name", "deltas"),
    "txn_commit": ("txn", "records"),
    "create_view": ("definition",),
    "drop_view": ("name",),
    "drop_table": ("name",),
    "trim": ("name", "below"),
}

WAL_FILE = "wal.log"
SNAPSHOT_FILE = "snapshot.bin"
LOCK_FILE = "LOCK"


class StorageError(RuntimeError):
    """Recovery or logging failed in a way that must not be papered over."""


def record_problem(record: object) -> Optional[str]:
    """What keeps replay from applying ``record``, or ``None``.

    A valid CRC only says a frame holds the bytes that were written; a
    record of another shape must still be refused as corruption, not fail
    as whatever ``TypeError`` or ``KeyError`` replay hits first.  A record
    is a ``dict`` of a known ``type`` with that kind's
    :data:`RECORD_FIELDS`; a ``mutate`` delta is a 6-tuple signed ``+`` or
    ``-``; a ``txn_commit`` frame's records obey the same rules.
    """
    if not isinstance(record, dict):
        return f"is a {type(record).__name__}, not a dict"
    kind = record.get("type")
    fields = RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        return f"has unknown type {kind!r}"
    missing = [name for name in fields if name not in record]
    if missing:
        return f"is of type {kind!r} but lacks {missing}"
    if kind == "mutate":
        deltas = record["deltas"]
        if not isinstance(deltas, list) or not all(
            isinstance(d, tuple) and len(d) == 6 and d[0] in ("+", "-") for d in deltas
        ):
            return "has a delta that is not a (sign, rowid, values, ts, te, version) tuple"
    elif kind == "txn_commit":
        if not isinstance(record["records"], list):
            return "has transaction records that are not a list"
        problems = [p for p in map(record_problem, record["records"]) if p is not None]
        if problems:
            return f"holds a transaction record that {problems[0]}"
    elif kind == "create_view" and not (
        isinstance(record["definition"], dict) and "name" in record["definition"]
    ):
        return "has a view definition without a name"
    return None


class StorageEngine:
    """Durability sidecar of one database (see module docstring).

    Statistics live in :attr:`stats` (records/bytes appended, fsyncs,
    checkpoints, replayed records) — ``perf/``'s ``write_recover`` workload
    and the recovery tests read them.
    """

    def __init__(self, database, path: str, sync: bool = True, auto_checkpoint: int = 0):
        self.database = database
        self.path = path
        self.sync = sync
        self.auto_checkpoint = auto_checkpoint
        os.makedirs(path, exist_ok=True)
        # Make the database directory's own entry durable — a crash right
        # after creation must not forget the directory that will hold the
        # fsync'd WAL.  (_fsync_directory syncs the *parent* of its argument;
        # wal.log's own entry is synced by WalWriter.create.)
        _fsync_directory(os.path.abspath(path))
        self.wal_path = os.path.join(path, WAL_FILE)
        self.snapshot_path = os.path.join(path, SNAPSHOT_FILE)
        # Exactly one live engine per directory: two writers appending to one
        # WAL with independent epoch state would silently discard each
        # other's acknowledged commits at recovery.  flock releases with the
        # file handle, so a crashed engine never leaves a stale lock behind.
        self._lock_handle = self._acquire_lock()
        self.epoch = 0
        self._wal: Optional[WalWriter] = None
        self._replaying = False
        self._closed = False
        #: Set when a checkpoint failed *after* its snapshot rename: the
        #: on-disk WAL epoch no longer matches the engine's, so acknowledging
        #: further commits would hand recovery records it must discard.
        self._poisoned: Optional[str] = None
        _POISONED_GAUGE.set(0)
        self._records_since_checkpoint = 0
        #: Open transaction frame: mutation records buffered between
        #: ``transaction_scope`` entry and exit (one atomic WAL record).
        self._txn_buffer: Optional[List[Record]] = None
        #: WAL listeners installed on registered relations: name -> (relation, fn).
        self._attached: Dict[str, Tuple[TemporalRelation, object]] = {}
        self.stats: Dict[str, int] = {
            "records": 0,
            "bytes": 0,
            "checkpoints": 0,
            "replayed_records": 0,
            "replayed_mutations": 0,
        }

    def _acquire_lock(self):
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return None
        handle = open(os.path.join(self.path, LOCK_FILE), "a+")  # noqa: SIM115  (lock handle lives as long as the engine)
        for attempt in (0, 1):
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                return handle
            except OSError:
                if attempt == 0:
                    # A crashed-but-uncollected engine (reference cycles keep
                    # it alive) may still hold the lock through its open file
                    # handle; collecting closes the handle and releases it.
                    gc.collect()
        handle.close()
        raise StorageError(
            f"database directory {self.path!r} is locked by another live "
            "storage engine; close() it before opening the path again"
        )

    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd releases the flock
            self._lock_handle = None

    # -- degraded mode ---------------------------------------------------------

    @property
    def poisoned(self) -> Optional[str]:
        """Why the engine stopped accepting commits, or ``None`` if healthy.

        A poisoned engine is in *read-only degraded mode*: the in-memory
        state diverged from the log (or the log from the snapshot) in a way
        that cannot be reconciled in place.  Sessions keep answering SELECTs
        against the in-memory state but refuse mutations; reopening the path
        recovers the last state the files actually agree on.
        """
        return self._poisoned

    def _mark_poisoned(self, reason: str) -> None:
        self._poisoned = reason
        _POISONED_GAUGE.set(1)

    # -- recovery --------------------------------------------------------------

    def recover(self) -> None:
        """Load the latest snapshot, replay the WAL suffix, open for append.

        Both files are read before anything is restored or rewritten, so a
        file this build refuses (another format version, a bad snapshot, a
        log record :func:`record_problem` finds wrong before it is applied)
        leaves the directory byte-identical.  The cyclic garbage collector
        is paused while the state is rebuilt: recovery allocates one large
        object graph and creates almost no cyclic garbage, so the
        collections its allocations would trigger only traverse what it
        builds.  The caller's collector state is restored, never overridden.
        """
        started = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        self._replaying = True
        try:
            loaded = snapshot_module.read_snapshot(self.snapshot_path)
            wal_epoch, records, valid_length = read_wal(self.wal_path)
            if loaded is not None:
                self.epoch, state = loaded
                snapshot_module.restore_database(self.database, state)
            self._wal = WalWriter(self.wal_path, sync=self.sync)
            fresh_log = wal_epoch is None or (loaded is not None and wal_epoch < self.epoch)
            if fresh_log:
                # Missing/torn header, or a log the snapshot already contains
                # (crash between snapshot rename and WAL reset): start fresh.
                self._wal.create(self.epoch)
                records = []
            applying = perf_counter()
            runs: Runs = {}
            for position, record in enumerate(records, 1):
                problem = record_problem(record)
                if problem is not None:
                    raise WalCorruptionError(
                        f"{self.wal_path}: record {position} of {len(records)} {problem}; "
                        "refusing to replay the log"
                    )
                self._apply(record, runs)
                self.stats["replayed_records"] += 1
            self._replay_runs(runs)
            _WAL_APPLY_SECONDS.observe(perf_counter() - applying)
            if not fresh_log:
                # Chop any torn tail so appended records never follow garbage.
                self._wal.truncate_to(valid_length)
        finally:
            self._replaying = False
            if collecting:
                gc.enable()
        _RECOVERY_SECONDS.observe(perf_counter() - started)

    def _apply(self, record: Record, runs: Runs) -> None:
        """Replay one logged record (idempotently) against the database.

        ``mutate`` records only join their relation's pending run in
        ``runs``; every other record kind replays the runs first, so each
        relation rebuilds its layout once per stretch of log between DDL
        records instead of once per mutation.
        """
        kind = record["type"]
        database = self.database
        if kind == "mutate":
            name = record["name"]
            if name not in runs:
                relation = database.relations.get(name)
                if relation is None:
                    raise StorageError(
                        f"WAL mutates unknown relation {name!r}; "
                        "the log does not belong to this snapshot"
                    )
                runs[name] = (relation, [])
            relation, batches = runs[name]
            schema = relation.schema
            # A removal replays with the live tuple it removes: no copy built.
            batches.append([
                (sign, rowid, None if sign == "-" else
                 TemporalTuple(schema, tuple(values), Interval(ts, te)), version)
                for sign, rowid, values, ts, te, version in record["deltas"]
            ])
            return
        if kind == "txn_commit":
            # One committed transaction: its per-relation mutation batches,
            # framed atomically (the frame's CRC either validates whole or the
            # torn tail is discarded — a transaction never half-recovers).
            for inner in record["records"]:
                self._apply(inner, runs)
            return
        self._replay_runs(runs)
        if kind == "register":
            if record["name"] not in database.relations:
                database.register_relation(
                    record["name"], snapshot_module.decode_relation(record["relation"])
                )
        elif kind == "create_view":
            if record["definition"]["name"] not in database.views:
                database.views.create_from_definition(record["definition"], build=True)
        elif kind == "drop_view":
            if record["name"] in database.views:
                database.views.drop(record["name"])
        elif kind == "drop_table":
            if record["name"] in database.relations:
                database.drop_table(record["name"])
        elif kind == "trim":
            relation = database.relations.get(record["name"])
            if relation is not None:
                relation.trim_changelog(record["below"])

    def _replay_runs(self, runs: Runs) -> None:
        """Replay every relation's buffered mutation batches, one pass each."""
        for relation, batches in runs.values():
            self.stats["replayed_mutations"] += relation.replay_deltas(batches)
        runs.clear()

    # -- logging hooks (called by Database / ViewCatalog) ----------------------

    def _append(self, record: Record) -> None:
        if self._replaying or self._closed:
            return
        if self._txn_buffer is not None and record["type"] == "mutate":
            # Inside a committing transaction: hold the per-relation batches
            # back and write them as one atomic ``txn_commit`` frame when the
            # scope exits — a crash between two relations' batches must not
            # recover half a transaction.
            self._txn_buffer.append(record)
            return
        if self._poisoned is not None:
            raise StorageError(
                f"storage engine is poisoned ({self._poisoned}); reopen the "
                "database to resume — acknowledging this commit would let "
                "recovery discard it"
            )
        assert self._wal is not None
        try:
            appended = self._wal.append(record)
        except Exception as error:
            # The in-memory mutation is already applied (the WAL hook runs in
            # the mutation listeners), so memory and log have diverged: this
            # statement will raise, but its effects are visible in memory and
            # absent from disk.  Poison the engine so every later commit
            # fails fast instead of compounding the divergence; reopening the
            # path returns to the last state the log actually contains.
            self._mark_poisoned(f"WAL append failed: {error}")
            raise StorageError(
                f"WAL append failed ({error}); the in-memory state now leads "
                "the log — the engine is poisoned, reopen the database to "
                "return to the last committed state"
            ) from error
        self.stats["bytes"] += appended
        self.stats["records"] += 1
        self._records_since_checkpoint += 1
        if self.auto_checkpoint and self._records_since_checkpoint >= self.auto_checkpoint:
            self.checkpoint()

    def transaction_scope(self, txn_id: int):
        """Context manager framing one transaction commit as one WAL record.

        While the scope is open, mutation records emitted by the relations'
        WAL listeners are buffered; on clean exit the buffer is appended (and
        fsync'd) as a single ``txn_commit`` record — the atomic commit point
        of a multi-relation transaction.  An exception *after* some effects
        already applied in memory leaves memory ahead of the log with no way
        to roll the relations back, so the engine poisons itself exactly like
        a failed WAL append; an exception before any effect is harmless.
        """
        return _TransactionScope(self, txn_id)

    def on_register_relation(self, name: str, relation: TemporalRelation) -> None:
        """Log the registration and install the WAL mutation listener."""

        def log_mutations(_relation: TemporalRelation, deltas: List[Delta]) -> None:
            self._append(
                {
                    "type": "mutate",
                    "name": name,
                    "deltas": [
                        (d.sign, d.rowid, d.tuple.values, d.tuple.start, d.tuple.end, d.version)
                        for d in deltas
                    ],
                }
            )

        relation.add_mutation_listener(log_mutations)
        self._attached[name] = (relation, log_mutations)
        if not self._replaying:  # recovery installs listeners but re-logs nothing
            self._append(
                {
                    "type": "register",
                    "name": name,
                    "relation": snapshot_module.encode_relation(relation),
                }
            )

    def on_drop_table(self, name: str) -> None:
        # Log first: if the append fails (poisoned engine, full disk) the
        # statement aborts with the relation still registered *and* still
        # carrying its WAL listener — detaching before a failed append would
        # leave a live relation whose mutations silently stop being logged.
        self._append({"type": "drop_table", "name": name})
        attached = self._attached.pop(name, None)
        if attached is not None:
            relation, listener = attached
            relation.remove_mutation_listener(listener)

    def on_create_view(self, view) -> None:
        if self._replaying:
            return
        definition = snapshot_module.serializable_definition(view)
        if definition is not None:
            self._append({"type": "create_view", "definition": definition})

    def on_drop_view(self, name: str) -> None:
        self._append({"type": "drop_view", "name": name})

    def on_trim(self, name: str, below: int) -> None:
        self._append({"type": "trim", "name": name, "below": below})

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> int:
        """Refresh views, snapshot everything, reset the WAL; returns the
        snapshot size in bytes."""
        if self._closed:
            raise StorageError("storage engine is closed")
        if self._poisoned is not None:
            raise StorageError(f"storage engine is poisoned ({self._poisoned})")
        started = perf_counter()
        self.database.views.refresh_all()
        state = snapshot_module.encode_database(self.database)
        # A failure up to and including write_snapshot is harmless: the old
        # snapshot + full WAL still describe the complete history.
        written = snapshot_module.write_snapshot(self.snapshot_path, self.epoch + 1, state)
        self.epoch += 1
        assert self._wal is not None
        try:
            self._wal.reset(self.epoch)
        except Exception as error:
            # The snapshot rename is already durable but the on-disk WAL
            # still carries the old epoch (or a torn header): recovery will
            # rightly discard it.  Accepting further commits into that log
            # would acknowledge writes recovery must throw away — poison the
            # engine instead; reopening recovers cleanly from the snapshot.
            self._mark_poisoned(f"WAL reset after snapshot {self.epoch} failed: {error}")
            raise StorageError(self._poisoned) from error
        self._records_since_checkpoint = 0
        self.stats["checkpoints"] += 1
        _CHECKPOINT_SECONDS.observe(
            perf_counter() - started
        )
        return written

    def close(self) -> None:
        if self._closed:
            return
        if self._poisoned is None:
            self.checkpoint()
        self._closed = True
        for relation, listener in self._attached.values():
            relation.remove_mutation_listener(listener)
        self._attached.clear()
        if self._wal is not None:
            self._wal.close()
        self._release_lock()

    def abandon(self) -> None:
        """Release the file handles *without* checkpointing.

        Crash simulation for tests and ``perf/``'s ``write_recover``: the on-disk
        state stays exactly as the last committed record left it, so a
        subsequent :meth:`recover` exercises the real WAL-replay path.
        """
        if self._closed:
            return
        self._closed = True
        for relation, listener in self._attached.values():
            relation.remove_mutation_listener(listener)
        self._attached.clear()
        if self._wal is not None:
            self._wal.close()
        self._release_lock()


class _TransactionScope:
    """See :meth:`StorageEngine.transaction_scope`."""

    def __init__(self, engine: StorageEngine, txn_id: int):
        self.engine = engine
        self.txn_id = txn_id

    def __enter__(self) -> _TransactionScope:
        if self.engine._txn_buffer is not None:
            raise StorageError("transaction WAL scopes do not nest")
        self.engine._txn_buffer = []
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        buffered, self.engine._txn_buffer = self.engine._txn_buffer, None
        if exc_type is not None:
            if buffered:
                # Part of the transaction already mutated relations in memory
                # but nothing reached the log, and relations cannot be rolled
                # back in place: memory now leads the log permanently.
                self.engine._mark_poisoned(
                    f"transaction {self.txn_id} failed mid-apply "
                    f"({exc_type.__name__}: {exc}); in-memory state leads the log"
                )
            return False
        if buffered:
            self.engine._append(
                {"type": "txn_commit", "txn": self.txn_id, "records": buffered}
            )
        return False
