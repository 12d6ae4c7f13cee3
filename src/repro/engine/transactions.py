"""Snapshot-isolation MVCC transactions over the rowid/changelog machinery.

Concurrency model
-----------------

* **Begin** pins a snapshot: the global commit epoch at ``BEGIN``.  Every
  read inside the transaction sees exactly the tuples committed at or before
  that epoch (served through the per-relation
  :class:`~repro.relation.mvcc.VersionStore`), overlaid with the
  transaction's own uncommitted writes — never anybody else's.
* **Writes are deferred**: DML inside a transaction runs against a private
  workspace, an untracked copy of the snapshot mutated by the relation's
  own statement code, and tracks each new tuple's lineage back to the
  snapshot row it replaced.  The authoritative relation is untouched until
  commit, so concurrent readers can never observe an uncommitted or torn
  write, structurally.
* **Commit** is first-committer-wins: the transaction aborts with
  :class:`TransactionConflictError` when any base rowid it removed was
  already removed by a transaction that committed after its begin epoch
  (tuple-granular write-write conflict), or — for predicate/period
  mutations, whose affected set depends on tuples the snapshot could not
  see — when *any* write committed to the target relation since the begin
  epoch (relation-granular escalation; the phantom protection that keeps
  commit-order replay exact).  A successful commit applies all effects
  atomically under one fresh epoch: one batch per relation through
  :meth:`~repro.relation.relation.TemporalRelation.apply_effects`, the
  path an autocommit statement takes, framed into a single ``txn_commit``
  WAL record when storage is attached.
* **Serial-replay invariant**: because a committed writer of a relation
  always began after the previous committed writer of that relation
  finished, re-running the committed transactions' statements serially in
  commit-epoch order reproduces the exact final state — the property
  ``tests/server/test_served_rounds.py`` and the interleaving property test
  gate on.

Auto-commit statements (mutations outside any transaction, a multi-row
``INSERT`` included) are one batch and allocate one epoch each through the
same stamping listener, so transactional snapshots order correctly against
non-transactional writers.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.relation.changelog import Delta
from repro.relation.errors import QueryError
from repro.relation.mvcc import VersionStore
from repro.relation.relation import Row, TemporalRelation, parse_log_order
from repro.relation.schema import Schema
from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval

_COMMIT_COUNTER = obs_metrics.counter("txn.commits")
_CONFLICT_COUNTER = obs_metrics.counter("txn.conflicts")


class TransactionError(QueryError):
    """A transaction statement was used incorrectly (no/nested transaction)."""


class TransactionConflictError(TransactionError):
    """First-committer-wins: a concurrent transaction committed a conflicting
    write; the losing transaction is aborted and must be retried."""


class _Workspace:
    """The private write set of one transaction against one relation.

    ``rows`` is an untracked relation holding the begin-epoch snapshot with
    the transaction's statements applied by the relation's own mutation
    code, so a transaction sees its writes in the layout a commit produces.
    Its rowid ``i`` below the snapshot's length is the snapshot row of base
    rowid ``base_rowids[i]``; larger rowids are the transaction's own rows.
    ``removed`` maps each removed base rowid to the own rows now standing in
    for it and ``inserted`` holds the rest, both in layout order; ``origin``
    maps each own rowid to the list holding it.
    """

    def __init__(self, schema: Schema, snapshot: List[Tuple[int, TemporalTuple]]):
        self.base_rowids = [rowid for rowid, _ in snapshot]
        self.rows = TemporalRelation(schema, [t for _, t in snapshot])
        self.removed: Dict[int, List[Row]] = {}
        self.inserted: List[Row] = []
        self.origin: Dict[int, List[Row]] = {}
        #: A predicate/period mutation ran: conflict detection escalates to
        #: relation granularity (see the module docstring).
        self.predicate_write = False

    @property
    def dirty(self) -> bool:
        return bool(self.removed or self.inserted)

    def record(self, deltas: List[Delta]) -> int:
        """Track the lineage of one statement's batch; returns the number
        of tuples it removed or replaced (the DML status count)."""
        removed, appended = parse_log_order((d.sign, d.rowid, d.tuple) for d in deltas)
        for rowid, fragments in removed:
            if rowid < len(self.base_rowids):
                group = self.removed[self.base_rowids[rowid]] = fragments
            else:
                group = self.origin.pop(rowid)
                at = [own for own, _ in group].index(rowid)
                group[at:at + 1] = fragments
            self.origin.update((own, group) for own, _ in fragments)
        self.inserted.extend(appended)
        self.origin.update((own, self.inserted) for own, _ in appended)
        return len(removed)

    def effects(self) -> Tuple[List[Tuple[int, List[TemporalTuple]]], List[TemporalTuple]]:
        """The commit payload for :meth:`TemporalRelation.apply_effects`."""
        removals = [(rowid, [t for _, t in rows]) for rowid, rows in self.removed.items()]
        return removals, [t for _, t in self.inserted]


class Transaction:
    """One snapshot-isolation transaction (see the module docstring)."""

    def __init__(self, manager: TransactionManager, txn_id: int, begin_epoch: int):
        self.manager = manager
        self.id = txn_id
        self.begin_epoch = begin_epoch
        self.status = "active"  # -> committed | aborted
        self.commit_epoch: Optional[int] = None
        self._workspaces: Dict[str, _Workspace] = {}
        self._snapshot_database = None

    # -- plumbing --------------------------------------------------------------

    def _require_active(self) -> None:
        if self.status != "active":
            raise TransactionError(
                f"transaction {self.id} is {self.status}; start a new one with BEGIN"
            )

    def workspace(self, name: str) -> _Workspace:
        """The (lazily created) workspace of one registered relation."""
        self._require_active()
        try:
            return self._workspaces[name]
        except KeyError:
            relation = self.manager.database.get_relation(name)
            workspace = _Workspace(
                relation.schema, self.manager.snapshot_rows(name, self.begin_epoch)
            )
            self._workspaces[name] = workspace
            return workspace

    @property
    def dirty(self) -> bool:
        return any(workspace.dirty for workspace in self._workspaces.values())

    # -- reads -----------------------------------------------------------------

    def visible_relation(self, name: str) -> TemporalRelation:
        """The relation as this transaction sees it: snapshot + own writes."""
        return self.workspace(name).rows

    def snapshot_database(self):
        """A read facade serving this transaction's visibility to the
        planner/executor (see :class:`SnapshotDatabase`)."""
        if self._snapshot_database is None:
            self._snapshot_database = SnapshotDatabase(self)
        return self._snapshot_database

    # -- writes ----------------------------------------------------------------

    def insert_rows(
        self, name: str, rows: Sequence[Tuple[Sequence[Any], Interval]]
    ) -> int:
        workspace = self.workspace(name)
        schema = workspace.rows.schema
        tuples = [TemporalTuple(schema, tuple(values), interval) for values, interval in rows]
        workspace.record(workspace.rows.apply_effects((), tuples))
        return len(tuples)

    def delete_rows(
        self,
        name: str,
        predicate: Optional[Callable[[TemporalTuple], bool]] = None,
        period: Optional[Interval] = None,
    ) -> int:
        return self._mutate(name, period, lambda relation: relation.delete(predicate, period))

    def update_rows(
        self,
        name: str,
        assignments: Mapping[str, Any],
        predicate: Optional[Callable[[TemporalTuple], bool]] = None,
        period: Optional[Interval] = None,
    ) -> int:
        return self._mutate(
            name, period, lambda relation: relation.update(assignments, predicate, period)
        )

    def _mutate(
        self,
        name: str,
        period: Optional[Interval],
        statement: Callable[[TemporalRelation], List[Delta]],
    ) -> int:
        """Run one UPDATE/DELETE on the workspace; returns its status count."""
        workspace = self.workspace(name)
        if period is None or not period.is_empty():
            workspace.predicate_write = True
        touched = workspace.record(statement(workspace.rows))
        return touched

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> int:
        """First-committer-wins validation, then atomic apply; returns the
        commit epoch (the begin epoch for a read-only transaction)."""
        return self.manager.commit(self)

    def rollback(self) -> None:
        self.manager.rollback(self)


class TransactionManager:
    """Owns the commit-epoch clock, active transactions and version stores.

    Attached to every :class:`~repro.engine.database.Database`; relations
    registered with the database are enrolled via :meth:`track_relation`, a
    mutation listener that stamps each committed batch with its epoch in the
    relation's :class:`~repro.relation.mvcc.VersionStore`.
    """

    def __init__(self, database):
        self.database = database
        #: The global epoch clock: one tick per committed transaction and per
        #: auto-commit mutation statement.
        self.commit_epoch = 0
        self.active: Dict[int, Transaction] = {}
        self._next_txn_id = 1
        self._stores: Dict[str, VersionStore] = {}
        self._listeners: Dict[str, Tuple[TemporalRelation, object]] = {}
        #: Last epoch that committed a write per relation (relation-granular
        #: conflict escalation for predicate mutations).
        self._last_write_epoch: Dict[str, int] = {}
        #: Set while a commit is applying its effects: the stamping listener
        #: uses this epoch instead of allocating auto-commit epochs.
        self._applying: Optional[int] = None
        self.stats: Dict[str, int] = {
            "begun": 0,
            "committed": 0,
            "rolled_back": 0,
            "conflicts": 0,
            "versions_collected": 0,
        }

    # -- relation enrolment ----------------------------------------------------

    def track_relation(self, name: str, relation: TemporalRelation) -> None:
        """Enrol a registered relation: install the epoch-stamping listener."""
        self.untrack_relation(name)
        store = VersionStore()
        self._stores[name] = store

        def stamp(_relation: TemporalRelation, deltas: List[Delta]) -> None:
            if self._applying is not None:
                epoch = self._applying
            else:
                # An auto-commit statement: its batch is its own commit.
                self.commit_epoch += 1
                epoch = self.commit_epoch
                self._last_write_epoch[name] = epoch
            store.stamp(deltas, epoch)

        relation.add_mutation_listener(stamp)
        self._listeners[name] = (relation, stamp)

    def untrack_relation(self, name: str) -> None:
        registered = self._listeners.pop(name, None)
        if registered is not None:
            relation, listener = registered
            relation.remove_mutation_listener(listener)
        self._stores.pop(name, None)
        self._last_write_epoch.pop(name, None)

    # -- snapshots -------------------------------------------------------------

    def snapshot_rows(self, name: str, snapshot_epoch: int) -> List[Tuple[int, TemporalTuple]]:
        """``(rowid, tuple)`` pairs visible at ``snapshot_epoch``: live rows
        created at or before it, plus retained dead versions it predates."""
        relation = self.database.get_relation(name)
        store = self._stores[name]
        rows = [
            (rowid, t)
            for rowid, t in relation.rows_with_ids()
            if store.created_at(rowid) <= snapshot_epoch
        ]
        rows.extend(store.dead_visible(snapshot_epoch))
        return rows

    # -- lifecycle -------------------------------------------------------------

    def begin(self) -> Transaction:
        transaction = Transaction(self, self._next_txn_id, self.commit_epoch)
        self._next_txn_id += 1
        self.active[transaction.id] = transaction
        self.stats["begun"] += 1
        return transaction

    def commit(self, transaction: Transaction) -> int:
        transaction._require_active()
        # A predicate mutation that matched *nothing* still demands validation
        # and its own slot in the commit order: its affected set was computed
        # against the snapshot, and only the conflict check proves a
        # commit-order replay of the statement is the same no-op.  Only a
        # transaction with no writes of any kind takes the read-only path.
        if not transaction.dirty and not any(
            workspace.predicate_write
            for workspace in transaction._workspaces.values()
        ):
            transaction.status = "committed"
            transaction.commit_epoch = transaction.begin_epoch
            self._finish(transaction)
            _COMMIT_COUNTER.inc()
            return transaction.begin_epoch

        conflict = self._detect_conflict(transaction)
        if conflict is not None:
            transaction.status = "aborted"
            self._finish(transaction)
            self.stats["conflicts"] += 1
            _CONFLICT_COUNTER.inc()
            raise TransactionConflictError(
                f"transaction {transaction.id} aborted (first-committer-wins): {conflict}"
            )

        epoch = self.commit_epoch + 1
        storage = self.database.storage
        scope = (
            storage.transaction_scope(transaction.id)
            if storage is not None
            else nullcontext()
        )
        self._applying = epoch
        try:
            with scope:
                for name, workspace in transaction._workspaces.items():
                    if not workspace.dirty:
                        continue
                    removals, inserts = workspace.effects()
                    self.database.get_relation(name).apply_effects(removals, inserts)
                    self._last_write_epoch[name] = epoch
        except BaseException:
            # A mid-apply failure (e.g. a duplicate-free violation on the
            # second relation) cannot be rolled back in place: earlier
            # relations already applied.  The transaction is dead either way;
            # on a durable database the WAL scope has already poisoned the
            # engine, on an in-memory one the partial state is the same
            # divergence a failed multi-relation statement would leave.
            transaction.status = "aborted"
            self._finish(transaction)
            # Deltas applied before the failure carry ``epoch``: burn it so a
            # later commit can never reuse a partially-stamped epoch.
            self.commit_epoch = epoch
            raise
        finally:
            self._applying = None
        self.commit_epoch = epoch
        transaction.status = "committed"
        transaction.commit_epoch = epoch
        self._finish(transaction)
        self.stats["committed"] += 1
        _COMMIT_COUNTER.inc()
        return epoch

    def rollback(self, transaction: Transaction) -> None:
        transaction._require_active()
        transaction.status = "aborted"
        self._finish(transaction)
        self.stats["rolled_back"] += 1

    def abort_active(self) -> int:
        """Abort every open transaction (shutdown path); returns the count."""
        aborted = 0
        for transaction in list(self.active.values()):
            transaction.status = "aborted"
            self._finish(transaction)
            aborted += 1
        return aborted

    def _detect_conflict(self, transaction: Transaction) -> Optional[str]:
        for name, workspace in transaction._workspaces.items():
            if not workspace.dirty and not workspace.predicate_write:
                continue
            relation = self.database.relations.get(name)
            if relation is None:
                return f"relation {name!r} was dropped"
            if workspace.removed:
                live = relation.live_rowids()
                gone = sorted(rowid for rowid in workspace.removed if rowid not in live)
                if gone:
                    return (
                        f"rowid(s) {gone} of {name!r} were removed by a "
                        "concurrent commit"
                    )
            if (
                workspace.predicate_write
                and self._last_write_epoch.get(name, 0) > transaction.begin_epoch
            ):
                return (
                    f"relation {name!r} was written at epoch "
                    f"{self._last_write_epoch[name]} after this transaction began "
                    f"at epoch {transaction.begin_epoch} (predicate mutation "
                    "escalates to relation-granular conflict detection)"
                )
        return None

    def _finish(self, transaction: Transaction) -> None:
        self.active.pop(transaction.id, None)
        self._collect()

    def _collect(self) -> None:
        """Garbage-collect dead versions below the oldest active snapshot."""
        horizon = min(
            (t.begin_epoch for t in self.active.values()), default=self.commit_epoch
        )
        for store in self._stores.values():
            self.stats["versions_collected"] += store.collect(horizon)


class SnapshotDatabase:
    """A read-only :class:`~repro.engine.database.Database` facade serving one
    transaction's visibility.

    The analyzer/planner/executor pipeline resolves names through
    ``database.scan_source``; inside a transaction the session hands them
    this facade instead of the real database, which answers a relation's
    name with :meth:`Transaction.visible_relation` — the begin-epoch
    snapshot overlaid with the transaction's own writes, scanned in place
    like any relation.  The facade carries its *own* (empty) view catalog:
    planner view substitution must never leak state from a different
    visibility epoch into the transaction — the committed catalog answers
    for committed data only.
    """

    def __init__(self, transaction: Transaction):
        from repro.engine.database import Database
        from repro.views.catalog import ViewCatalog

        self._transaction = transaction
        self._database = Database.__new__(Database)
        database = transaction.manager.database
        facade = self._database
        facade.settings = database.settings
        facade.tables = {}
        facade.relations = {}
        facade.storage = None
        facade.views = ViewCatalog(facade)
        facade.transactions = None
        facade._last_trace = None
        facade.scan_source = self.scan_source  # type: ignore[method-assign]

    @property
    def database(self):
        """The facade the engine executes against."""
        return self._database

    def scan_source(self, name: str):
        transaction = self._transaction
        committed = transaction.manager.database
        if name in committed.views:
            raise QueryError(
                f"materialized view {name!r} is not readable inside a "
                "transaction: views reflect committed state only; query the "
                "base relations instead"
            )
        if name in committed.relations:
            return transaction.visible_relation(name)
        # Plain (non-relation) tables are catalog constants: not versioned,
        # not mutable through DML — served as committed.
        return committed.scan_source(name)
