"""The database catalog and execution entry points."""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine import deadline as _deadline
from repro.engine.executor.base import PhysicalNode
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import LogicalPlan
from repro.engine.table import END_COLUMN, START_COLUMN, Table, relation_columns, relation_rows
from repro.relation.changelog import Delta
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval


class Database:
    """An in-memory database: named tables, settings, planner and executor.

    Temporal relations are stored as ordinary tables with explicit ``ts`` and
    ``te`` columns (the kernel's representation); the temporal semantics live
    entirely in the plans built on top — exactly the architecture of the
    paper's PostgreSQL implementation.

    Relations registered through :meth:`register_relation` are stored once,
    as the :class:`TemporalRelation` itself (with change tracking enabled):
    DML goes through it, and a scan reads it in place when it executes
    (:func:`~repro.engine.table.relation_rows`).  :attr:`tables` holds plain
    tables only; one name names one object.  Materialized views over
    registered relations live in :attr:`views` and are maintained from the
    relations' change logs.
    """

    def __init__(self, settings: Optional[Settings] = None):
        from repro.engine.transactions import TransactionManager
        from repro.views.catalog import ViewCatalog

        self.settings = settings if settings is not None else Settings()
        #: Plain tables (:meth:`register_table`).
        self.tables: Dict[str, Table] = {}
        #: Temporal relations registered with :meth:`register_relation`.
        self.relations: Dict[str, TemporalRelation] = {}
        #: The durability engine (``None`` for a purely in-memory database).
        #: Set by :meth:`open`; when present, every registration, mutation and
        #: view DDL is written ahead to its log.
        self.storage = None
        #: Materialized views (incremental and recompute kinds).
        self.views = ViewCatalog(self)
        #: Snapshot-isolation transactions (``None`` only on the read facade
        #: a transaction hands the planner — see SnapshotDatabase).
        self.transactions = TransactionManager(self)
        #: The :class:`~repro.obs.trace.QueryTrace` of the most recent traced
        #: execution (``EXPLAIN ANALYZE``, :meth:`execute_traced`, or every
        #: query when ``REPRO_TRACE`` is on).
        self._last_trace = None

    # -- durability ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        settings: Optional[Settings] = None,
        sync: bool = True,
        auto_checkpoint: int = 0,
    ) -> Database:
        """Open (or create) a durable database rooted at directory ``path``.

        Recovery loads the latest snapshot, replays the write-ahead-log
        suffix, and leaves every registered relation, change-log version and
        materialized view exactly as of the last committed mutation —
        maintained views resume *incremental* maintenance, they are not
        rebuilt.  ``sync=False`` trades the per-commit ``fsync`` for speed
        (data loss window: OS crash); ``auto_checkpoint=N`` snapshots
        automatically every ``N`` logged records.
        """
        from repro.storage.engine import StorageEngine

        database = cls(settings)
        database.storage = StorageEngine(
            database, path, sync=sync, auto_checkpoint=auto_checkpoint
        )
        try:
            database.storage.recover()
        except BaseException:
            # Recovery failed (e.g. corrupt snapshot): release the directory
            # lock and file handles deterministically — a later open of the
            # same path must not depend on garbage collection.
            database.storage.abandon()
            raise
        return database

    def checkpoint(self) -> str:
        """Snapshot the full state and reset the WAL; ``"noop"`` in memory."""
        if self.storage is None:
            return "noop"
        self.storage.checkpoint()
        return "checkpoint"

    def close(self) -> None:
        """Checkpoint (when durable) and release the storage files.

        Idempotent.  Open transactions are aborted first — their writes are
        deferred workspaces, so nothing uncommitted can reach the final
        checkpoint — which is what makes a mid-transaction server shutdown
        safe: the flock'd LOCK is released deterministically and the engine
        is not poisoned.

        The storage engine is detached only after its close succeeds: if the
        final checkpoint fails (e.g. disk full), the engine — and its
        directory lock — stay attached so the caller can free space and
        retry ``close()`` instead of silently leaking the lock.
        """
        if self.transactions is not None:
            self.transactions.abort_active()
        if self.storage is not None:
            self.storage.close()
            self.storage = None

    # -- sessions --------------------------------------------------------------------

    def session(self):
        """A new :class:`~repro.engine.session.Session` (transactional SQL).

        Each network connection gets one; embedded callers that want
        ``BEGIN``/``COMMIT``/``ROLLBACK`` use it directly.
        """
        from repro.engine.session import Session

        return Session(self)

    # -- catalog ---------------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        """Create and register an empty table."""
        table = Table(name, columns)
        self.register_table(table)
        return table

    def register_table(self, table: Table) -> Table:
        """Register (or replace) a plain table under its own name.

        A relation registered under that name is dropped first
        (:meth:`drop_table`), so one name never names two objects; a
        materialized view's name is refused.
        """
        self._refuse_view_name(table.name)
        if table.name in self.relations:
            self.drop_table(table.name)
        self.tables[table.name] = table
        return table

    def register_relation(self, name: str, relation: TemporalRelation) -> TemporalRelation:
        """Register a temporal relation, read as a table with ``ts``/``te`` columns.

        The relation itself is retained (and change tracking enabled on it):
        subsequent DML — through :meth:`insert_rows` / :meth:`delete_rows` /
        :meth:`update_rows` or directly on the relation — is observed, scans
        read its current rows, and dependent materialized views are
        maintained from the recorded deltas.  A table or relation already
        registered under ``name`` is dropped first (:meth:`drop_table`).  A
        materialized view's name, and an attribute named like a boundary
        column, are refused before anything changes or is logged.
        """
        self._refuse_view_name(name)
        clashing = sorted({START_COLUMN, END_COLUMN}.intersection(relation.schema.attribute_names))
        if clashing:
            raise SchemaError(
                f"relation {name!r} cannot be registered: attribute(s) {clashing} "
                f"clash with the boundary columns {START_COLUMN!r}/{END_COLUMN!r}"
            )
        if name in self.relations or name in self.tables:
            self.drop_table(name)  # detach the old object and its views
        relation.enable_change_tracking()
        self.relations[name] = relation
        self.transactions.track_relation(name, relation)
        if self.storage is not None:
            # Logs the registration (schema + current contents) and installs
            # the WAL listener so subsequent mutations are written ahead.
            self.storage.on_register_relation(name, relation)
        return relation

    def _refuse_view_name(self, name: str) -> None:
        if name in self.views:
            raise SchemaError(f"{name!r} already names a materialized view; drop it first")

    def scan_source(self, name: str) -> Union[Table, TemporalRelation]:
        """What a scan of ``name`` reads: the registered relation itself, or a
        plain table.  A view has neither: it is read only through a query's
        ``ViewScan``, so its name raises a ``ViewError``."""
        if name in self.views:
            from repro.views.catalog import ViewError

            raise ViewError(f"{name!r} is a materialized view, not a table; read it with a query")
        relation = self.relations.get(name)
        if relation is not None:
            return relation
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"unknown table {name!r}; registered: {sorted({**self.tables, **self.relations})}"
            ) from None

    def get_table(self, name: str) -> Table:
        """The rows of ``name`` as a table (see :meth:`scan_source`).

        For a relation the table shares the rows its scans read
        (:func:`~repro.engine.table.relation_rows`, built by the first read
        after a mutation) instead of copying them; it is for reading only.
        """
        source = self.scan_source(name)
        if isinstance(source, Table):
            return source
        table = Table(name, relation_columns(source))
        table.rows = relation_rows(source)
        return table

    def columns_of(self, name: str) -> List[str]:
        """Column names of a table, or of a view (its ``output_columns()``)."""
        if name in self.views:
            return self.views.get(name).output_columns()
        source = self.scan_source(name)
        return list(source.columns if isinstance(source, Table) else relation_columns(source))

    def drop_table(self, name: str) -> None:
        """Drop a table/relation, cascading to every dependent view.

        The transaction and storage listeners are detached from a dropped
        relation (it may live on outside the database) and any view that
        transitively depends on the name is dropped — a view must not serve
        data from a dropped relation, nor silently match a different
        relation registered later under the same name.
        """
        if self.storage is not None and name in self.relations:
            self.storage.on_drop_table(name)
        self.tables.pop(name, None)
        self.relations.pop(name, None)
        self.transactions.untrack_relation(name)
        self.views.drop_dependents(name)

    def get_relation(self, name: str) -> TemporalRelation:
        """The live backing relation of a temporal table (DML target)."""
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(
                f"{name!r} is not a registered temporal relation; DML requires "
                f"register_relation (relations: {sorted(self.relations)})"
            ) from None

    # -- DML -------------------------------------------------------------------------

    def insert_rows(
        self, name: str, rows: Sequence[Tuple[Sequence[Any], Interval]]
    ) -> List[TemporalTuple]:
        """Sequenced INSERT: add ``(values, interval)`` rows to a relation.

        The statement is one mutation batch: one change-log batch, one WAL
        record and one MVCC epoch, and all or nothing — a row that breaks
        the duplicate-free condition leaves the relation unchanged.
        """
        relation = self.get_relation(name)
        tuples = [
            TemporalTuple(
                relation.schema,
                values,
                interval if isinstance(interval, Interval) else Interval(*interval),
            )
            for values, interval in rows
        ]
        relation.apply_effects((), tuples)
        return tuples

    def delete_rows(
        self,
        name: str,
        predicate: Optional[Callable[[TemporalTuple], bool]] = None,
        period: Optional[Interval] = None,
    ) -> List[Delta]:
        """Sequenced DELETE (see :meth:`TemporalRelation.delete`)."""
        return self.get_relation(name).delete(predicate, period)

    def update_rows(
        self,
        name: str,
        assignments: Mapping[str, Any],
        predicate: Optional[Callable[[TemporalTuple], bool]] = None,
        period: Optional[Interval] = None,
    ) -> List[Delta]:
        """Sequenced UPDATE (see :meth:`TemporalRelation.update`)."""
        return self.get_relation(name).update(assignments, predicate, period)

    def trim_changelog(self, name: str, below: int) -> int:
        """Trim a relation's change log, durably when storage is attached.

        Prefer this over ``relation.trim_changelog`` on a durable database:
        the trim is logged so the post-recovery log reports the same
        truncation horizon.  (A direct relation-level trim still becomes
        durable at the next checkpoint, which snapshots the horizon.)
        """
        dropped = self.get_relation(name).trim_changelog(below)
        if self.storage is not None:
            self.storage.on_trim(name, below)
        return dropped

    # -- planning and execution ---------------------------------------------------------

    def plan(self, logical: LogicalPlan, settings: Optional[Settings] = None) -> PhysicalNode:
        """Produce a physical plan (without executing it)."""
        from repro.engine.optimizer.planner import Planner

        return Planner(self, settings if settings is not None else self.settings).plan(logical)

    def execute(
        self,
        plan: Union[LogicalPlan, PhysicalNode],
        settings: Optional[Settings] = None,
        result_name: str = "result",
        sql: Optional[str] = None,
    ) -> Table:
        """Plan (if needed) and run a query, returning the result as a table.

        ``sql``, when the caller has it (the SQL front end), is carried into
        traces and slow-query records.  With ``REPRO_TRACE`` on, every
        execution collects a :class:`~repro.obs.trace.QueryTrace` retrievable
        via :meth:`last_trace`.
        """
        physical = plan if isinstance(plan, PhysicalNode) else self.plan(plan, settings)
        active = settings if settings is not None else self.settings
        with _deadline.deadline_scope(active.statement_timeout_ms):
            if obs_trace.tracing_enabled():
                table, _trace = self._run_traced(physical, result_name, sql)
                return table
            threshold = obs_log.slow_query_threshold()
            if threshold is None:
                return Table(result_name, physical.columns, physical.execute())
            started = perf_counter()
            rows = physical.execute()
            elapsed = perf_counter() - started
        obs_log.maybe_log_slow_query(sql, elapsed, epoch=self._commit_epoch())
        return Table(result_name, physical.columns, rows)

    def execute_traced(
        self,
        plan: Union[LogicalPlan, PhysicalNode],
        settings: Optional[Settings] = None,
        result_name: str = "result",
        sql: Optional[str] = None,
    ) -> Tuple[Table, obs_trace.QueryTrace]:
        """Run a query with tracing forced on; returns ``(table, trace)``.

        The programmatic face of ``EXPLAIN ANALYZE``: the returned trace's
        span tree mirrors the physical plan, annotated with per-operator wall
        time, row counts and runtime decisions.  Also stored for
        :meth:`last_trace`.
        """
        physical = plan if isinstance(plan, PhysicalNode) else self.plan(plan, settings)
        active = settings if settings is not None else self.settings
        with _deadline.deadline_scope(active.statement_timeout_ms):
            return self._run_traced(physical, result_name, sql)

    def _run_traced(
        self, physical: PhysicalNode, result_name: str, sql: Optional[str]
    ) -> Tuple[Table, obs_trace.QueryTrace]:
        with obs_trace.collect(physical, sql=sql) as trace:
            rows = physical.execute()
        self._last_trace = trace
        threshold = obs_log.slow_query_threshold()
        if threshold is not None:
            obs_log.maybe_log_slow_query(
                sql, trace.total_seconds, epoch=self._commit_epoch(), trace=trace
            )
        return Table(result_name, physical.columns, rows), trace

    def last_trace(self):
        """The trace of the most recent traced execution (or ``None``)."""
        return self._last_trace

    def _commit_epoch(self) -> Optional[int]:
        transactions = self.transactions
        return None if transactions is None else transactions.commit_epoch

    def stream(
        self,
        plan: Union[LogicalPlan, PhysicalNode],
        settings: Optional[Settings] = None,
    ):
        """Plan (if needed) and run a query as a lazy row iterator.

        Unlike :meth:`execute` nothing is materialised: rows are produced on
        demand, so a consumer that stops early (e.g. after ``k`` rows) only
        pays for the upstream work those ``k`` rows required.  The pipeline
        runs when the returned iterator is consumed, not when ``stream``
        returns.
        """
        physical = plan if isinstance(plan, PhysicalNode) else self.plan(plan, settings)
        return iter(physical)

    def explain(self, logical: LogicalPlan, settings: Optional[Settings] = None) -> str:
        """Return the costed physical plan as text (PostgreSQL-style EXPLAIN)."""
        return self.plan(logical, settings).explain()

    # -- SQL convenience -------------------------------------------------------------------

    def query(self, sql_text: str, settings: Optional[Settings] = None) -> Table:
        """Parse, analyze, plan and execute a SQL statement.

        Imported lazily to keep the engine usable without the SQL front end.
        """
        from repro.sql.interface import Connection

        return Connection(self).execute(sql_text, settings=settings)
