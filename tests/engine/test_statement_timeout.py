"""Cooperative statement deadlines: the typed error and the rollback contract.

``statement_timeout_ms`` is checked every few hundred produced rows in
``PhysicalNode.__iter__`` — the tests drive row-at-a-time plans big enough
to cross a 1 ms deadline and assert the typed error, the transaction
rollback, and that the knob defaults to off.
"""

from __future__ import annotations

import pytest

from repro.engine import deadline
from repro.engine.database import Database
from repro.engine.optimizer.settings import Settings
from repro.engine.transactions import TransactionError
from repro.relation.errors import StatementTimeoutError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.temporal.interval import Interval


def _database(rows: int = 4000) -> Database:
    db = Database()
    relation = TemporalRelation(Schema(["k", "v"]))
    for index in range(rows):
        relation.insert((f"k{index}", index), Interval(index, index + 2))
    db.register_relation("r", relation)
    return db


#: Row-mode settings: columnar off so the per-row deadline check actually
#: runs between rows instead of inside one opaque kernel call.
ROW_MODE = Settings(enable_columnar=False, statement_timeout_ms=1.0)

#: A cross-product ALIGN is quadratic in the inputs — reliably slower than
#: any sane deadline without being flaky about *how* slow.
SLOW_SQL = "SELECT * FROM (r ALIGN r ON 1 = 1) q"


class TestDeadlineScope:
    def test_no_deadline_by_default(self):
        assert Settings().statement_timeout_ms == 0.0
        assert deadline.active_deadline() is None

    def test_scope_activates_and_restores(self):
        with deadline.deadline_scope(1000.0):
            assert deadline.active_deadline() is not None
            outer = deadline.active_deadline()
            with deadline.deadline_scope(1.0):  # nested: earliest wins
                assert deadline.active_deadline() < outer
            assert deadline.active_deadline() == outer
        assert deadline.active_deadline() is None

    def test_nested_scope_cannot_extend(self):
        with deadline.deadline_scope(1.0):
            inner_budget = deadline.active_deadline()
            with deadline.deadline_scope(60000.0):
                assert deadline.active_deadline() == inner_budget

    def test_zero_and_none_are_noops(self):
        with deadline.deadline_scope(0):
            assert deadline.active_deadline() is None
        with deadline.deadline_scope(None):
            assert deadline.active_deadline() is None

    def test_checked_raises_past_deadline(self):
        expired = deadline.checked(iter(range(10)), deadline=0.0)
        with pytest.raises(StatementTimeoutError, match="statement_timeout_ms"):
            next(expired)


class TestStatementTimeout:
    def test_slow_select_times_out_with_typed_error(self):
        database = _database()
        session = database.session()
        with pytest.raises(StatementTimeoutError, match="statement_timeout_ms=1"):
            session.execute(SLOW_SQL, settings=ROW_MODE)

    def test_fast_statement_is_unaffected(self):
        database = _database(rows=10)
        session = database.session()
        result = session.execute("SELECT k FROM r", settings=ROW_MODE)
        assert len(result.rows) == 10

    def test_timeout_rolls_back_the_open_transaction(self):
        database = _database()
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('x', -1) VALID PERIOD [0, 5)")
        with pytest.raises(StatementTimeoutError):
            session.execute(SLOW_SQL, settings=ROW_MODE)
        # The transaction is gone: ROLLBACK outside a transaction is an error,
        # and the uncommitted insert never became visible.
        assert not session.in_transaction
        with pytest.raises(TransactionError, match="outside a transaction"):
            session.execute("ROLLBACK")
        visible = session.execute("SELECT k FROM r WHERE k = 'x'")
        assert visible.rows == []

    def test_timeout_via_database_default_settings(self):
        database = _database()
        database.settings = ROW_MODE
        with pytest.raises(StatementTimeoutError):
            database.session().execute(SLOW_SQL)
