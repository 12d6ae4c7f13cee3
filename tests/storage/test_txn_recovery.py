"""Transactional WAL framing: commits are one record, crashes keep the prefix.

The contract: a committed transaction reaches the log as a single
``txn_commit`` record (all relations, one frame — atomic by construction of
the torn-tail WAL format), an uncommitted transaction reaches it not at all,
and recovery replays exactly the committed prefix.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.engine.database import Database
from repro.relation.errors import DuplicateTupleError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.storage.engine import WAL_FILE, StorageError
from repro.storage.wal import read_wal
from repro.temporal.interval import Interval


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "db")


def _open(db_path):
    database = Database.open(db_path)
    for name in ("r", "s"):
        if name not in database.relations:
            database.register_relation(name, TemporalRelation(Schema(["k", "v"])))
    return database


def _crash(database):
    database.storage.abandon()


def _wal_records(db_path):
    _, records, _ = read_wal(os.path.join(db_path, WAL_FILE))
    return records


class TestTxnFraming:
    def test_multi_relation_commit_is_one_wal_record(self, db_path):
        database = _open(db_path)
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('a', 1) VALID PERIOD [0, 5)")
        session.execute("INSERT INTO s (k, v) VALUES ('b', 2) VALID PERIOD [0, 5)")
        session.execute("COMMIT")
        commits = [r for r in _wal_records(db_path) if r["type"] == "txn_commit"]
        assert len(commits) == 1
        tables = {inner["name"] for inner in commits[0]["records"]}
        assert tables == {"r", "s"}
        database.close()

    def test_autocommit_statements_are_unframed(self, db_path):
        database = _open(db_path)
        database.session().execute(
            "INSERT INTO r (k, v) VALUES ('a', 1) VALID PERIOD [0, 5)"
        )
        assert not [r for r in _wal_records(db_path) if r["type"] == "txn_commit"]
        database.close()

    def test_rolled_back_transaction_writes_nothing(self, db_path):
        database = _open(db_path)
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('a', 1) VALID PERIOD [0, 5)")
        session.execute("ROLLBACK")
        records = _wal_records(db_path)
        assert not [r for r in records if r["type"] in ("txn_commit", "mutate")]
        database.close()


class TestCrashRecovery:
    def test_committed_transaction_survives_a_crash(self, db_path):
        database = _open(db_path)
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('a', 1) VALID PERIOD [0, 5)")
        session.execute("UPDATE r SET v = 2 WHERE k = 'a'")
        session.execute("INSERT INTO s (k, v) VALUES ('b', 2) VALID PERIOD [0, 5)")
        session.execute("COMMIT")
        _crash(database)

        reopened = _open(db_path)
        assert reopened.get_relation("r").as_set() == {(("a", 2), Interval(0, 5))}
        assert reopened.get_relation("s").as_set() == {(("b", 2), Interval(0, 5))}
        reopened.close()

    def test_uncommitted_transaction_vanishes_on_crash(self, db_path):
        database = _open(db_path)
        database.session().execute(
            "INSERT INTO r (k, v) VALUES ('keep', 1) VALID PERIOD [0, 5)"
        )
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('lost', 2) VALID PERIOD [0, 5)")
        session.execute("DELETE FROM r WHERE k = 'keep'")
        _crash(database)  # crash with the transaction still open

        reopened = _open(db_path)
        assert reopened.get_relation("r").as_set() == {(("keep", 1), Interval(0, 5))}
        reopened.close()

    def test_recovery_then_new_transactions(self, db_path):
        database = _open(db_path)
        session = database.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('a', 1) VALID PERIOD [0, 5)")
        session.execute("COMMIT")
        _crash(database)

        reopened = _open(db_path)
        session = reopened.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO r (k, v) VALUES ('b', 2) VALID PERIOD [0, 5)")
        session.execute("COMMIT")
        _crash(reopened)

        final = _open(db_path)
        assert {t[0][0] for t in final.get_relation("r").as_set()} == {"a", "b"}
        final.close()

    def test_replace_and_insert_transaction_recovers_the_physical_order(
        self, db_path, tmp_path
    ):
        database = _open(db_path)
        for i in range(4):
            database.session().execute(
                f"INSERT INTO r (k, v) VALUES ('k{i}', {i}) VALID PERIOD [0, 10)"
            )
        database.checkpoint()
        session = database.session()
        session.execute("BEGIN")
        session.execute("UPDATE r SET v = 100 WHERE r.k = 'k1' FOR PERIOD [2, 5)")
        session.execute("INSERT INTO r (k, v) VALUES ('k9', 9) VALID PERIOD [0, 3)")
        session.execute("COMMIT")
        live = database.get_relation("r").rows_with_ids()
        assert [rowid for rowid, _ in live] == [0, 4, 5, 6, 2, 3, 7]

        copy = str(tmp_path / "copy")
        shutil.copytree(db_path, copy)  # a crash image: the original stays open
        recovered = Database.open(copy)
        assert recovered.get_relation("r").rows_with_ids() == live
        recovered.close()
        database.close()

    def test_checkpoint_inside_a_transaction_scope_is_rejected(self, db_path):
        # CHECKPOINT is already rejected at the session layer; this pins the
        # storage-level guard for embedded callers holding a scope open.
        database = _open(db_path)
        with database.storage.transaction_scope(99):
            with pytest.raises(StorageError):
                database.storage.transaction_scope(100).__enter__()
        database.close()


class TestMidApplyPoison:
    def test_partial_apply_poisons_the_engine(self, db_path):
        database = _open(db_path)
        database.register_relation(
            "dup",
            TemporalRelation(Schema(["k", "v"]), enforce_duplicate_free=True),
        )
        database.get_relation("dup").insert(("a", 1), Interval(0, 5))

        manager = database.transactions
        transaction = manager.begin()
        transaction.insert_rows("r", [(("x", 1), Interval(0, 5))])
        transaction.insert_rows("dup", [(("a", 1), Interval(0, 5))])  # duplicate
        with pytest.raises(DuplicateTupleError):
            transaction.commit()
        # Memory now leads the log: further durable writes must refuse.
        with pytest.raises(StorageError, match="poisoned"):
            database.session().execute(
                "INSERT INTO r (k, v) VALUES ('y', 2) VALID PERIOD [0, 5)"
            )
        _crash(database)
        # Reopening recovers the pre-transaction state: the poison never
        # acknowledged the partial transaction.
        reopened = _open(db_path)
        assert reopened.get_relation("r").as_set() == set()
        reopened.close()
