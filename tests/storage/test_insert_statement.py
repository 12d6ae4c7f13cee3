"""An autocommit multi-row ``INSERT`` is one atomic mutation batch.

One statement is one change-log batch, one ``mutate`` WAL record, one fsync
and one MVCC epoch.  A crash that tears the record recovers none of its
rows, and a row that breaks the duplicate-free condition leaves the relation
as it was: a constraint is checked against the statement's update as a
whole, never against a prefix of it.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.engine.database import Database
from repro.obs import metrics as obs_metrics
from repro.relation.errors import DuplicateTupleError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.sql import Connection
from repro.storage.wal import read_wal
from repro.temporal.interval import Interval

INSERT = "INSERT INTO r (a) VALUES (1), (2), (3) VALID PERIOD [0, 10)"


def _fsyncs():
    return obs_metrics.REGISTRY.snapshot()["wal.fsync_seconds"]["count"]


def _rows(database):
    return sorted(t.values for t in database.relations["r"])


def test_three_row_insert_is_one_record_one_fsync_one_epoch(tmp_path):
    path = str(tmp_path / "db")
    database = Database.open(path)
    database.register_relation("r", TemporalRelation(Schema(["a"])))
    records, fsyncs = database.storage.stats["records"], _fsyncs()
    epoch, version = database.transactions.commit_epoch, database.relations["r"].version
    Connection(database).execute(INSERT)
    assert database.storage.stats["records"] == records + 1
    assert _fsyncs() == fsyncs + 1
    assert database.transactions.commit_epoch == epoch + 1
    assert database.relations["r"].changes_since(version)[-1].version == version + 3
    _, logged, _ = read_wal(os.path.join(path, "wal.log"))
    assert [record["type"] for record in logged] == ["register", "mutate"]
    assert [delta[:3] for delta in logged[-1]["deltas"]] == [
        ("+", 0, (1,)), ("+", 1, (2,)), ("+", 2, (3,))
    ]
    database.storage.abandon()


def test_a_torn_insert_record_recovers_none_of_its_rows(tmp_path):
    crashed = str(tmp_path / "crashed")
    database = Database.open(crashed)
    database.register_relation("r", TemporalRelation(Schema(["a"])))
    wal = os.path.join(crashed, "wal.log")
    before = os.path.getsize(wal)
    Connection(database).execute(INSERT)
    after = os.path.getsize(wal)
    database.storage.abandon()

    torn = str(tmp_path / "torn")
    shutil.copytree(crashed, torn)
    with open(os.path.join(torn, "wal.log"), "r+b") as handle:
        handle.truncate(before + (after - before) // 2)
    recovered = Database.open(torn)
    assert _rows(recovered) == []
    recovered.close()

    recovered = Database.open(crashed)
    assert _rows(recovered) == [(1,), (2,), (3,)]
    recovered.close()


def test_a_failing_insert_leaves_no_prefix():
    database = Database()
    relation = TemporalRelation(Schema(["a"]), enforce_duplicate_free=True)
    relation.insert((1,), Interval(0, 10))
    database.register_relation("r", relation)
    state = (relation.rows_with_ids(), relation.version, relation.next_rowid)
    with pytest.raises(DuplicateTupleError):
        Connection(database).execute("INSERT INTO r (a) VALUES (2), (1) VALID PERIOD [5, 20)")
    assert (relation.rows_with_ids(), relation.version, relation.next_rowid) == state
