"""Every injection point actually fails its layer the way the site promises.

Each test arms one site, drives the code path that hosts it, and asserts
both the failure *and* the recovery contract around it — an injected WAL
failure must poison the engine exactly like a real one.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.storage.engine import StorageError


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "db")


def _open(path, **kwargs):
    database = Database.open(path, **kwargs)
    if "r" not in database.relations:
        database.register_relation("r", TemporalRelation(Schema(["k", "v"])))
    return database


def _insert(database, key, value):
    database.session().execute(
        f"INSERT INTO r (k, v) VALUES ('{key}', {value}) VALID PERIOD [0, 5)"
    )


def _keys(database):
    return {t[0][0] for t in database.get_relation("r").as_set()}


class TestWalSites:
    def test_append_ioerror_poisons_and_recovery_drops_the_failed_write(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("wal.append_ioerror:count=1")
        with pytest.raises(StorageError, match="poisoned"):
            _insert(database, "b", 2)
        assert "append" in database.storage.poisoned
        assert faults.active().injected_counts()["wal.append_ioerror"] == 1
        faults.disarm()
        database.storage.abandon()
        reopened = _open(db_path)
        assert _keys(reopened) == {"a"}  # the failed write was never acked
        reopened.close()

    def test_torn_tail_is_truncated_at_recovery(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("wal.torn_tail:count=1")
        with pytest.raises(StorageError):
            _insert(database, "b", 2)
        assert faults.active().injected_counts()["wal.torn_tail"] == 1
        faults.disarm()
        database.storage.abandon()
        reopened = _open(db_path)  # recovery chops the half-written frame
        assert _keys(reopened) == {"a"}
        _insert(reopened, "c", 3)  # appends after the truncated tail work
        reopened.close()
        final = _open(db_path)
        assert _keys(final) == {"a", "c"}
        final.close()

    def test_fsync_ioerror_fails_the_commit(self, db_path):
        database = _open(db_path, sync=True)
        faults.arm("wal.fsync_ioerror:count=1")
        with pytest.raises(StorageError):
            _insert(database, "a", 1)
        faults.disarm()
        database.storage.abandon()

    def test_reset_ioerror_poisons_the_checkpoint(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("wal.reset_ioerror:count=1")
        with pytest.raises(StorageError, match="WAL reset"):
            database.storage.checkpoint()
        assert database.storage.poisoned is not None
        faults.disarm()
        database.storage.abandon()
        reopened = _open(db_path)  # the snapshot is authoritative
        assert _keys(reopened) == {"a"}
        reopened.close()


class TestSnapshotSite:
    def test_rename_failure_does_not_poison(self, db_path):
        database = _open(db_path)
        _insert(database, "a", 1)
        faults.arm("snapshot.rename_ioerror:count=1")
        with pytest.raises(OSError, match="snapshot.rename_ioerror"):
            database.storage.checkpoint()
        faults.disarm()
        # Old snapshot + full WAL stay authoritative: not poisoned, writes OK.
        assert database.storage.poisoned is None
        _insert(database, "b", 2)
        database.storage.abandon()
        reopened = _open(db_path)
        assert _keys(reopened) == {"a", "b"}
        reopened.close()
