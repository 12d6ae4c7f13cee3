"""Kill-and-reopen recovery: the acceptance gates of the storage engine.

The contract under test: after recovery, every base relation (tuples,
rowids, physical order), change-log version and materialized view is
identical to the last committed state — and maintenance stays *incremental*
afterwards, asserted through the views' strategy statistics, never timing.
"""

from __future__ import annotations

import os

import pytest

from repro.core.alignment import align_relation
from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.relation.changelog import ChangeLogTruncatedError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.sql.interface import Connection
from repro.storage import snapshot as snapshot_module
from repro.temporal.interval import Interval


def _relation(categories=5, size=40, offset=0):
    relation = TemporalRelation(Schema(["cat", "x"]))
    for i in range(size):
        relation.insert((f"C{i % categories}", i + offset), Interval(i, i + 10))
    return relation


def _open(path):
    return Database.open(str(path / "db"))


def _crash(database):
    """Simulate a crash: release handles (as process death would) without
    checkpointing — on-disk state stays exactly at the last committed record."""
    database.storage.abandon()


def _populate(database):
    database.register_relation("l", _relation())
    database.register_relation("r", _relation(offset=100))
    align = database.views.create_align_view(
        "v_align", "l", "r", condition=Comparison("=", Column("l.cat"), Column("r.cat"))
    )
    normalize = database.views.create_normalize_view("v_norm", "l", "r", attributes=["cat"])
    return align, normalize


def _mutate(database):
    database.insert_rows("l", [(("C1", 999), Interval(3, 9))])
    database.update_rows("l", {"x": -1}, period=Interval(12, 20))
    database.delete_rows("r", period=Interval(30, 34))


def _relation_state(database, name):
    relation = database.relations[name]
    return (
        [(rowid, t.values, t.interval) for rowid, t in relation.rows_with_ids()],
        relation.version,
        relation.changelog_trimmed_below,
        relation.next_rowid,
    )


class TestKillAndReopen:
    def test_wal_only_recovery_is_byte_identical(self, tmp_path):
        database = _populate_and_mutate = _open(tmp_path)
        align, normalize = _populate(database)
        _mutate(database)
        expected_align = align.result()
        expected_norm = normalize.result()
        expected_l = _relation_state(database, "l")
        expected_r = _relation_state(database, "r")
        _crash(database)  # crash: no close(), no checkpoint

        recovered = _open(tmp_path)
        assert _relation_state(recovered, "l") == expected_l
        assert _relation_state(recovered, "r") == expected_r
        assert recovered.views.get("v_align").result() == expected_align
        assert recovered.views.get("v_norm").result() == expected_norm
        # The recovered engine scans the recovered relation.
        assert sorted(recovered.get_table("l").rows) == sorted(
            [t.values + (t.start, t.end) for t in recovered.relations["l"]]
        )

    def test_snapshot_plus_suffix_resumes_incrementally(self, tmp_path):
        database = _open(tmp_path)
        align, normalize = _populate(database)
        _mutate(database)
        database.checkpoint()
        snapshot_stats = dict(align.stats)
        # A small WAL suffix past the snapshot — small enough that the cost
        # model would choose delta folding before the crash too.
        database.insert_rows("l", [(("C1", 555), Interval(2, 5))])
        expected_align = align.result()
        expected_l = _relation_state(database, "l")
        _crash(database)  # crash

        recovered = _open(tmp_path)
        align2 = recovered.views.get("v_align")
        # Restored from the snapshot — recovery itself recomputed nothing.
        assert align2.stats == snapshot_stats
        assert _relation_state(recovered, "l") == expected_l

        # Folding the WAL suffix and a fresh single-tuple mutation must both
        # take the *incremental* path (strategy introspection, not timing).
        recomputes_before = align2.stats["recomputed"]
        assert align2.refresh() == "incremental"
        recovered.insert_rows("l", [(("C2", 7), Interval(1, 4))])
        assert align2.refresh() == "incremental"
        assert align2.stats["recomputed"] == recomputes_before
        assert align2.result() == align_relation(
            recovered.relations["l"],
            recovered.relations["r"],
            equi_attributes=["cat"],
            strategy="sweep",
        )
        assert recovered.views.get("v_align").result() == align2.result()
        del expected_align

    def test_clean_close_then_reopen(self, tmp_path):
        database = _open(tmp_path)
        align, _ = _populate(database)
        _mutate(database)
        expected = align.result()
        expected_l = _relation_state(database, "l")
        database.close()
        # A clean shutdown checkpoints: the WAL holds only a header.
        assert os.path.getsize(tmp_path / "db" / "wal.log") == 16

        recovered = _open(tmp_path)
        assert _relation_state(recovered, "l") == expected_l
        assert recovered.views.get("v_align").result() == expected

    def test_crash_between_snapshot_and_wal_reset_does_not_double_apply(self, tmp_path):
        database = _open(tmp_path)
        _populate(database)
        _mutate(database)
        expected_l = _relation_state(database, "l")
        # Simulate the torn checkpoint: the snapshot of the current state is
        # renamed into place (epoch+1) but the WAL — which contains the very
        # same history — was not reset before the crash.
        storage = database.storage
        database.views.refresh_all()
        snapshot_module.write_snapshot(
            storage.snapshot_path, storage.epoch + 1, snapshot_module.encode_database(database)
        )
        _crash(database)

        recovered = _open(tmp_path)
        # The stale-epoch WAL is discarded, nothing is applied twice.
        assert recovered.storage.stats["replayed_records"] == 0
        assert _relation_state(recovered, "l") == expected_l

    def test_ddl_replay_drop_view_and_table(self, tmp_path):
        database = _open(tmp_path)
        _populate(database)
        database.views.drop("v_norm")
        database.drop_table("r")  # cascades v_align
        database.register_relation("s", _relation(size=5))
        _crash(database)

        recovered = _open(tmp_path)
        assert sorted(recovered.relations) == ["l", "s"]
        assert len(recovered.views) == 0

    def test_trim_is_durable_through_database_api(self, tmp_path):
        database = _open(tmp_path)
        _populate(database)
        _mutate(database)
        version = database.relations["l"].version
        database.trim_changelog("l", version)
        _crash(database)

        recovered = _open(tmp_path)
        assert recovered.relations["l"].changelog_trimmed_below == version
        assert recovered.relations["l"].changes_since(version) == []
        with pytest.raises(ChangeLogTruncatedError):
            recovered.relations["l"].changes_since(version - 1)

    def test_opaque_theta_view_warns_and_is_skipped(self, tmp_path):
        database = _open(tmp_path)
        database.register_relation("l", _relation())
        database.register_relation("r", _relation(offset=50))
        with pytest.warns(UserWarning, match="opaque definition"):
            database.views.create_align_view(
                "v_opaque", "l", "r", theta=lambda x, y: x["cat"] == y["cat"],
                equi_attributes=["cat"],
            )
        with pytest.warns(UserWarning, match="opaque definition"):
            database.close()

        recovered = _open(tmp_path)
        assert "v_opaque" not in recovered.views
        assert sorted(recovered.relations) == ["l", "r"]

    def test_auto_checkpoint_bounds_the_wal(self, tmp_path):
        database = Database.open(str(tmp_path / "db"), auto_checkpoint=10)
        _populate(database)
        for i in range(25):
            database.insert_rows("l", [((f"C{i % 5}", i), Interval(i, i + 2))])
        assert database.storage.stats["checkpoints"] >= 2
        expected = _relation_state(database, "l")
        _crash(database)
        recovered = _open(tmp_path)
        assert _relation_state(recovered, "l") == expected

    def test_sql_open_mutate_reopen(self, tmp_path):
        # The README quickstart flow, end to end through SQL.
        database = Database.open(str(tmp_path / "db"))
        connection = Connection(database)
        connection.register_relation("r", _relation(size=6))
        connection.execute("INSERT INTO r (cat, x) VALUES ('C9', 42) VALID PERIOD [2, 8)")
        connection.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT * FROM (r a NORMALIZE r b USING(cat)) n"
        )
        connection.execute("CHECKPOINT")
        connection.execute("UPDATE r SET x = x + 1 WHERE cat = 'C9' FOR PERIOD [2, 5)")
        expected = sorted(connection.execute("SELECT cat, x, ts, te FROM mv").rows)
        _crash(database)  # crash
        del database, connection

        recovered = Connection(Database.open(str(tmp_path / "db")))
        assert sorted(recovered.execute("SELECT cat, x, ts, te FROM mv").rows) == expected
        view = recovered.database.views.get("mv")
        recomputes = view.stats["recomputed"]
        recovered.execute("INSERT INTO r (cat, x) VALUES ('C9', 1) VALID PERIOD [0, 3)")
        assert view.refresh() == "incremental"
        assert view.stats["recomputed"] == recomputes

    def test_recompute_view_round_trips(self, tmp_path):
        database = _open(tmp_path)
        database.register_relation("l", _relation())
        connection = Connection(database)
        connection.execute(
            "CREATE MATERIALIZED VIEW totals AS "
            "SELECT cat, COUNT(*) AS n FROM l GROUP BY cat"
        )
        expected = sorted(connection.execute("SELECT cat, n FROM totals").rows)
        database.close()

        recovered = Connection(Database.open(str(tmp_path / "db")))
        assert sorted(recovered.execute("SELECT cat, n FROM totals").rows) == expected
        # Staleness tracking still works: a new tuple changes the aggregate.
        recovered.execute("INSERT INTO l (cat, x) VALUES ('C0', 7) VALID PERIOD [0, 2)")
        refreshed = sorted(recovered.execute("SELECT cat, n FROM totals").rows)
        assert refreshed != expected


class TestCheckpointFailureIsPoisonous:
    def test_failed_wal_reset_refuses_further_commits(self, tmp_path, monkeypatch):
        # A checkpoint whose snapshot landed but whose WAL reset failed must
        # not keep acknowledging commits — recovery would discard them (the
        # on-disk WAL epoch now predates the snapshot's).
        from repro.storage.engine import StorageError

        database = _open(tmp_path)
        database.register_relation("l", _relation(size=6))
        storage = database.storage

        def explode(_epoch):
            raise OSError("disk full while rewriting the WAL header")

        monkeypatch.setattr(storage._wal, "reset", explode)
        with pytest.raises(StorageError, match="WAL reset after snapshot"):
            database.checkpoint()
        with pytest.raises(StorageError, match="poisoned"):
            database.insert_rows("l", [(("C0", 1), Interval(0, 2))])
        monkeypatch.undo()
        database.close()  # poisoned close releases handles without checkpointing

        # Reopening recovers cleanly from the snapshot that did land.
        recovered = _open(tmp_path)
        assert len(recovered.relations["l"]) == 6
        recovered.insert_rows("l", [(("C1", 2), Interval(0, 2))])
        recovered.close()

    def test_snapshot_write_failure_does_not_poison(self, tmp_path, monkeypatch):
        from repro.storage import snapshot as snapshot_module

        database = _open(tmp_path)
        database.register_relation("l", _relation(size=4))

        def refuse(*_args, **_kwargs):
            raise OSError("no space for the snapshot")

        monkeypatch.setattr(snapshot_module, "write_snapshot", refuse)
        with pytest.raises(OSError):
            database.checkpoint()
        monkeypatch.undo()
        # The old snapshot + full WAL still describe the complete history:
        # commits keep working and a later checkpoint succeeds.
        database.insert_rows("l", [(("C0", 9), Interval(1, 3))])
        database.close()
        recovered = _open(tmp_path)
        assert len(recovered.relations["l"]) == 5


class TestDirectoryLock:
    def test_double_open_of_a_live_database_is_refused(self, tmp_path):
        from repro.storage.engine import StorageError

        database = _open(tmp_path)
        database.register_relation("l", _relation(size=4))
        with pytest.raises(StorageError, match="locked by another live"):
            _open(tmp_path)
        database.close()
        # After a clean close the path opens normally again.
        reopened = _open(tmp_path)
        assert len(reopened.relations["l"]) == 4
        reopened.close()

    def test_crashed_engine_does_not_leave_a_stale_lock(self, tmp_path):
        database = _open(tmp_path)
        database.register_relation("l", _relation(size=3))
        del database  # crash: the lock must die with the engine
        recovered = _open(tmp_path)
        assert len(recovered.relations["l"]) == 3
        recovered.close()


class TestFailureHandlesAndLocks:
    def test_failed_wal_append_poisons_and_reopen_returns_committed_state(
        self, tmp_path, monkeypatch
    ):
        from repro.storage.engine import StorageError

        database = _open(tmp_path)
        database.register_relation("l", _relation(size=3))

        def refuse(_record):
            raise OSError("disk full mid-append")

        monkeypatch.setattr(database.storage._wal, "append", refuse)
        # The statement fails loudly; memory now leads the log, so every
        # later commit is refused rather than compounding the divergence.
        with pytest.raises(StorageError, match="WAL append failed"):
            database.insert_rows("l", [(("C9", 1), Interval(0, 2))])
        monkeypatch.undo()
        with pytest.raises(StorageError, match="poisoned"):
            database.insert_rows("l", [(("C8", 1), Interval(0, 2))])
        # Both refused statements applied in memory before their WAL hook
        # raised — the documented divergence the poisoning makes loud.
        assert len(database.relations["l"]) == 5
        _crash(database)
        recovered = _open(tmp_path)  # disk state: the last *logged* commit
        assert len(recovered.relations["l"]) == 3
        recovered.close()

    def test_failed_close_keeps_storage_attached_for_retry(self, tmp_path, monkeypatch):
        database = _open(tmp_path)
        database.register_relation("l", _relation(size=3))
        from repro.storage import snapshot as snapshot_module

        def refuse(*_args, **_kwargs):
            raise OSError("no space for the snapshot")

        monkeypatch.setattr(snapshot_module, "write_snapshot", refuse)
        with pytest.raises(OSError):
            database.close()
        assert database.storage is not None  # retryable, lock not leaked
        monkeypatch.undo()
        database.close()
        assert database.storage is None
        recovered = _open(tmp_path)
        assert len(recovered.relations["l"]) == 3
        recovered.close()

    def test_failed_open_releases_the_lock_deterministically(self, tmp_path):
        from repro.storage.wal import WalCorruptionError

        database = _open(tmp_path)
        database.register_relation("l", _relation(size=3))
        database.close()
        snapshot_path = tmp_path / "db" / "snapshot.bin"
        good = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"corrupt beyond recognition, definitely")
        with pytest.raises(WalCorruptionError):
            _open(tmp_path)
        # The failed open released its lock and handles: restoring the
        # snapshot makes the very next open succeed (no gc dependency).
        snapshot_path.write_bytes(good)
        recovered = _open(tmp_path)
        assert len(recovered.relations["l"]) == 3
        recovered.close()


def test_failed_drop_table_keeps_the_relation_durable(tmp_path, monkeypatch):
    # If the drop_table WAL record cannot be appended, the statement must
    # abort with the relation still registered AND still logging — not as a
    # live-but-silently-non-durable zombie.
    from repro.storage.engine import StorageError

    database = Database.open(str(tmp_path / "db"))
    database.register_relation("l", _relation(size=3))

    real_append = database.storage._wal.append

    def refuse(_record):
        raise OSError("disk full")

    monkeypatch.setattr(database.storage._wal, "append", refuse)
    with pytest.raises(StorageError):
        database.drop_table("l")
    assert "l" in database.relations  # drop aborted before deregistration
    assert "l" in dict(database.storage._attached)  # WAL listener intact
    monkeypatch.setattr(database.storage._wal, "append", real_append)
    database.storage._poisoned = None  # simulate operator recovery for the test
    database.insert_rows("l", [(("C9", 1), Interval(0, 2))])
    _crash(database)
    recovered = Database.open(str(tmp_path / "db"))
    assert len(recovered.relations["l"]) == 4  # the later insert was logged
    recovered.close()
