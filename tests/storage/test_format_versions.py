"""Files of another format version are refused, never erased or misread.

Only a short header or a foreign magic can be a crash artifact (a torn
creation).  A WAL or snapshot carrying our magic with an unknown format
version was written by another build: recovery raises
:class:`WalCorruptionError` naming both versions, leaves every file
byte-identical and releases the directory lock.  A snapshot whose view
state does not fit the restored relations, and a checksummed log record of
a shape replay cannot apply, are refused the same way.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.storage import snapshot as snapshot_module
from repro.storage.wal import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    WalCorruptionError,
    pack_frame,
    pack_header,
    read_wal,
    unpack_header,
)
from repro.temporal.interval import Interval

#: Byte offset of the ``u32`` format version inside a file header.
_VERSION_OFFSET = 4


def _files(path):
    contents = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def _set_version(file_path, version):
    with open(file_path, "r+b") as handle:
        handle.seek(_VERSION_OFFSET)
        handle.write(struct.pack(">I", version))


def _database(path, checkpoint):
    database = Database.open(path)
    relation = TemporalRelation(Schema(["k", "x"]))
    for i in range(8):
        relation.insert((f"k{i % 2}", i), Interval(i, i + 5))
    database.register_relation("r", relation)
    database.register_relation("s", TemporalRelation(Schema(["k", "x"])))
    database.insert_rows("s", [(("k0", 1), Interval(2, 9)), (("k1", 2), Interval(0, 4))])
    database.views.create_normalize_view("vn", "r", "s", attributes=["k"])
    database.update_rows("r", {"x": 40}, period=Interval(3, 6))
    rows = database.relations["r"].rows_with_ids()
    if checkpoint:
        database.close()
    else:
        database.storage.abandon()
    return rows


def _refused(path, *fragments):
    """Open must raise naming every fragment and leave the files as they were."""
    before = _files(path)
    with pytest.raises(WalCorruptionError) as raised:
        Database.open(path)
    for fragment in fragments:
        assert fragment in str(raised.value)
    assert _files(path) == before


class TestHeader:
    def test_short_and_foreign_headers_are_crash_artifacts(self):
        assert unpack_header(MAGIC) is None
        assert unpack_header(b"XXXX" + pack_header(3)[4:]) is None
        assert unpack_header(pack_header(3)) == 3

    def test_our_magic_with_another_version_names_both(self):
        with pytest.raises(WalCorruptionError, match=f"version 7, expected {FORMAT_VERSION}"):
            unpack_header(pack_header(3, version=7))


class TestWal:
    def test_other_wal_version_is_refused_not_erased(self, tmp_path):
        path = str(tmp_path / "db")
        committed = _database(path, checkpoint=False)
        wal = os.path.join(path, "wal.log")
        assert os.path.getsize(wal) > HEADER_SIZE
        _set_version(wal, FORMAT_VERSION + 1)
        _refused(path, f"version {FORMAT_VERSION + 1}", f"expected {FORMAT_VERSION}")
        # The lock was released and nothing was lost: with the header put
        # back, the very next open recovers every committed record.
        _set_version(wal, FORMAT_VERSION)
        recovered = Database.open(path)
        assert recovered.relations["r"].rows_with_ids() == committed
        recovered.close()

    @pytest.mark.parametrize(
        "payload, problem",
        [
            (["not", "a", "record"], "is a list, not a dict"),
            ({"type": "mutate", "name": "r", "deltas": [("+",)]}, "has a delta that is not"),
            ({"kind": "x"}, "has unknown type None"),
            ({"type": "vacuum", "name": "r"}, "has unknown type 'vacuum'"),
            ({"type": "mutate", "name": "r"}, "is of type 'mutate' but lacks ['deltas']"),
            ({"type": "mutate", "name": "r", "deltas": ("+", 1)}, "has a delta that is not"),
            (
                {"type": "mutate", "name": "r", "deltas": [("*", 1, ("a",), 0, 1, 1)]},
                "has a delta that is not",
            ),
            (
                {"type": "txn_commit", "txn": 1, "records": {}},
                "has transaction records that are not a list",
            ),
            (
                {"type": "txn_commit", "txn": 1, "records": [{"type": "drop_table"}]},
                "holds a transaction record that is of type 'drop_table' but lacks ['name']",
            ),
            ({"type": "create_view", "definition": {}}, "has a view definition without a name"),
        ],
        ids=[
            "list",
            "short-delta",
            "no-type",
            "unknown-type",
            "missing-field",
            "deltas-not-a-list",
            "bad-sign",
            "txn-records-not-a-list",
            "txn-bad-record",
            "view-without-name",
        ],
    )
    def test_checksummed_record_of_the_wrong_shape_is_refused(self, tmp_path, payload, problem):
        path = str(tmp_path / "db")
        committed = _database(path, checkpoint=False)
        wal = os.path.join(path, "wal.log")
        _, records, valid_length = read_wal(wal)
        with open(wal, "ab") as handle:
            handle.write(pack_frame(payload))
        where = f"record {len(records) + 1} of {len(records) + 1} {problem}"
        _refused(path, where)
        _refused(path, where)  # the lock was released: the same refusal again
        with open(wal, "r+b") as handle:
            handle.truncate(valid_length)
        recovered = Database.open(path)
        assert recovered.relations["r"].rows_with_ids() == committed
        recovered.close()


class TestSnapshot:
    def test_other_snapshot_version_is_refused(self, tmp_path):
        path = str(tmp_path / "db")
        _database(path, checkpoint=True)
        snapshot = os.path.join(path, "snapshot.bin")
        _set_version(snapshot, 1)
        _refused(path, "version 1", f"expected {snapshot_module.SNAPSHOT_FORMAT}")
        _set_version(snapshot, snapshot_module.SNAPSHOT_FORMAT)
        Database.open(path).close()

    def _rewrite_view_state(self, path, edit):
        snapshot = os.path.join(path, "snapshot.bin")
        epoch, state = snapshot_module.read_snapshot(snapshot)
        (entry,) = state["views"]
        entry["state"] = edit(entry["state"], state)
        snapshot_module.write_snapshot(snapshot, epoch, state)

    def test_pre_endpoint_view_state_names_the_view(self, tmp_path):
        path = str(tmp_path / "db")
        _database(path, checkpoint=True)

        def old_layout(view_state, state):
            # Format 1's view state: lineage tuples plus fragment tuples.
            relation = snapshot_module.decode_relation(dict(state["relations"])["r"])
            left = dict(relation.rows_with_ids())
            fragments = [
                (rowid, [left[rowid].with_interval(Interval(s, e))
                         for s, e in zip(points[::2], points[1::2])])
                for rowid, points in view_state["fragments"]
            ]
            return {**view_state, "fragments": fragments, "left_items": list(left.items())}

        self._rewrite_view_state(path, old_layout)
        _refused(path, "'vn'", "left_items")

    def test_cursor_disagreeing_with_the_relations_names_the_view(self, tmp_path):
        path = str(tmp_path / "db")
        _database(path, checkpoint=True)
        self._rewrite_view_state(
            path, lambda view_state, _state: {**view_state, "ref_cursor": view_state["ref_cursor"] - 1}
        )
        _refused(path, "'vn'", "cursors")

    def test_fragment_of_an_unknown_rowid_names_the_view(self, tmp_path):
        path = str(tmp_path / "db")
        _database(path, checkpoint=True)
        self._rewrite_view_state(
            path,
            lambda view_state, _state: {
                **view_state, "fragments": view_state["fragments"] + [(999, (0, 1))]
            },
        )
        _refused(path, "'vn'", "rowid 999")
