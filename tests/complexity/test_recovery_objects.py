"""Recovery builds each tuple it restores once.

Counts, not timings: ``Database.open`` of a crashed copy of the
``write_recover`` shape — relations ``r`` and ``s`` of about 300 tuples, the
ALIGN view ``va`` and the NORMALIZE view ``vn`` over them, a checkpoint and a
short log suffix — may construct at most one
:class:`~repro.relation.tuple.TemporalTuple` per

* relation tuple in the snapshot,
* persisted view fragment whose interval differs from its base tuple's (an
  unsplit fragment *is* the restored base tuple), and
* ``+`` delta the log suffix replays.

Everything else recovery restores — lineage, unsplit fragments, the
relations a replay leaves untouched — shares those objects.
"""

from __future__ import annotations

import os
import shutil

from repro import Interval
from repro.engine.database import Database
from repro.relation.tuple import TemporalTuple
from repro.sql import Connection
from repro.storage.snapshot import read_snapshot
from repro.storage.wal import read_wal
from repro.workloads.synthetic import SyntheticConfig, generate_random

CONFIG = SyntheticConfig(size=300, categories=6, interval_length=20, time_span=600, seed=5)

VIEWS = {
    "va": "SELECT * FROM (r ALIGN s ON r.cat = s.cat) x",
    "vn": "SELECT * FROM (r r1 NORMALIZE s s1 USING(cat)) x",
}


def _crashed_directory(path: str) -> None:
    """The fixed script: populate, create both views, mutate, checkpoint,
    mutate a little more, then crash (abandon: no closing checkpoint)."""
    database = Database.open(path)
    r, s = generate_random(config=CONFIG)
    database.register_relation("r", r)
    database.register_relation("s", s)
    connection = Connection(database)
    for name, sql in VIEWS.items():
        connection.execute(f"CREATE MATERIALIZED VIEW {name} AS {sql}")
    for start in range(0, 100, 10):
        database.insert_rows("r", [(("C0001", start, start + 1), Interval(start, start + 40))])
    database.update_rows("s", {"min_dur": 7}, period=Interval(100, 140))
    for view in VIEWS:
        connection.execute(f"SELECT COUNT(*) FROM {view}")
    database.checkpoint()
    for start in range(200, 240, 10):
        database.insert_rows("r", [(("C0002", start, start + 1), Interval(start, start + 30))])
    database.update_rows("r", {"min_dur": 3}, period=Interval(300, 310))
    database.delete_rows("s", period=Interval(400, 405))
    database.storage.abandon()


def _bound(path: str):
    """The three counts the docstring allows, read off the crashed files."""
    _, state = read_snapshot(os.path.join(path, "snapshot.bin"))
    relation_tuples = 0
    intervals = {}
    for name, record in state["relations"]:
        relation_tuples += len(record["rows"])
        intervals[name] = {rowid: (start, end) for rowid, _, start, end in record["rows"]}
    split_fragments = 0
    for entry in state["views"]:
        base = intervals[entry["definition"]["base"]]
        for rowid, points in entry["state"]["fragments"]:
            if points != base[rowid]:
                split_fragments += len(points) // 2
    _, records, _ = read_wal(os.path.join(path, "wal.log"))
    inserted = 0
    for record in records:
        for inner in record["records"] if record["type"] == "txn_commit" else [record]:
            if inner["type"] == "mutate":
                inserted += sum(1 for delta in inner["deltas"] if delta[0] == "+")
    return relation_tuples, split_fragments, inserted


def test_recovery_builds_at_most_one_tuple_per_restored_fact(tmp_path, monkeypatch):
    crashed = str(tmp_path / "crashed")
    _crashed_directory(crashed)
    relation_tuples, split_fragments, inserted = _bound(crashed)
    assert relation_tuples and split_fragments and inserted  # the script exercises all three

    copy = str(tmp_path / "copy")
    shutil.copytree(crashed, copy)
    built = []
    init = TemporalTuple.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TemporalTuple, "__init__", counting_init)
    recovered = Database.open(copy)
    monkeypatch.setattr(TemporalTuple, "__init__", init)
    try:
        assert len(built) <= relation_tuples + split_fragments + inserted
        assert recovered.views.get("va").pending() > 0  # the suffix is still unapplied
    finally:
        recovered.storage.abandon()
