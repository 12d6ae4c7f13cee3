"""One name names one object: a plain table, a registered relation or a view.

A relation is stored once, as itself, and scans read it in place; a name
re-registered as the other kind goes through ``drop_table`` first, a view's
name is refused, and so is a relation the engine could not scan (an
attribute named like a boundary column), before the catalog or the log
changes.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.engine.table import Table
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.temporal.interval import Interval

PLAIN_ROWS = [(1, 0, 5), (2, 3, 9)]


def _relation(attributes=("x",), size=4):
    relation = TemporalRelation(Schema(list(attributes)))
    for i in range(size):
        relation.insert(tuple(10 * i + k for k in range(len(attributes))), Interval(i, i + 5))
    return relation


def _rows(relation):
    return sorted(t.values + (t.start, t.end) for t in relation)


def _files(path):
    return {
        name: open(os.path.join(path, name), "rb").read()
        for name in ("wal.log", "snapshot.bin")
    }


@pytest.mark.parametrize("boundary", ["ts", "te"])
def test_a_boundary_named_attribute_is_refused_before_anything_changes(tmp_path, boundary):
    path = str(tmp_path / "db")
    database = Database.open(path)
    database.register_relation("ok", _relation())
    database.checkpoint()
    database.insert_rows("ok", [((99,), Interval(40, 50))])
    relations = dict(database.relations)
    files = _files(path)
    assert all(files.values())

    refused = _relation(("y", boundary))
    with pytest.raises(SchemaError, match="boundary columns"):
        database.register_relation("r", refused)
    assert database.relations == relations
    assert not refused.tracks_changes
    assert _files(path) == files
    with pytest.raises(SchemaError, match="unknown table 'r'"):
        database.query("SELECT * FROM r")

    database.storage.abandon()  # a crash: recovery replays the same log
    reopened = Database.open(path)
    try:
        assert sorted(reopened.relations) == ["ok"]
        assert _rows(reopened.relations["ok"]) == _rows(database.relations["ok"])
    finally:
        reopened.close()


def test_a_table_registered_over_a_relation_replaces_it():
    database = Database()
    replaced = _relation()
    database.register_relation("r", replaced)
    database.register_relation("s", _relation())
    database.views.create_align_view(
        "v", "r", "s", condition=Comparison("=", Column("r.x"), Column("s.x"))
    )
    database.register_table(Table("r", ["y", "ts", "te"], PLAIN_ROWS))

    assert "r" not in database.relations and "v" not in database.views
    assert database.query("SELECT * FROM r").rows == PLAIN_ROWS
    with pytest.raises(SchemaError, match="not a registered temporal relation"):
        database.query("INSERT INTO r (y) VALUES (7) VALID PERIOD [0, 1)")
    epoch = database.transactions.commit_epoch
    replaced.insert((7,), Interval(0, 1))  # the dropped relation reaches nothing
    assert database.transactions.commit_epoch == epoch
    assert database.query("SELECT * FROM r").rows == PLAIN_ROWS


def test_a_relation_registered_over_a_table_replaces_it():
    database = Database()
    database.register_table(Table("r", ["y", "ts", "te"], PLAIN_ROWS))
    relation = _relation()
    database.register_relation("r", relation)

    assert "r" not in database.tables
    assert sorted(database.query("SELECT * FROM r").rows) == _rows(relation)
    database.query("INSERT INTO r (x) VALUES (7) VALID PERIOD [0, 1)")
    assert (7, 0, 1) in _rows(relation)
    assert sorted(database.query("SELECT * FROM r").rows) == _rows(relation)


def test_a_view_name_is_refused_for_tables_and_relations():
    database = Database()
    database.register_relation("r", _relation())
    database.register_relation("s", _relation())
    database.views.create_align_view(
        "v", "r", "s", condition=Comparison("=", Column("r.x"), Column("s.x"))
    )
    rows = database.query("SELECT * FROM v").rows
    with pytest.raises(SchemaError, match="materialized view"):
        database.register_table(Table("v", ["y", "ts", "te"], PLAIN_ROWS))
    refused = _relation()
    with pytest.raises(SchemaError, match="materialized view"):
        database.register_relation("v", refused)
    assert "v" not in database.tables and "v" not in database.relations
    assert not refused.tracks_changes
    assert database.query("SELECT * FROM v").rows == rows
