"""A relation's scanned rows are built once per state that is read.

Counts, not timings.  A scan reads a registered relation's rows from its
derived cache (:func:`repro.engine.table.relation_rows`); they are built by
the first read after a mutation and never at registration, so

* ``Database.open`` of the crashed ``write_recover`` shape (relations ``r``
  and ``s``, both views, a checkpoint, then a log suffix that mutates both)
  builds none, and ``SELECT COUNT(*) FROM r`` then builds exactly one,
  for ``r``;
* inside a transaction, reads with no write between them build the
  workspace's rows once, and a write followed by a read builds them once
  more.
"""

from __future__ import annotations

import shutil

import pytest
from test_recovery_objects import CONFIG, _crashed_directory

from repro.engine import table as engine_table
from repro.engine.database import Database
from repro.workloads.synthetic import generate_random


@pytest.fixture
def built(monkeypatch):
    """The relations whose scanned rows were built, in build order."""
    relations = []
    build_rows = engine_table.build_rows

    def counting_build_rows(relation):
        relations.append(relation)
        return build_rows(relation)

    monkeypatch.setattr(engine_table, "build_rows", counting_build_rows)
    return relations


def test_recovery_builds_no_rows_and_a_count_builds_one(tmp_path, built):
    crashed = str(tmp_path / "crashed")
    _crashed_directory(crashed)
    copy = str(tmp_path / "copy")
    shutil.copytree(crashed, copy)

    built.clear()
    recovered = Database.open(copy)
    try:
        assert built == []
        assert recovered.query("SELECT COUNT(*) FROM r").rows == [
            (len(recovered.relations["r"]),)
        ]
        assert built == [recovered.relations["r"]]
    finally:
        recovered.storage.abandon()


def test_transaction_reads_build_the_workspace_rows_once_per_write(built):
    database = Database()
    database.register_relation("r", generate_random(config=CONFIG)[0])
    committed = len(database.relations["r"])
    session = database.session()
    session.execute("BEGIN")
    for _ in range(5):
        assert session.execute("SELECT COUNT(*) FROM r").rows == [(committed,)]
    (workspace,) = built
    assert workspace is not database.relations["r"]

    session.execute(
        "INSERT INTO r (cat, min_dur, max_dur) VALUES ('C0001', 1, 2) VALID PERIOD [0, 1)"
    )
    for _ in range(3):
        assert session.execute("SELECT COUNT(*) FROM r").rows == [(committed + 1,)]
    assert built == [workspace, workspace]
    session.execute("ROLLBACK")
