"""The mutation path does work in proportion to what it reads and writes.

Counts, not timings:

* an autocommit ``UPDATE … FOR PERIOD`` over n tuples evaluates its
  predicate exactly n times — one pass over the relation;
* it constructs a :class:`~repro.relation.tuple.TemporalTuple` only for each
  fragment it writes, none for the tuples it leaves alone;
* replaying a WAL run of R ``mutate`` batches over one relation rebuilds
  the layout once (:meth:`TemporalRelation._apply_run`), not R times;
* committing a transaction that removed tuples checks them against the live
  rowids without building the relation's ``(rowid, tuple)`` pairs.
"""

from __future__ import annotations

from repro import Interval
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.relation.tuple import TemporalTuple

N = 600
BATCHES = 40


def _database(path=None):
    database = Database() if path is None else Database.open(path)
    relation = TemporalRelation(Schema(["k", "x"]))
    for i in range(N):
        relation.insert((f"k{i % 7}", i), Interval(i, i + 20))
    database.register_relation("r", relation)
    return database


def test_update_for_period_evaluates_its_predicate_once_per_tuple():
    database = _database()
    evaluated = []

    def predicate(t):
        evaluated.append(t)
        return t["k"] == "k3"

    deltas = database.update_rows("r", {"x": -1}, predicate=predicate, period=Interval(100, 300))
    assert deltas  # the statement changed something
    assert len(evaluated) == N


def test_update_and_delete_build_a_tuple_only_per_fragment(monkeypatch):
    database = _database()
    built = []
    init = TemporalTuple.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TemporalTuple, "__init__", counting_init)
    for mutate in (
        lambda: database.update_rows(
            "r", {"x": -1}, predicate=lambda t: t["k"] == "k3", period=Interval(100, 300)
        ),
        lambda: database.delete_rows("r", period=Interval(250, 260)),
    ):
        built.clear()
        fragments = [d for d in mutate() if d.sign == "+"]
        assert fragments and len(built) == len(fragments)


def test_commit_of_a_removing_transaction_builds_no_row_pairs(monkeypatch):
    database = _database()
    session = database.session()
    session.execute("BEGIN")
    session.execute("DELETE FROM r WHERE k = 'k3'")
    built = []
    rows_with_ids = TemporalRelation.rows_with_ids

    def counting(self):
        built.append(1)
        return rows_with_ids(self)

    monkeypatch.setattr(TemporalRelation, "rows_with_ids", counting)
    session.execute("COMMIT")
    assert built == []
    assert len(database.relations["r"]) == N - len(range(3, N, 7))


def test_replaying_a_run_rebuilds_the_layout_once(tmp_path, monkeypatch):
    path = str(tmp_path / "db")
    database = _database(path)
    for i in range(BATCHES):
        database.update_rows(
            "r", {"x": -i}, predicate=lambda t: t["k"] == "k1", period=Interval(10 * i, 10 * i + 5)
        )
    expected = database.relations["r"].rows_with_ids()
    database.storage.abandon()

    rebuilds = []
    apply_run = TemporalRelation._apply_run

    def counting_apply_run(self, positions, batches):
        rebuilds.append(len(batches))
        return apply_run(self, positions, batches)

    monkeypatch.setattr(TemporalRelation, "_apply_run", counting_apply_run)
    recovered = Database.open(path)
    try:
        assert recovered.storage.stats["replayed_mutations"] == BATCHES
        assert rebuilds == [BATCHES]
        rows = recovered.relations["r"].rows_with_ids()
        assert [(rowid, t.values, t.interval) for rowid, t in rows] == [
            (rowid, t.values, t.interval) for rowid, t in expected
        ]
    finally:
        recovered.storage.abandon()
