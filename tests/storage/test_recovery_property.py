"""Crash-recovery property test: any WAL prefix recovers a committed state.

For seeded random DML sequences the test records, after every committed
statement, the WAL length and the full observable state (relations with
rowids and physical order, change-log counters, view contents, and each
maintained view's fragments by rowid and its cursors).  It then truncates a
copy of the WAL at arbitrary byte offsets — including offsets *inside*
frames and inside the header — reopens, and asserts the recovered state
equals the state at the largest committed boundary not past the cut:
recovery is always "the last committed prefix", never a blend.  The first
refresh of every recovered view must fold the suffix incrementally.  Two
longer runs mutate a single key, so fragment-of-fragment chains fall inside
one replayed run.

On failure the offending WAL/snapshot pair is copied to
``$REPRO_RECOVERY_ARTIFACT_DIR`` (when set) so CI can upload it for
debugging.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer import cost
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.temporal.interval import Interval

HORIZON = 60


def _observe(database):
    """The full observable state: relations (with physical identity), view
    contents, and each maintained view's fragment endpoints and cursors."""
    state = {"relations": {}, "views": {}}
    for name, relation in database.relations.items():
        state["relations"][name] = (
            [(rowid, t.values, t.interval) for rowid, t in relation.rows_with_ids()],
            relation.version,
            relation.changelog_trimmed_below,
            relation.next_rowid,
        )
    for view in database.views.in_creation_order():
        contents = sorted(view.result().as_set())
        maintained = view.export_state()
        state["views"][view.name] = (
            contents,
            dict(maintained["fragments"]),
            (maintained["base_cursor"], maintained["ref_cursor"]),
        )
    return state


def _random_statement(database, rng, keys):
    """Apply one random committed DML statement (exactly one WAL record)
    touching only tuples of the first ``keys`` categories."""
    target = rng.choice(["l", "r"])
    kind = rng.random()
    start = rng.randrange(HORIZON)
    chosen = {f"C{k}" for k in range(keys)}
    predicate = None if keys == 4 else (lambda t: t["cat"] in chosen)
    if kind < 0.6 or len(database.relations[target]) < 4:
        interval = Interval(start, start + 1 + rng.randrange(12))
        database.insert_rows(
            target, [((f"C{rng.randrange(keys)}", rng.randrange(100)), interval)]
        )
    elif kind < 0.8:
        database.delete_rows(
            target, predicate, period=Interval(start, start + 1 + rng.randrange(8))
        )
    else:
        database.update_rows(
            target,
            {"x": rng.randrange(1000)},
            predicate,
            period=Interval(start, start + 1 + rng.randrange(8)),
        )


def _preserve_artifacts(directory, seed, offset):
    artifact_root = os.environ.get("REPRO_RECOVERY_ARTIFACT_DIR")
    if not artifact_root:
        return
    destination = os.path.join(artifact_root, f"seed{seed}-offset{offset}")
    shutil.copytree(directory, destination, dirs_exist_ok=True)


def _first_refreshes(database):
    """Refresh every recovered view once; the outcome must be incremental
    whenever the recovered suffix left deltas pending."""
    for view in database.views.in_creation_order():
        pending = view.pending()
        outcome = view.refresh()
        assert outcome == ("fresh" if pending == 0 else "incremental"), (
            f"view {view.name!r} resumed with {outcome!r} over {pending} pending deltas"
        )


@pytest.mark.parametrize(
    "seed, statements, keys",
    [(7, 14, 4), (23, 14, 4), (51, 14, 4), (88, 14, 4), (5, 30, 1), (12, 30, 1)],
)
def test_any_wal_truncation_recovers_the_last_committed_prefix(
    tmp_path, monkeypatch, seed, statements, keys
):
    # The cost model prefers recomputes for relations this small; pinning it
    # means a recovered view can only recompute if recovery lost its cursors.
    monkeypatch.setattr(cost, "maintenance_strategy", lambda *_sizes: "incremental")
    rng = random.Random(seed)
    origin = str(tmp_path / "origin")
    database = Database.open(origin)
    wal_path = database.storage.wal_path

    relation_l = TemporalRelation(Schema(["cat", "x"]))
    relation_r = TemporalRelation(Schema(["cat", "x"]))
    for i in range(12):
        relation_l.insert((f"C{i % 4}", i), Interval(i, i + 6))
        relation_r.insert((f"C{i % 4}", -i), Interval(2 * i, 2 * i + 4))

    #: (wal_length, expected state) after every committed action.
    boundaries = []
    database.register_relation("l", relation_l)
    boundaries.append((os.path.getsize(wal_path), _observe(database)))
    database.register_relation("r", relation_r)
    boundaries.append((os.path.getsize(wal_path), _observe(database)))
    database.views.create_align_view(
        "v", "l", "r", condition=Comparison("=", Column("l.cat"), Column("r.cat"))
    )
    boundaries.append((os.path.getsize(wal_path), _observe(database)))
    database.views.create_normalize_view("n", "l", "r", attributes=["cat"])
    boundaries.append((os.path.getsize(wal_path), _observe(database)))

    if seed % 2:  # half the runs recover through snapshot + suffix
        database.checkpoint()
        boundaries = [(os.path.getsize(wal_path), _observe(database))]
    baseline = boundaries[0][1] if seed % 2 else {"relations": {}, "views": {}}

    for _ in range(statements):
        _random_statement(database, rng, keys)
        boundaries.append((os.path.getsize(wal_path), _observe(database)))

    final_size = os.path.getsize(wal_path)
    del database  # crash: never closed

    offsets = sorted(
        {rng.randrange(final_size + 1) for _ in range(12)}
        | {0, 15, final_size, boundaries[-1][0] - 1}
    )
    for offset in offsets:
        clone = str(tmp_path / f"clone-{offset}")
        shutil.copytree(origin, clone)
        with open(os.path.join(clone, "wal.log"), "r+b") as handle:
            handle.truncate(offset)
        expected = baseline
        for boundary, state in boundaries:
            if boundary <= offset:
                expected = state
        recovered = Database.open(clone)
        try:
            _first_refreshes(recovered)
            assert _observe(recovered) == expected, (
                f"seed {seed}: truncation at byte {offset} did not recover the "
                "last committed prefix"
            )
        except AssertionError:
            _preserve_artifacts(clone, seed, offset)
            raise
        finally:
            recovered.close()


def test_recovered_database_accepts_new_commits_after_truncation(tmp_path):
    # Beyond state equality: a recovered database must be *writable* — the
    # torn tail is chopped, so new records append cleanly after the cut.
    origin = str(tmp_path / "origin")
    database = Database.open(origin)
    relation = TemporalRelation(Schema(["cat", "x"]))
    relation.insert(("C0", 1), Interval(0, 10))
    database.register_relation("l", relation)
    database.insert_rows("l", [(("C1", 2), Interval(5, 9))])
    wal_size = os.path.getsize(database.storage.wal_path)
    database.insert_rows("l", [(("C2", 3), Interval(7, 11))])
    del database

    clone = str(tmp_path / "clone")
    shutil.copytree(origin, clone)
    with open(os.path.join(clone, "wal.log"), "r+b") as handle:
        handle.truncate(wal_size + 5)  # mid-frame: the last insert is torn

    recovered = Database.open(clone)
    assert len(recovered.relations["l"]) == 2  # the torn insert is gone
    recovered.insert_rows("l", [(("C3", 4), Interval(1, 2))])
    del recovered

    reopened = Database.open(clone)
    values = sorted(t.values for t in reopened.relations["l"])
    assert values == [("C0", 1), ("C1", 2), ("C3", 4)]
    reopened.close()
