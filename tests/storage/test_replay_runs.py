"""One-pass WAL replay and the recovery-time collector pause.

:meth:`TemporalRelation.replay_deltas` replays a whole run of logged batches
with one layout rebuild.  The oracle for every case is the live relation
the batches were logged from: replaying its change log onto a restored copy
of its earlier state must reproduce its rows, rowids, physical order,
version and ``next_rowid`` exactly.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.engine.database import Database
from repro.engine.optimizer import cost
from repro.obs import metrics as obs_metrics
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.relation.tuple import TemporalTuple
from repro.storage.wal import WalCorruptionError
from repro.temporal.interval import Interval

SCHEMA = Schema(["k", "x"])


def _live(rows):
    relation = TemporalRelation(SCHEMA)
    relation.enable_change_tracking()
    for values, interval in rows:
        relation.insert(values, interval)
    return relation


def _state(relation):
    return (
        [(rowid, t.values, t.interval) for rowid, t in relation.rows_with_ids()],
        relation.version,
        relation.next_rowid,
    )


def _restored(state):
    rows, version, next_rowid = state
    return TemporalRelation.restore(
        SCHEMA,
        [(rowid, (values, interval)) for rowid, values, interval in rows],
        next_rowid=next_rowid,
        changelog_version=version,
    )


def _batch(deltas):
    return [(d.sign, d.rowid, d.tuple, d.version) for d in deltas]


def _insert(values, interval):
    def mutate(relation):
        relation.insert(values, interval)
        return relation.changes_since(relation.version - 1)

    return mutate


def _assert_replay_matches_live(initial, mutations):
    """Apply ``mutations`` live, then replay their batches in one run onto a
    restored copy of ``initial``: the result must be the live relation."""
    live = _live(initial)
    start = _state(live)
    batches = [_batch(mutate(live)) for mutate in mutations]
    replayed = _restored(start)
    assert replayed.replay_deltas(batches) == len(batches)
    assert _state(replayed) == _state(live)


def test_fragment_replaced_again_in_a_later_batch():
    _assert_replay_matches_live(
        [(("a", 1), Interval(0, 20)), (("b", 2), Interval(3, 9))],
        [
            lambda r: r.update({"x": 10}, period=Interval(5, 10)),
            lambda r: r.update({"x": 11}, period=Interval(7, 8)),  # splits [5, 10) again
            lambda r: r.delete(period=Interval(12, 14)),
            lambda r: r.update({"x": 12}, lambda t: t["x"] == 11),  # a third generation
        ],
    )


def test_appended_tuple_later_removed_and_split():
    _assert_replay_matches_live(
        [(("a", 1), Interval(0, 10))],
        [
            _insert(("n", 5), Interval(2, 6)),
            _insert(("m", 6), Interval(1, 30)),
            lambda r: r.delete(lambda t: t["k"] == "n"),
            lambda r: r.update({"x": 7}, lambda t: t["k"] == "m", period=Interval(10, 20)),
            lambda r: r.delete(lambda t: t["k"] == "m", period=Interval(12, 14)),
        ],
    )


def test_run_straddling_the_restored_version_skips_its_prefix():
    live = _live([(("a", 1), Interval(0, 20)), (("b", 2), Interval(5, 25))])
    start = _state(live)
    batches = [_batch(live.update({"x": 3}, period=Interval(4, 8)))]
    batches.append(_batch(live.delete(period=Interval(10, 12))))
    middle = _state(live)  # the snapshot already holds the first two batches
    batches.append(_batch(live.update({"x": 4}, period=Interval(6, 7))))
    batches.append(_batch(_insert(("c", 5), Interval(1, 2))(live)))
    replayed = _restored(middle)
    assert replayed.replay_deltas(batches) == 2
    assert _state(replayed) == _state(live)
    # Replaying the same run again is a no-op: every batch is contained.
    assert replayed.replay_deltas(batches) == 0
    assert _state(replayed) == _state(live)
    from_start = _restored(start)
    assert from_start.replay_deltas(batches) == 4
    assert _state(from_start) == _state(live)


def test_each_applied_batch_runs_the_mutation_epilogue_once():
    live = _live([(("a", 1), Interval(0, 20))])
    start = _state(live)
    batches = [
        _batch(live.update({"x": 2}, period=Interval(2, 4))),
        _batch(live.update({"x": 3}, period=Interval(2, 3))),
    ]
    replayed = _restored(start)
    seen = []
    replayed.add_mutation_listener(lambda _r, deltas: seen.append([d.version for d in deltas]))
    replayed.derived("marker", lambda: "cached")
    replayed.replay_deltas(batches)
    assert seen == [[v for *_, v in batch] for batch in batches]
    assert replayed.peek_derived("marker") is None


def _chain(updates, horizon=1_000_000):
    """``updates`` successive sequenced updates, each splitting the newest
    tail fragment of one tuple: ``[k, horizon)`` becomes ``[k, k+1)`` with
    new values plus the tail ``[k+1, horizon)`` — a fragment chain as deep
    as the suffix is long."""
    relation = _live([(("a", 0), Interval(0, horizon))])
    start = _state(relation)
    tail_rowid, version, next_rowid = 0, relation.version, relation.next_rowid
    batches = []
    for k in range(updates):
        old = TemporalTuple(SCHEMA, ("a", 0), Interval(k, horizon))
        piece = TemporalTuple(SCHEMA, ("a", k + 1), Interval(k, k + 1))
        tail = TemporalTuple(SCHEMA, ("a", 0), Interval(k + 1, horizon))
        batches.append([
            ("-", tail_rowid, old, version + 1),
            ("+", next_rowid, piece, version + 2),
            ("+", next_rowid + 1, tail, version + 3),
        ])
        tail_rowid, version, next_rowid = next_rowid + 1, version + 3, next_rowid + 2
    return start, batches


def test_deep_fragment_chain_replays_without_recursion():
    start, batches = _chain(5_000)
    replayed = _restored(start)
    assert replayed.replay_deltas(batches) == 5_000
    rows = [(t.values[1], t.start, t.end) for t in replayed]
    assert rows == [(k + 1, k, k + 1) for k in range(5_000)] + [(0, 5_000, 1_000_000)]
    assert replayed.version == 3 * 5_000 + 1


def test_replay_time_is_linear_in_the_suffix():
    runs = {updates: _chain(updates) for updates in (1_250, 5_000)}
    best = {updates: float("inf") for updates in runs}
    for _ in range(5):  # interleaved, so machine load hits both sizes alike
        for updates, (start, batches) in runs.items():
            relation = _restored(start)
            gc.disable()  # as during recovery; collections would not scale linearly
            try:
                began = time.perf_counter()
                relation.replay_deltas(batches)
                best[updates] = min(best[updates], time.perf_counter() - began)
            finally:
                gc.enable()
    # 4× the suffix: a linear replay takes ~4× as long, a replay that
    # rebuilds the layout per batch ~16×.
    assert best[5_000] / best[1_250] < 10


def test_unknown_rowid_fails_the_run_and_leaves_the_relation_untouched():
    live = _live([(("a", 1), Interval(0, 20)), (("b", 2), Interval(5, 25))])
    start = _state(live)
    good = _batch(live.update({"x": 3}, period=Interval(4, 8)))
    version = live.version
    bad = [("-", 999, TemporalTuple(SCHEMA, ("z", 0), Interval(0, 1)), version + 1)]
    replayed = _restored(start)
    epilogues = []
    replayed.add_mutation_listener(lambda _r, deltas: epilogues.append(deltas))
    replayed.derived("marker", lambda: "cached")
    with pytest.raises(SchemaError, match="unknown rowid 999"):
        replayed.replay_deltas([good, bad])
    assert _state(replayed) == start
    assert replayed.changes_since(start[1]) == []
    assert epilogues == []
    assert replayed.peek_derived("marker") == "cached"


def test_version_gap_fails_the_run_and_leaves_the_relation_untouched():
    live = _live([(("a", 1), Interval(0, 20))])
    start = _state(live)
    first = _batch(live.update({"x": 3}, period=Interval(4, 8)))
    second = _batch(live.update({"x": 4}, period=Interval(5, 6)))
    replayed = _restored(start)
    with pytest.raises(SchemaError, match="does not follow"):
        replayed.replay_deltas([first, second[1:]])
    assert _state(replayed) == start


# -- the engine: runs between DDL records, histograms, collector ---------------


def _durable(path):
    database = Database.open(path)
    relation = TemporalRelation(SCHEMA)
    for i in range(6):
        relation.insert((f"k{i % 2}", i), Interval(i, i + 8))
    database.register_relation("r", relation)
    return database


def test_runs_flush_at_ddl_records(tmp_path, monkeypatch):
    # Small relations make the cost model prefer recomputes; pin it so the
    # refresh below can only recompute if recovery lost the cursors.
    monkeypatch.setattr(cost, "maintenance_strategy", lambda *_sizes: "incremental")
    path = str(tmp_path / "db")
    database = _durable(path)
    database.update_rows("r", {"x": 50}, period=Interval(2, 4))
    database.register_relation("s", TemporalRelation(SCHEMA))
    database.insert_rows("s", [(("k0", 1), Interval(0, 3))])
    database.update_rows("r", {"x": 51}, period=Interval(3, 4))
    database.views.create_normalize_view("n", "r", "s", attributes=["k"])
    database.delete_rows("s", period=Interval(1, 2))
    database.update_rows("r", {"x": 52}, period=Interval(1, 6))
    expected = {name: _state(database.relations[name]) for name in ("r", "s")}
    expected_view = sorted(database.views.get("n").result().as_set())
    database.storage.abandon()

    recovered = Database.open(path)
    assert {name: _state(recovered.relations[name]) for name in ("r", "s")} == expected
    assert recovered.storage.stats["replayed_mutations"] == 5
    view = recovered.views.get("n")
    assert view.refresh() == "incremental"
    assert sorted(view.result().as_set()) == expected_view
    recovered.close()


def _count(name):
    return obs_metrics.REGISTRY.snapshot()[name]["count"]


def test_recovery_and_wal_apply_are_timed_once_per_open(tmp_path):
    path = str(tmp_path / "db")
    database = _durable(path)
    database.update_rows("r", {"x": 9}, period=Interval(1, 3))
    database.storage.abandon()
    for _ in range(2):
        recovered_before = _count("storage.recovery_seconds")
        applied_before = _count("storage.wal_apply_seconds")
        recovered = Database.open(path)
        assert _count("storage.recovery_seconds") == recovered_before + 1
        assert _count("storage.wal_apply_seconds") == applied_before + 1
        recovered.storage.abandon()


def test_collector_is_enabled_again_after_open(tmp_path):
    assert gc.isenabled()
    database = _durable(str(tmp_path / "db"))
    database.storage.abandon()
    recovered = Database.open(str(tmp_path / "db"))
    assert gc.isenabled()
    recovered.close()


def test_collector_is_enabled_again_after_a_failed_open(tmp_path):
    path = str(tmp_path / "db")
    _durable(path).close()
    with open(os.path.join(path, "snapshot.bin"), "wb") as handle:
        handle.write(b"corrupt beyond recognition, definitely")
    with pytest.raises(WalCorruptionError):
        Database.open(path)
    assert gc.isenabled()


def test_collector_stays_disabled_when_the_caller_disabled_it(tmp_path):
    path = str(tmp_path / "db")
    _durable(path).close()
    gc.disable()
    try:
        recovered = Database.open(path)
        assert not gc.isenabled()
        recovered.close()
    finally:
        gc.enable()
