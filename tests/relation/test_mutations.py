"""Sequenced mutations, the change log, and cache invalidation.

The cache-invalidation cases are the regression net for cache coherence:
*every* mutation path — ``add``/``insert``, ``delete``, ``update`` —
must drop the lazy ``derived`` caches (the columnar frame and the split
points among them), or an adjustment against a stale frame silently returns
fragments of a relation state that no longer exists.
"""

import pytest

from repro import Interval, Schema, TemporalRelation
from repro.relation.changelog import ChangeLog, ChangeLogTruncatedError
from repro.relation.errors import DuplicateTupleError, SchemaError
from repro.columnar.encoding import encode_relation, positions_with_codes
from repro.columnar.runtime import numpy_or_none
from repro.core.normalization import split_points


def make(rows):
    relation = TemporalRelation(Schema(["n", "v"]))
    for n, v, s, e in rows:
        relation.insert((n, v), Interval(s, e))
    return relation


class TestSequencedDelete:
    def test_full_delete_removes_matching_tuples(self):
        r = make([("a", 1, 0, 10), ("b", 2, 0, 10)])
        deltas = r.delete(predicate=lambda t: t["n"] == "a")
        assert [d.sign for d in deltas] == ["-"]
        assert r.as_set() == {(("b", 2), Interval(0, 10))}

    def test_period_delete_splits_at_boundaries(self):
        r = make([("a", 1, 0, 10)])
        r.delete(period=Interval(3, 7))
        assert r.as_set() == {
            (("a", 1), Interval(0, 3)),
            (("a", 1), Interval(7, 10)),
        }

    def test_period_delete_prefix_and_suffix(self):
        r = make([("a", 1, 0, 10)])
        r.delete(period=Interval(0, 4))
        assert r.as_set() == {(("a", 1), Interval(4, 10))}
        r.delete(period=Interval(8, 99))
        assert r.as_set() == {(("a", 1), Interval(4, 8))}

    def test_non_overlapping_period_is_a_noop(self):
        r = make([("a", 1, 0, 5)])
        assert r.delete(period=Interval(5, 9)) == []
        assert len(r) == 1

    def test_delete_returns_deltas_without_tracking(self):
        r = make([("a", 1, 0, 10)])
        deltas = r.delete(period=Interval(2, 4))
        assert [(d.sign, d.tuple.interval) for d in deltas] == [
            ("-", Interval(0, 10)),
            ("+", Interval(0, 2)),
            ("+", Interval(4, 10)),
        ]
        assert all(d.version == 0 for d in deltas)  # not logged


class TestSequencedUpdate:
    def test_update_splits_and_rewrites_only_inside_period(self):
        r = make([("a", 1, 0, 10)])
        r.update({"v": 9}, period=Interval(3, 7))
        assert r.as_set() == {
            (("a", 1), Interval(0, 3)),
            (("a", 9), Interval(3, 7)),
            (("a", 1), Interval(7, 10)),
        }

    def test_update_without_period_rewrites_whole_tuple(self):
        r = make([("a", 1, 0, 10), ("b", 2, 0, 10)])
        r.update({"v": 0}, predicate=lambda t: t["n"] == "b")
        assert (("b", 0), Interval(0, 10)) in r.as_set()
        assert (("a", 1), Interval(0, 10)) in r.as_set()

    def test_callable_assignment_sees_the_original_tuple(self):
        r = make([("a", 10, 0, 4)])
        r.update({"v": lambda t: t["v"] * 2})
        assert r.as_set() == {(("a", 20), Interval(0, 4))}

    def test_unknown_attribute_is_rejected(self):
        r = make([("a", 1, 0, 4)])
        with pytest.raises(SchemaError):
            r.update({"missing": 1})

    def test_update_preserves_duplicate_free_enforcement(self):
        r = TemporalRelation(Schema(["n", "v"]), enforce_duplicate_free=True)
        r.insert(("a", 1), Interval(0, 5))
        r.insert(("a", 2), Interval(0, 5))
        with pytest.raises(DuplicateTupleError):
            r.update({"v": 1}, predicate=lambda t: t["v"] == 2)
        # the failed mutation must not have been applied
        assert r.as_set() == {(("a", 1), Interval(0, 5)), (("a", 2), Interval(0, 5))}


class TestChangeLog:
    def test_versions_are_monotonic_and_pullable(self):
        r = make([])
        r.enable_change_tracking()
        r.insert(("a", 1), Interval(0, 10))
        v1 = r.version
        r.update({"v": 2}, period=Interval(2, 4))
        assert r.version > v1
        pulled = r.changes_since(v1)
        assert [d.sign for d in pulled] == ["-", "+", "+", "+"]
        assert r.changes_since(r.version) == []

    def test_rowids_identify_physical_tuples(self):
        r = make([])
        r.enable_change_tracking()
        r.insert(("a", 1), Interval(0, 5))
        r.insert(("a", 1), Interval(10, 15))  # value-equal, distinct rowid
        rowids = [rowid for rowid, _ in r.rows_with_ids()]
        assert len(set(rowids)) == 2
        deltas = r.delete(period=Interval(10, 15))
        assert [d.rowid for d in deltas if d.sign == "-"] == [rowids[1]]

    def test_changes_since_requires_tracking(self):
        r = make([("a", 1, 0, 5)])
        with pytest.raises(SchemaError):
            r.changes_since(0)

    def test_trim_truncates_old_cursors(self):
        log = ChangeLog()
        r = make([])
        r.enable_change_tracking()
        for i in range(5):
            r.insert(("a", i), Interval(i, i + 1))
        r.trim_changelog(3)
        assert len(r.changes_since(3)) == 2
        with pytest.raises(ChangeLogTruncatedError):
            r.changes_since(1)
        assert log.since(0) == []  # an empty log has nothing to offer

    def test_listeners_fire_once_per_mutation_batch(self):
        r = make([("a", 1, 0, 10), ("b", 1, 0, 10)])
        r.enable_change_tracking()
        batches = []
        r.add_mutation_listener(lambda _rel, deltas: batches.append(len(deltas)))
        r.update({"v": 2}, period=Interval(2, 4))  # two tuples, each split in 3
        assert batches == [8]
        r.insert(("c", 1), Interval(0, 1))
        assert batches == [8, 1]


def _derived_entries(attributes=()):
    """The derived entries an adjustment against a relation reads, keyed on
    ``attributes``: endpoints, key codes, the rows of each code, split points."""
    backend = "py" if numpy_or_none() is None else "np"
    return [
        ("columnar", "endpoints", backend),
        ("columnar", "keys", backend, attributes),
        ("columnar", "groups", backend, attributes),
        ("split_points", attributes),
    ]


def _cached(relation, attributes=()):
    """Whether every entry of :func:`_derived_entries` is cached."""
    return all(relation.peek_derived(entry) is not None for entry in _derived_entries(attributes))


class TestCacheInvalidation:
    """Every mutation path must drop the derived caches (the PR-3 audit)."""

    def build_caches(self, r):
        for attributes in ((), ("n",)):
            frame = encode_relation(r, attributes)
            positions_with_codes(r, attributes, frame.codes[:1])
            split_points(r, attributes)
        r.derived("marker", lambda: "cached")
        assert _cached(r) and _cached(r, ("n",))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.insert(("z", 0), Interval(50, 60)),
            lambda r: r.delete(predicate=lambda t: t["n"] == "a"),
            lambda r: r.delete(period=Interval(1, 2)),
            lambda r: r.update({"v": 7}),
            lambda r: r.update({"v": 7}, period=Interval(1, 2)),
        ],
        ids=["insert", "delete", "delete-period", "update", "update-period"],
    )
    def test_mutations_invalidate_derived_caches(self, mutate):
        r = make([("a", 1, 0, 10), ("b", 2, 2, 6)])
        self.build_caches(r)
        mutate(r)
        # Each entry on its own: a path that dropped only some of them would
        # leave a stale one behind.
        for attributes in ((), ("n",)):
            for entry in _derived_entries(attributes):
                assert r.peek_derived(entry) is None, entry

    def test_noop_mutation_keeps_caches(self):
        r = make([("a", 1, 0, 10)])
        self.build_caches(r)
        r.delete(predicate=lambda t: False)
        r.update({"v": 1}, predicate=lambda t: False)
        assert _cached(r) and _cached(r, ("n",))

    @pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked"])
    def test_every_mutation_path_drops_the_derived_cache(self, tracked):
        # Engine scans read a relation's rows from its derived cache: every
        # path that changes the tuples must drop it, with or without change
        # tracking, and a statement that changes nothing must keep it.
        r = make([("a", 1, 0, 10), ("b", 2, 2, 6)])
        if tracked:
            r.enable_change_tracking()
        for mutate in (
            lambda: r.insert(("z", 0), Interval(50, 60)),
            lambda: r.delete(period=Interval(1, 2)),
            lambda: r.update({"v": 7}, predicate=lambda t: t["n"] == "b"),
            lambda: r.apply_effects([], [r.tuples()[0].with_interval(Interval(70, 80))]),
        ):
            r.derived("marker", lambda: "cached")
            mutate()
            assert r.peek_derived("marker") is None
        r.derived("marker", lambda: "cached")
        r.delete(predicate=lambda t: False)
        assert r.peek_derived("marker") == "cached"

    def test_stale_frame_is_rebuilt_after_mutation(self):
        r = make([("a", 1, 0, 10)])
        frame = encode_relation(r, ("n",))
        assert len(frame) == 1 and split_points(r, ("n",)) == {("a",): [0, 10]}
        r.delete(period=Interval(0, 10))
        rebuilt = encode_relation(r, ("n",))
        assert rebuilt.starts is not frame.starts
        assert len(rebuilt) == 0 and split_points(r, ("n",)) == {}

    def test_derived_cache_builds_once(self):
        r = make([("a", 1, 0, 10)])
        calls = []
        r.derived("probe", lambda: calls.append(1) or "value")
        assert r.derived("probe", lambda: calls.append(1) or "other") == "value"
        assert len(calls) == 1


class TestTrimBoundary:
    """Off-by-one regression at the trim horizon.

    Trimming to *exactly* the version a consumer last observed must leave
    that cursor usable: ``since(cursor)`` needs no trimmed record, so
    reporting truncation there would force a spurious full recompute.
    """

    def test_trim_to_consumed_version_is_not_truncation(self):
        r = make([])
        r.enable_change_tracking()
        for i in range(5):
            r.insert(("a", i), Interval(i, i + 1))
        cursor = r.version  # a consumer fully caught up
        assert r.trim_changelog(cursor) == 5
        assert r.changes_since(cursor) == []  # boundary: allowed, empty
        r.insert(("b", 9), Interval(0, 1))
        assert [d.sign for d in r.changes_since(cursor)] == ["+"]
        # One below the horizon is truncated; the horizon itself is not.
        with pytest.raises(ChangeLogTruncatedError):
            r.changes_since(cursor - 1)

    def test_trim_beyond_version_clamps(self):
        r = make([("a", 1, 0, 5)])
        r.enable_change_tracking()
        r.insert(("b", 2), Interval(1, 2))
        r.trim_changelog(10_000)
        assert r.changes_since(r.version) == []
        with pytest.raises(ChangeLogTruncatedError):
            r.changes_since(r.version - 1)
