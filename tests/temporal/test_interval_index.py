"""The sorted-endpoint overlap index and the ALIGN view's cache of it."""

import random

import pytest

from repro import Interval, Schema, TemporalRelation
from repro.core.alignment import align_relation
from repro.temporal.interval_index import IntervalIndex, KeyedIntervalIndex
from repro.views.view import reference_index


def brute_force(entries, start, end):
    """Reference implementation of the probe predicate."""
    return [item for s, e, item in entries if s < end and e > start]


class TestIntervalIndex:
    def test_probe_matches_documented_example(self):
        index = IntervalIndex([(0, 5, "a"), (3, 9, "b"), (7, 8, "c")])
        assert index.probe(4, 7) == ["a", "b"]
        assert index.probe(20, 30) == []
        assert len(index) == 3

    def test_probe_equals_brute_force_on_random_inputs(self):
        rng = random.Random(6)
        for _ in range(60):
            entries = []
            for i in range(rng.randrange(0, 40)):
                start = rng.randrange(0, 50)
                # Include degenerate (empty) entries on purpose.
                entries.append((start, start + rng.randrange(0, 10), i))
            index = IntervalIndex(entries)
            for _ in range(25):
                qs = rng.randrange(0, 55)
                qe = qs + rng.randrange(0, 12)
                assert sorted(index.probe(qs, qe)) == sorted(brute_force(entries, qs, qe))

    def test_probe_results_ordered_by_start(self):
        rng = random.Random(9)
        entries = [(rng.randrange(0, 30), rng.randrange(30, 60), i) for i in range(50)]
        index = IntervalIndex(entries)
        by_item = {item: (s, e) for s, e, item in entries}
        result = index.probe(10, 40)
        assert result == sorted(result, key=lambda item: by_item[item])

    def test_empty_index(self):
        assert IntervalIndex([]).probe(0, 10) == []

    def test_axis_spanning_interval_does_not_degrade_correctness(self):
        # One open-ended "current" row plus many short ones: the stab tree
        # must report the long row for every probe without scanning the rest.
        entries = [(0, 10**6, "long")] + [(i, i + 1, i) for i in range(500)]
        index = IntervalIndex(entries)
        assert index.probe(400, 401) == ["long", 400]
        assert index.probe(0, 1) == [0, "long"]
        assert index.probe(499, 600) == ["long", 499]

    def test_degenerate_query_excludes_entries_starting_at_the_point(self):
        index = IntervalIndex([(5, 9, "at"), (3, 9, "before"), (5, 5, "empty")])
        # [5, 5) requires entry.start < 5, so only the straddler matches.
        assert index.probe(5, 5) == ["before"]


class TestKeyedIntervalIndex:
    def test_partitions_are_independent(self):
        index = KeyedIntervalIndex(
            [("a", 0, 5, 1), ("a", 4, 9, 2), ("b", 0, 5, 3)]
        )
        assert index.probe("a", 4, 6) == [1, 2]
        assert index.probe("b", 4, 6) == [3]
        assert index.probe("c", 4, 6) == []
        assert len(index) == 3


class TestIndexTuples:
    def _relation(self):
        relation = TemporalRelation(Schema(["k", "v"]))
        relation.insert(("x", 1), Interval(0, 5))
        relation.insert(("x", 2), Interval(3, 8))
        relation.insert(("y", 3), Interval(0, 9))
        relation.insert(("y", 4), Interval(4, 4))  # empty: excluded like the sweep
        return relation

    def test_plain_index_skips_empty_intervals(self):
        relation = self._relation()
        index = reference_index(relation, ())
        values = {t.values for t in index.probe((), 4, 5)}
        assert values == {("x", 1), ("x", 2), ("y", 3)}

    def test_keyed_index_partitions_by_key(self):
        relation = self._relation()
        index = reference_index(relation, ("k",))
        assert {t.values for t in index.probe(("x",), 4, 5)} == {("x", 1), ("x", 2)}


class TestRelationIndexCache:
    def _relation(self):
        relation = TemporalRelation(Schema(["k"]))
        relation.insert(("a",), Interval(0, 5))
        relation.insert(("b",), Interval(2, 7))
        return relation

    def test_index_is_cached_until_mutation(self):
        relation = self._relation()
        assert relation.peek_derived(("interval_index", ())) is None
        first = reference_index(relation, ())
        assert relation.peek_derived(("interval_index", ())) is first
        assert reference_index(relation, ()) is first  # cached
        relation.insert(("c",), Interval(1, 3))
        assert relation.peek_derived(("interval_index", ())) is None  # invalidated
        rebuilt = reference_index(relation, ())
        assert rebuilt is not first
        assert len(rebuilt) == 3

    def test_keyed_and_plain_caches_are_separate(self):
        relation = self._relation()
        plain = reference_index(relation, ())
        keyed = reference_index(relation, ("k",))
        assert plain is not keyed
        assert reference_index(relation, ("k",)) is keyed

    def test_derived_cache_builds_once(self):
        relation = self._relation()
        calls = []
        relation.derived("probe", lambda: calls.append(1) or "value")
        assert relation.derived("probe", lambda: calls.append(1) or "other") == "value"
        assert len(calls) == 1


class TestAlignmentStrategies:
    def test_strategies_produce_identical_relations(self):
        rng = random.Random(11)

        def random_relation(n):
            relation = TemporalRelation(Schema(["k", "v"]))
            for i in range(n):
                start = rng.randrange(0, 60)
                relation.insert((rng.randrange(4), i), Interval(start, start + rng.randrange(0, 12)))
            return relation

        for _ in range(10):
            left, right = random_relation(30), random_relation(30)
            assert align_relation(left, right, strategy="sweep") == align_relation(
                left, right, strategy="columnar"
            )
            assert align_relation(
                left, right, equi_attributes=["k"], strategy="sweep"
            ) == align_relation(left, right, equi_attributes=["k"], strategy="columnar")

    def test_unknown_strategy_rejected(self):
        relation = TemporalRelation(Schema(["k"]))
        with pytest.raises(ValueError):
            align_relation(relation, relation, strategy="quantum")
