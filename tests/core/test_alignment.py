"""Tests for temporal alignment ``r Φθ s`` (Def. 11, Lemma 1, Propositions 3–4)."""

import random
from decimal import Decimal

import pytest

from repro import predicates
from repro.core.alignment import align_pair, align_relation, alignment_cardinality_bound
from repro.core.normalization import normalize
from repro.core.sweep import matching_groups, overlap_groups, uncovered_intervals, value_key
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.temporal.interval import Interval
from repro.workloads.hotel import HOTEL_TIMELINE, hotel_prices, hotel_reservations


class TestPaperExample:
    def test_figure_4_alignment_of_P_with_R(self):
        """P Φ_{min ≤ DUR(U) ≤ max} U(R) produces the seven tuples of Fig. 4."""
        months = HOTEL_TIMELINE
        extended = hotel_reservations().extend("U")
        prices = hotel_prices()
        theta = predicates.duration_between("U", "min", "max", propagated_on_left=False)
        result = align_relation(prices, extended, theta)
        expected = {
            ((50, 1, 2), months.interval("2012/1", "2012/6")),
            ((50, 1, 2), months.interval("2012/10", "2013/1")),
            ((40, 3, 7), months.interval("2012/1", "2012/6")),
            ((40, 3, 7), months.interval("2012/2", "2012/6")),
            ((40, 3, 7), months.interval("2012/10", "2012/12")),
            ((40, 3, 7), months.interval("2012/12", "2013/1")),
            ((30, 8, 12), months.interval("2012/1", "2013/1")),
        }
        assert result.as_set() == expected


class TestDefinition:
    def test_schema_is_left_schema(self, reservations, prices):
        assert align_relation(prices, reservations).schema == prices.schema

    def test_true_condition_intersections_and_gaps(self, make):
        r = make(["v"], [("a", 1, 7)])
        s = make(["w"], [("x", 2, 5), ("y", 3, 4)])
        result = align_relation(r, s)
        assert result.as_set() == {
            (("a",), Interval(1, 2)),
            (("a",), Interval(2, 5)),
            (("a",), Interval(3, 4)),
            (("a",), Interval(5, 7)),
        }

    def test_no_matches_returns_original_interval(self, make):
        r = make(["v"], [("a", 1, 7)])
        s = make(["w"], [("x", 10, 12)])
        assert align_relation(r, s).as_set() == {(("a",), Interval(1, 7))}

    def test_theta_filters_group(self, make):
        r = make(["v"], [("a", 0, 10)])
        s = make(["v"], [("a", 2, 4), ("b", 6, 8)])
        result = align_relation(r, s, predicates.attr_eq("v"))
        assert result.as_set() == {
            (("a",), Interval(0, 2)),
            (("a",), Interval(2, 4)),
            (("a",), Interval(4, 10)),
        }

    def test_equi_attribute_shortcut_equivalent(self, small_pair):
        left, right = small_pair
        theta = predicates.attr_eq("cat")
        slow = align_relation(left, right, theta)
        fast = align_relation(left, right, theta, equi_attributes=["cat"])
        assert slow.as_set() == fast.as_set()

    def test_empty_equi_attributes_means_no_key_on_every_strategy(self, small_pair):
        left, right = small_pair
        expected = align_relation(left, right, equi_attributes=[], strategy="sweep")
        assert align_relation(left, right, equi_attributes=[], strategy="columnar") == expected
        assert align_relation(left, right, strategy="columnar") == expected

    def test_mixed_numeric_keys_match_on_every_strategy(self, make):
        # Key equality is value equality: Decimal('1') == 1 must join.
        left = make(["k"], [((Decimal("1"),), 0, 10)])
        right = make(["k"], [((1,), 2, 4)])
        expected = align_relation(left, right, equi_attributes=["k"], strategy="sweep")
        assert len(expected) == 3  # [0,2), [2,4), [4,10)
        assert align_relation(left, right, equi_attributes=["k"], strategy="columnar") == expected

    @pytest.mark.parametrize("strategy", ["threads", "parallel", "auto", "index"])
    def test_unknown_strategies_rejected(self, make, strategy):
        r = make(["v"], [("a", 1, 7)])
        remaining = r"use one of \('sweep', 'columnar'\)"
        with pytest.raises(ValueError, match=remaining):
            align_relation(r, r, strategy=strategy)
        with pytest.raises(ValueError, match=remaining):
            normalize(r, r, strategy=strategy)

    def test_align_pair_swaps_theta(self, make):
        r = make(["lo"], [((2,), 0, 10)])
        s = make(["hi"], [((5,), 3, 6)])
        theta = lambda a, b: a.value("lo") < b.value("hi")  # noqa: E731
        aligned_left, aligned_right = align_pair(r, s, theta)
        assert (( (2,),), Interval(3, 6)) in {(t.values, t.interval) for t in aligned_left}
        assert (( (5,),), Interval(3, 6)) in {(t.values, t.interval) for t in aligned_right}


class TestProperties:
    def test_lemma_1_cardinality_bound(self, randrel):
        left = randrel(["v"], size=25, seed=11)
        right = randrel(["v"], size=30, seed=12)
        aligned = align_relation(left, right)
        assert len(aligned) <= alignment_cardinality_bound(len(left), len(right))

    def test_proposition_3_matching_intersections(self, randrel):
        left = randrel(["v"], size=20, seed=13)
        right = randrel(["v"], size=20, seed=14)
        theta = predicates.attr_eq("v")
        aligned_left, aligned_right = align_pair(left, right, theta)
        left_set = aligned_left.as_set()
        right_set = aligned_right.as_set()
        for r in left:
            for s in right:
                if theta(r, s) and r.interval.overlaps(s.interval):
                    common = r.interval.intersect(s.interval)
                    assert (r.values, common) in left_set
                    assert (s.values, common) in right_set

    def test_proposition_4_pieces_are_intersections_or_gaps(self, randrel):
        left = randrel(["v"], size=15, seed=15)
        right = randrel(["v"], size=15, seed=16)
        theta = predicates.attr_eq("v")
        aligned = align_relation(left, right, theta)
        for piece in aligned:
            candidates = [r for r in left if r.values == piece.values
                          and r.interval.contains_interval(piece.interval)]
            assert candidates, "every piece stems from an argument tuple"
            r = candidates[0]
            group = [s.interval for s in right if theta(r, s) and s.interval.overlaps(r.interval)]
            is_intersection = any(piece.interval == r.interval.intersect(g) for g in group)
            is_gap = piece.interval in uncovered_intervals(r.interval, group)
            assert is_intersection or is_gap


class TestSweepHelpers:
    def test_overlap_groups_match_naive(self, randrel):
        left = randrel(["v"], size=25, seed=21).tuples()
        right = randrel(["v"], size=25, seed=22).tuples()
        fast = overlap_groups(left, right)
        naive = [[s for s in right if s.interval.overlaps(r.interval)] for r in left]
        assert [set(map(id, g)) for g in fast] == [set(map(id, g)) for g in naive]

    def test_keyed_overlap_groups_match_naive(self, randrel):
        left = randrel(["v"], size=25, seed=23).tuples()
        right = randrel(["v"], size=25, seed=24).tuples()
        key = value_key(["v"])
        fast = overlap_groups(left, right, left_key=key, right_key=key)
        naive = [
            [s for s in right if s.interval.overlaps(r.interval) and s.values == r.values]
            for r in left
        ]
        assert [set(map(id, g)) for g in fast] == [set(map(id, g)) for g in naive]

    def test_keyed_requires_both_keys(self, randrel):
        left = randrel(["v"], size=5, seed=25).tuples()
        with pytest.raises(ValueError):
            overlap_groups(left, left, left_key=value_key(["v"]))

    def test_matching_groups_without_overlap_requirement(self, make):
        left = make(["v"], [("a", 0, 2)]).tuples()
        right = make(["v"], [("a", 10, 12)]).tuples()
        with_overlap = matching_groups(left, right, require_overlap=True)
        without_overlap = matching_groups(left, right, require_overlap=False)
        assert with_overlap == [[]]
        assert len(without_overlap[0]) == 1

    def test_uncovered_intervals(self):
        gaps = uncovered_intervals(Interval(0, 10), [Interval(2, 4), Interval(3, 6)])
        assert gaps == [Interval(0, 2), Interval(6, 10)]
        assert uncovered_intervals(Interval(0, 10), [Interval(-5, 20)]) == []


class TestAlignmentStrategies:
    def test_strategies_produce_identical_relations(self):
        rng = random.Random(11)

        def random_relation(n):
            relation = TemporalRelation(Schema(["k", "v"]))
            for i in range(n):
                start = rng.randrange(0, 60)
                end = start + rng.randrange(0, 12)
                relation.insert((rng.randrange(4), i), Interval(start, end))
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
