"""Tests for temporal normalization ``N_B(r; s)`` (Def. 9, Propositions 1–2)."""

import pytest

from repro.core.normalization import normalize, normalize_pair, self_normalize
from repro.relation.errors import SchemaError
from repro.workloads.hotel import HOTEL_TIMELINE
from repro.workloads.incumben import IncumbenConfig, generate_incumben


class TestPaperExamples:
    def test_figure_3_self_normalization_of_R(self, reservations):
        """N_{}(R; R) splits Ann's first reservation at Joe's boundaries (Fig. 3)."""
        result = normalize(reservations, reservations, ())
        months = HOTEL_TIMELINE
        expected = {
            (("Ann",), months.interval("2012/1", "2012/2")),
            (("Ann",), months.interval("2012/2", "2012/6")),
            (("Ann",), months.interval("2012/6", "2012/8")),
            (("Joe",), months.interval("2012/2", "2012/6")),
            (("Ann",), months.interval("2012/8", "2012/12")),
        }
        assert result.as_set() == expected

    def test_grouped_normalization_keeps_other_groups_apart(self, reservations):
        """N_{n}(R; R) must not split Ann's tuples at Joe's boundaries."""
        result = normalize(reservations, reservations, ("n",))
        assert result.as_set() == reservations.as_set()


class TestDefinition:
    def test_result_schema_is_left_schema(self, reservations, prices):
        assert normalize(prices, reservations, ()).schema == prices.schema

    def test_unknown_attributes_rejected(self, reservations, prices):
        with pytest.raises(SchemaError):
            normalize(reservations, prices, ("nonexistent",))
        with pytest.raises(SchemaError):
            normalize(reservations, prices, ("a",))  # only in prices

    def test_self_normalize_shortcut(self, reservations):
        assert self_normalize(reservations, ()) == normalize(reservations, reservations, ())

    def test_normalize_pair_requires_union_compatibility(self, reservations, prices):
        with pytest.raises(SchemaError):
            normalize_pair(reservations, prices)

    def test_empty_reference_is_identity(self, reservations):
        from repro.relation.relation import TemporalRelation

        empty = TemporalRelation(reservations.schema)
        assert normalize(reservations, empty, ("n",)).as_set() == reservations.as_set()

    def test_covers_input_exactly(self, make):
        r = make(["v"], [("a", 0, 10), ("b", 2, 8)])
        s = make(["v"], [("a", 3, 5), ("b", 1, 4), ("b", 6, 12)])
        result = normalize(r, s, ("v",))
        by_value = {}
        for t in result:
            by_value.setdefault(t.values, []).append(t.interval)
        # Each input tuple is partitioned: total durations match.
        assert sum(iv.duration() for iv in by_value[("a",)]) == 10
        assert sum(iv.duration() for iv in by_value[("b",)]) == 6


class TestPropositions:
    def test_proposition_1_self_normalization(self, randrel):
        """All result tuples with equal B-values have equal or disjoint timestamps."""
        relation = randrel(["v"], size=40, seed=3)
        result = self_normalize(relation, ("v",))
        tuples = result.tuples()
        for a in tuples:
            for b in tuples:
                if a is b or a.values != b.values:
                    continue
                assert a.interval == b.interval or not a.interval.overlaps(b.interval)

    def test_proposition_2_pairwise_normalization(self, randrel):
        """Across the two normalized relations, matching tuples are equal or disjoint."""
        left = randrel(["v"], size=30, seed=5)
        right = randrel(["v"], size=30, seed=6)
        normalized_left, normalized_right = normalize_pair(left, right)
        for a in normalized_left:
            for b in normalized_right:
                if a.values != b.values:
                    continue
                assert a.interval == b.interval or not a.interval.overlaps(b.interval)

    def test_change_preservation_of_splits(self, make):
        """Splitting happens only at group boundaries, never beyond."""
        r = make(["v"], [("a", 0, 10)])
        s = make(["v"], [("b", 4, 6)])  # different value: no splits
        assert normalize(r, s, ("v",)).as_set() == r.as_set()
        s2 = make(["v"], [("a", 4, 6)])
        assert len(normalize(r, s2, ("v",))) == 3


class TestOutputSize:
    def test_figure_14_ordering(self):
        """|N_{}| ≥ |N_{pcn}| ≥ |N_{ssn}| ≥ |r| — the shape of Fig. 14(b)."""
        relation = generate_incumben(config=IncumbenConfig(size=400, seed=2))
        none = len(normalize(relation, relation, ()))
        pcn = len(normalize(relation, relation, ("pcn",)))
        ssn = len(normalize(relation, relation, ("ssn",)))
        assert none >= pcn >= ssn >= len(relation)
        assert none > ssn  # strict on any realistically overlapping dataset
