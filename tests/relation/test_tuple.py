"""Unit tests for interval-timestamped tuples and the null value ω."""

import copy
import pickle

import pytest

from repro.relation.errors import SchemaError
from repro.relation.schema import Schema
from repro.relation.tuple import NULL, TemporalTuple, is_null
from repro.temporal.interval import Interval


@pytest.fixture
def schema():
    return Schema(["n", "price"])


@pytest.fixture
def tuple_(schema):
    return TemporalTuple(schema, ("Ann", 40), Interval(1, 6))


class TestNull:
    def test_singleton(self):
        from repro.relation.tuple import _NullType

        assert _NullType() is NULL

    def test_equality_and_hash(self):
        assert NULL == NULL
        assert not NULL == 0  # noqa: SIM201  (exercises __eq__; != would test __ne__)
        assert hash(NULL) == hash(NULL)

    def test_is_null(self):
        assert is_null(NULL)
        assert is_null(None)
        assert not is_null(0)
        assert not is_null("")

    def test_falsy_and_repr(self):
        assert not NULL
        assert repr(NULL) == "ω"

    def test_sorts_before_values(self):
        assert sorted([3, NULL, 1], key=lambda v: (not is_null(v), v if not is_null(v) else 0))[0] is NULL


class TestTemporalTuple:
    def test_width_checked(self, schema):
        with pytest.raises(SchemaError):
            TemporalTuple(schema, ("Ann",), Interval(0, 1))

    def test_accessors(self, tuple_):
        assert tuple_["n"] == "Ann"
        assert tuple_[1] == 40
        assert tuple_["T"] == Interval(1, 6)
        assert tuple_.value("price") == 40
        assert tuple_.values_of(["price", "n"]) == (40, "Ann")
        assert tuple_.start == 1 and tuple_.end == 6

    def test_as_dict(self, tuple_):
        assert tuple_.as_dict() == {"n": "Ann", "price": 40, "T": Interval(1, 6)}

    def test_immutable(self, tuple_):
        with pytest.raises(AttributeError):
            tuple_.values = ()

    def test_pickle_and_deepcopy_round_trip(self, tuple_):
        for restored in (pickle.loads(pickle.dumps(tuple_)), copy.deepcopy(tuple_)):
            assert restored == tuple_
            assert restored.interval == Interval(1, 6)

    def test_equality_and_hash(self, schema):
        a = TemporalTuple(schema, ("Ann", 40), Interval(1, 6))
        b = TemporalTuple(schema, ("Ann", 40), Interval(1, 6))
        c = TemporalTuple(schema, ("Ann", 40), Interval(1, 7))
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_value_equivalence_and_overlap(self, schema):
        a = TemporalTuple(schema, ("Ann", 40), Interval(1, 6))
        b = TemporalTuple(schema, ("Ann", 40), Interval(5, 9))
        c = TemporalTuple(schema, ("Joe", 40), Interval(5, 9))
        assert a.value_equivalent(b)
        assert not a.value_equivalent(c)
        assert a.overlaps(b)
        assert a.valid_at(5) and not a.valid_at(6)

    def test_is_padded(self, schema):
        padded = TemporalTuple(schema, ("Ann", NULL), Interval(0, 1))
        assert padded.is_padded(["price"])
        assert not padded.is_padded(["n", "price"])

    def test_with_interval_and_project(self, tuple_):
        moved = tuple_.with_interval(Interval(2, 3))
        assert moved.values == tuple_.values and moved.interval == Interval(2, 3)
        projected = tuple_.project(["price"])
        assert projected.values == (40,)
        assert projected.interval == tuple_.interval

    def test_concat(self, schema):
        other_schema = Schema(["x"])
        joined_schema = schema.concat(other_schema)
        left = TemporalTuple(schema, ("Ann", 40), Interval(1, 6))
        right = TemporalTuple(other_schema, (7,), Interval(2, 4))
        combined = left.concat(right, joined_schema, Interval(2, 4))
        assert combined.values == ("Ann", 40, 7)
        assert combined.interval == Interval(2, 4)

    def test_from_mapping(self, schema):
        t = TemporalTuple.from_mapping(schema, {"n": "Joe", "price": 30}, Interval(0, 2))
        assert t.values == ("Joe", 30)
