"""Unit tests for schemas and attributes."""

import pytest

from repro.relation.errors import SchemaError
from repro.relation.schema import Attribute, Schema


class TestAttribute:
    def test_basic(self):
        attribute = Attribute("name", str)
        assert attribute.name == "name"
        assert attribute.type is str

    def test_equality_by_name(self):
        assert Attribute("a", int) == Attribute("a", str)
        assert hash(Attribute("a")) == hash(Attribute("a", int))

    def test_invalid_name(self):
        with pytest.raises(SchemaError):
            Attribute("")


class TestSchema:
    def test_attribute_names_and_lookup(self):
        schema = Schema(["a", Attribute("b")])
        assert schema.attribute_names == ("a", "b")
        assert schema.index_of("b") == 1
        assert schema.indexes_of(["b", "a"]) == [1, 0]
        assert "a" in schema
        assert len(schema) == 2

    @pytest.mark.parametrize("names", [(), ("b",), ("c", "a")], ids=["none", "one", "two"])
    def test_key_getter_matches_values_of(self, names):
        schema = Schema(["a", "b", "c"])
        key_of = schema.key_getter(names)
        values = ("x", 1, None)
        assert key_of(values) == tuple(values[schema.index_of(n)] for n in names)
        assert isinstance(key_of(values), tuple)

    def test_key_getter_rejects_unknown_name(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).key_getter(["z"])

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).index_of("zzz")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_timestamp_collision_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["T"], timestamp="T")

    def test_union_compatibility(self):
        assert Schema(["a", "b"]).union_compatible_with(Schema(["a", "b"]))
        assert not Schema(["a", "b"]).union_compatible_with(Schema(["b", "a"]))
        assert not Schema(["a"]).union_compatible_with(Schema(["a", "b"]))

    def test_project(self):
        schema = Schema(["a", "b", "c"]).project(["c", "a"])
        assert schema.attribute_names == ("c", "a")

    def test_project_unknown(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).project(["b"])

    def test_rename(self):
        schema = Schema(["a", "b"]).rename({"a": "x"})
        assert schema.attribute_names == ("x", "b")

    def test_extend(self):
        schema = Schema(["a"]).extend(["U"])
        assert schema.attribute_names == ("a", "U")

    def test_extend_collision(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).extend(["a"])

    def test_concat_disambiguates(self):
        schema = Schema(["a", "b"]).concat(Schema(["b", "c"]))
        assert schema.attribute_names == ("a", "b", "b_2", "c")

    def test_concat_strict(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).concat(Schema(["a"]), disambiguate=False)

    def test_has_attributes(self):
        assert Schema(["a", "b"]).has_attributes(["a"])
        assert not Schema(["a", "b"]).has_attributes(["a", "z"])
