"""Interval-timestamped tuples.

A tuple over schema ``R = (A1, ..., Am, T)`` holds one value per nontemporal
attribute and a single half-open valid-time interval (Sec. 3.1).  Tuples are
immutable and hashable so they can be placed into Python sets — the algebra
is set based.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

from repro.relation.errors import SchemaError
from repro.relation.schema import Schema
from repro.temporal.interval import Interval


class _NullType:
    """Singleton representing the SQL null value (the paper's ``ω``).

    Outer joins pad dangling tuples with ``NULL``; like SQL's ``NULL`` it is
    distinct from every ordinary value, but unlike SQL we let
    ``NULL == NULL`` hold so that nulls behave predictably under grouping and
    duplicate elimination (PostgreSQL does the same for ``GROUP BY`` and
    ``DISTINCT``).
    """

    _instance: Optional[_NullType] = None

    def __new__(cls) -> _NullType:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ω"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullType)

    def __hash__(self) -> int:
        return hash("repro.NULL")

    def __lt__(self, other: object) -> bool:
        # Nulls sort first; this keeps sort-based operators total.
        return not isinstance(other, _NullType)

    def __gt__(self, other: object) -> bool:
        return False


#: The null value ω used to pad dangling tuples of outer joins.
NULL = _NullType()


def is_null(value: Any) -> bool:
    """Return ``True`` when ``value`` is the null value ``ω`` (or ``None``)."""
    return value is None or isinstance(value, _NullType)


def compare_values(a: Any, b: Any) -> int:
    """Total order over heterogeneous values: nulls first, then by value.

    Values of incomparable types are ordered by type name, which keeps the
    order total without failing on mixed columns (the engine is dynamically
    typed): ``ORDER BY``, ``MIN``/``MAX`` and ordering comparisons across
    types all follow it.
    """
    a_null = is_null(a)
    b_null = is_null(b)
    if a_null and b_null:
        return 0
    if a_null:
        return -1
    if b_null:
        return 1
    try:
        if a < b:
            return -1
        if b < a:
            return 1
        return 0
    except TypeError:
        a_key, b_key = type(a).__name__, type(b).__name__
        return -1 if a_key < b_key else (1 if b_key < a_key else 0)


class TemporalTuple:
    """An immutable tuple of nontemporal values plus one valid-time interval.

    ``values`` are positionally aligned with the schema's nontemporal
    attributes.  Access by attribute name goes through the schema.

    >>> schema = Schema(["name"])
    >>> t = TemporalTuple(schema, ("Ann",), Interval(0, 7))
    >>> t["name"]
    'Ann'
    >>> t.interval
    Interval(0, 7)
    """

    __slots__ = ("schema", "values", "interval")

    def __init__(self, schema: Schema, values: Sequence[Any], interval: Interval):
        if len(values) != len(schema):
            raise SchemaError(
                f"tuple has {len(values)} values but schema {schema!r} expects {len(schema)}"
            )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "interval", interval)

    # -- immutability -----------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TemporalTuple instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("TemporalTuple instances are immutable")

    def __reduce__(self):
        # The immutability guard breaks slot-based pickling and copying;
        # reconstruct through the constructor instead.
        return (TemporalTuple, (self.schema, self.values, self.interval))

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        rendered = ", ".join(repr(v) for v in self.values)
        return f"({rendered}, {self.interval})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalTuple):
            return NotImplemented
        return self.values == other.values and self.interval == other.interval

    def __hash__(self) -> int:
        return hash((self.values, self.interval))

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, int):
            return self.values[key]
        if key == self.schema.timestamp:
            return self.interval
        return self.values[self.schema.index_of(key)]

    # -- accessors ---------------------------------------------------------

    @property
    def start(self) -> int:
        """Inclusive start point of the valid-time interval (``Ts``)."""
        return self.interval.start

    @property
    def end(self) -> int:
        """Exclusive end point of the valid-time interval (``Te``)."""
        return self.interval.end

    def value(self, name: str) -> Any:
        """Value of nontemporal attribute ``name``."""
        return self.values[self.schema.index_of(name)]

    def values_of(self, names: Iterable[str]) -> Tuple[Any, ...]:
        """Values of several nontemporal attributes, in the given order."""
        return tuple(self.values[self.schema.index_of(n)] for n in names)

    def as_dict(self) -> dict:
        """Attribute-name → value mapping, timestamp included."""
        mapping = dict(zip(self.schema.attribute_names, self.values))
        mapping[self.schema.timestamp] = self.interval
        return mapping

    # -- predicates ---------------------------------------------------------

    def value_equivalent(self, other: TemporalTuple) -> bool:
        """``True`` iff both tuples agree on all nontemporal attributes."""
        return self.values == other.values

    def overlaps(self, other: TemporalTuple) -> bool:
        """``True`` iff the valid-time intervals share a time point."""
        return self.interval.overlaps(other.interval)

    def valid_at(self, point: int) -> bool:
        """``True`` iff ``point`` lies inside the valid-time interval."""
        return point in self.interval

    def is_padded(self, attribute_names: Iterable[str]) -> bool:
        """``True`` iff all listed attributes carry the null value ``ω``."""
        return all(is_null(self.value(n)) for n in attribute_names)

    # -- derivation ---------------------------------------------------------

    def with_interval(self, interval: Interval) -> TemporalTuple:
        """Copy of the tuple with a different valid-time interval."""
        return TemporalTuple(self.schema, self.values, interval)

    def with_schema(self, schema: Schema) -> TemporalTuple:
        """Copy of the tuple re-attached to an equal-length schema."""
        return TemporalTuple(schema, self.values, self.interval)

    def project(self, names: Sequence[str], schema: Optional[Schema] = None) -> TemporalTuple:
        """Copy with only the listed attributes (in the listed order)."""
        target = schema if schema is not None else self.schema.project(names)
        return TemporalTuple(target, self.values_of(names), self.interval)

    def concat(
        self, other: TemporalTuple, schema: Schema, interval: Optional[Interval] = None
    ) -> TemporalTuple:
        """Concatenate two tuples under ``schema`` (join result construction)."""
        joined = self.values + other.values
        return TemporalTuple(schema, joined, interval if interval is not None else self.interval)

    @classmethod
    def from_mapping(
        cls, schema: Schema, mapping: Mapping[str, Any], interval: Interval
    ) -> TemporalTuple:
        """Build a tuple from an attribute-name → value mapping."""
        return cls(schema, tuple(mapping[a] for a in schema.attribute_names), interval)
