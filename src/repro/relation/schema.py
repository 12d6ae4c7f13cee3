"""Schemas for temporal relations.

A temporal relation schema is ``R = (A1, ..., Am, T)`` where ``A1..Am`` are
the nontemporal attributes and ``T`` is the interval-valued timestamp
(Sec. 3.1 of the paper).  The timestamp is implicit in the schema — every
temporal relation has exactly one — so :class:`Schema` only enumerates the
nontemporal attributes and remembers the name used to render the timestamp.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.relation.errors import SchemaError


class Attribute:
    """A named, optionally typed, nontemporal attribute.

    The type is advisory (used for documentation and for nicer error
    messages); the engine is dynamically typed like SQLite.
    """

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: Optional[type] = None):
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
        self.name = name
        self.type = type

    def __repr__(self) -> str:
        if self.type is None:
            return f"Attribute({self.name!r})"
        return f"Attribute({self.name!r}, {self.type.__name__})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


AttributeLike = Union[str, Attribute]


def _as_attribute(item: AttributeLike) -> Attribute:
    if isinstance(item, Attribute):
        return item
    return Attribute(item)


class Schema:
    """Ordered collection of nontemporal attributes plus the timestamp name.

    >>> schema = Schema(["name"], timestamp="T")
    >>> schema.attribute_names
    ('name',)
    >>> schema.index_of("name")
    0
    """

    __slots__ = ("attributes", "timestamp", "_index", "attribute_names")

    def __init__(self, attributes: Sequence[AttributeLike], timestamp: str = "T"):
        attrs = tuple(_as_attribute(a) for a in attributes)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        if timestamp in names:
            raise SchemaError(
                f"timestamp name {timestamp!r} collides with a nontemporal attribute"
            )
        self.attributes: Tuple[Attribute, ...] = attrs
        self.timestamp = timestamp
        self._index = {name: i for i, name in enumerate(names)}
        #: The nontemporal attribute names, in order.
        self.attribute_names: Tuple[str, ...] = tuple(names)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        names = ", ".join(a.name for a in self.attributes)
        return f"Schema([{names}], timestamp={self.timestamp!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.attribute_names == other.attribute_names

    def __hash__(self) -> int:
        return hash(self.attribute_names)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    # -- interrogation -----------------------------------------------------

    def index_of(self, name: str) -> int:
        """Position of ``name`` among the nontemporal attributes."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.attribute_names)}"
            ) from None

    def indexes_of(self, names: Iterable[str]) -> List[int]:
        """Positions of several attributes (raises on any unknown name)."""
        return [self.index_of(n) for n in names]

    def key_getter(self, names: Iterable[str]) -> Callable[[Tuple[Any, ...]], Tuple[Any, ...]]:
        """``values -> TemporalTuple.values_of(names)`` with the positions
        resolved once — for loops that key every tuple of a relation."""
        positions = self.indexes_of(names)
        if len(positions) == 1:
            (position,) = positions
            return lambda values: (values[position],)
        return itemgetter(*positions) if positions else lambda values: ()

    def has_attributes(self, names: Iterable[str]) -> bool:
        """``True`` iff every name is a nontemporal attribute of the schema."""
        return all(n in self._index for n in names)

    def union_compatible_with(self, other: Schema) -> bool:
        """Union compatibility: same number of attributes, same names, same order.

        The paper requires union compatible arguments for the set operators
        ``{∪, −, ∩}``.
        """
        return self.attribute_names == other.attribute_names

    # -- derivation --------------------------------------------------------

    def project(self, names: Sequence[str]) -> Schema:
        """Schema of a projection onto ``names`` (order as given)."""
        self.indexes_of(names)
        return Schema(list(names), timestamp=self.timestamp)

    def rename(self, mapping: dict) -> Schema:
        """Schema with attributes renamed according to ``mapping``."""
        return Schema(
            [mapping.get(a.name, a.name) for a in self.attributes],
            timestamp=self.timestamp,
        )

    def extend(self, names: Sequence[str]) -> Schema:
        """Schema with additional attributes appended (timestamp propagation)."""
        clash = set(names) & set(self.attribute_names)
        if clash:
            raise SchemaError(f"extension attributes already exist: {sorted(clash)}")
        return Schema(list(self.attribute_names) + list(names), timestamp=self.timestamp)

    def concat(self, other: Schema, disambiguate: bool = True) -> Schema:
        """Schema of a Cartesian product / join result.

        When ``disambiguate`` is true, attributes of ``other`` that clash with
        attributes of ``self`` are suffixed with ``_2`` (and ``_3`` …) so the
        result remains a valid schema — mirroring how the engine labels
        ambiguous join columns.
        """
        names = list(self.attribute_names)
        taken = set(names)
        for name in other.attribute_names:
            candidate = name
            if candidate in taken:
                if not disambiguate:
                    raise SchemaError(f"attribute {name!r} appears in both join inputs")
                suffix = 2
                while f"{name}_{suffix}" in taken:
                    suffix += 1
                candidate = f"{name}_{suffix}"
            names.append(candidate)
            taken.add(candidate)
        return Schema(names, timestamp=self.timestamp)
