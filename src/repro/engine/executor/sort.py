"""Sort operator."""

from __future__ import annotations

import functools
from typing import Iterator, Sequence, Tuple

from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.expressions import Expression
from repro.relation.tuple import compare_values


class SortNode(PhysicalNode):
    """Materialising sort on a list of (expression, ascending) keys."""

    def __init__(self, child: PhysicalNode, keys: Sequence[Tuple[Expression, bool]]):
        super().__init__(child.columns, [child])
        self.child = child
        self.keys = list(keys)
        self._bound = [(expr.bind(child.columns), ascending) for expr, ascending in keys]

    def rows(self) -> Iterator[Row]:
        materialised = list(self.child)
        bound = self._bound

        def compare(left: Row, right: Row) -> int:
            for evaluate, ascending in bound:
                result = compare_values(evaluate(left), evaluate(right))
                if result != 0:
                    return result if ascending else -result
            return 0

        materialised.sort(key=functools.cmp_to_key(compare))
        return iter(materialised)

    def describe(self) -> str:
        return f"Sort({len(self.keys)} keys)"
