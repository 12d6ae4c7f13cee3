"""Base class and trivial physical operators.

The executor follows the Volcano/iterator model, realised with Python
generators: a physical node is an *iterable of rows*, and iterating it pulls
rows from its children on demand.  Nothing runs until a consumer pulls, and a
consumer that stops pulling (``LIMIT``, a ``semi`` join's first-match break)
stops the whole upstream pipeline with it.  This demand-driven behaviour is
what the paper's kernel integration gets for free from PostgreSQL's executor
(Sec. 6.1).

The streaming protocol, which every operator in this package observes:

* :meth:`PhysicalNode.rows` returns a **fresh** iterator over the node's
  output; calling it again restarts the computation (nodes are re-iterable,
  iterators are one-shot).
* An operator only materialises what its algorithm forces it to (sort runs,
  hash build sides, absorb groups); everything else is emitted as soon as it
  is produced.
* ``estimated_rows``/``estimated_cost`` are annotations written by the
  planner; execution never reads them.

Above a ``ColumnarAdjustment`` a second protocol applies: a consumer whose
algorithm is blocking anyway (ABSORB, GROUP BY, the join on ``r.T = s.T``)
asks its child for :meth:`PhysicalNode.batch` — the whole output as columns
(:class:`~repro.columnar.batch.Batch`) — before pulling rows.  ``None``
means the child has no batch form and has done nothing; the consumer then
iterates it as usual.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple

from repro.engine import deadline as _deadline
from repro.obs.trace import _state as _trace_state
from repro.relation.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover
    from repro.columnar.batch import Batch

Row = Tuple[Any, ...]


class PhysicalNode:
    """Base class of physical operators.

    Subclasses set ``columns`` (output column names) and implement
    :meth:`rows`, a generator of value tuples.  ``estimated_rows`` and
    ``estimated_cost`` are filled in by the planner for ``EXPLAIN`` output.

    Args:
        columns: Output column names, in row order.
        children: Input nodes (kept for ``EXPLAIN`` tree rendering).
    """

    def __init__(self, columns: Sequence[str], children: Sequence[PhysicalNode] = ()):
        self.columns: List[str] = list(columns)
        self.children: List[PhysicalNode] = list(children)
        self.estimated_rows: float = 0.0
        self.estimated_cost: float = 0.0

    def rows(self) -> Iterator[Row]:
        """A fresh iterator over the node's output rows.

        Returns:
            Generator of value tuples, produced lazily: pulling a row drives
            exactly as much upstream work as that row requires.
        """
        raise NotImplementedError

    def __iter__(self) -> Iterator[Row]:
        """Iterate the node's output (each iteration restarts the pipeline).

        Every operator pulls from its children through ``iter(child)``, so
        this is the single choke point where an active
        :class:`~repro.obs.trace.QueryTrace` wraps the iterator to record
        wall time and row counts, and where an active statement deadline
        (:mod:`repro.engine.deadline`) wraps it to enforce
        ``statement_timeout_ms``.  With neither active the cost is two
        thread-local reads.
        """
        iterator = self.rows()
        limit = _deadline.active_deadline()
        if limit is not None:
            iterator = _deadline.checked(iterator, limit)
        trace = _trace_state.trace
        if trace is None:
            return iterator
        return trace.instrument(self, iterator)

    def batch(self) -> Optional[Batch]:
        """The node's whole output as a batch, or ``None`` (see the module
        docstring) — the batch twin of :meth:`__iter__`.

        This is the second choke point: an active trace records the batch
        as one loop of ``len(batch)`` rows and its build time, and an
        active statement deadline is checked before and after the build.
        """
        limit = _deadline.active_deadline()
        trace = _trace_state.trace
        if limit is None and trace is None:
            return self.produce_batch()
        if limit is not None:
            _deadline.check(limit)
        started = perf_counter()
        batch = self.produce_batch()
        if batch is not None:
            if trace is not None:
                trace.record_batch(self, len(batch), perf_counter() - started)
            if limit is not None:
                _deadline.check(limit)
        return batch

    def produce_batch(self) -> Optional[Batch]:
        """Build the batch :meth:`batch` hands over; ``None`` without
        touching any input when the node has no batch form (the default)."""
        return None

    def execute(self) -> List[Row]:
        """Materialise the full output (convenience for callers and tests).

        Returns:
            All output rows as a list; prefer iterating the node when the
            consumer may stop early.
        """
        return list(self)

    def explain(self, indent: int = 0) -> str:
        """Physical plan tree with cost estimates (PostgreSQL-style EXPLAIN).

        Args:
            indent: Left margin of the root line (children indent two more).

        Returns:
            Multi-line string, one ``describe()`` plus estimates per node —
            the reproduction's analogue of the plans shown in Fig. 12.
        """
        line = (
            " " * indent
            + f"{self.describe()}  (rows={self.estimated_rows:.0f} cost={self.estimated_cost:.2f})"
        )
        return "\n".join([line] + [c.explain(indent + 2) for c in self.children])

    def describe(self) -> str:
        """One-line label of the node (operator name plus key parameters)."""
        return type(self).__name__


class ValuesNode(PhysicalNode):
    """Inline constant rows."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Row]):
        super().__init__(columns)
        self._rows = [tuple(r) for r in rows]

    def rows(self) -> Iterator[Row]:
        return iter(self._rows)

    def describe(self) -> str:
        return f"Values({len(self._rows)} rows)"


class RelabelNode(PhysicalNode):
    """Pass-through that renames the output columns (subquery aliases)."""

    def __init__(self, child: PhysicalNode, columns: Sequence[str]):
        if len(columns) != len(child.columns):
            raise PlanError(
                f"Relabel expects {len(child.columns)} names, got {len(columns)}"
            )
        super().__init__(columns, [child])
        self.child = child

    def rows(self) -> Iterator[Row]:
        return iter(self.child)

    def produce_batch(self) -> Optional[Batch]:
        return self.child.batch()

    def describe(self) -> str:
        return f"Relabel({', '.join(self.columns)})"
