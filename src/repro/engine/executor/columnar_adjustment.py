"""Columnar batch execution of an adjustment (ALIGN/NORMALIZE) subtree.

Where the serial plan streams a group-construction join through project,
sort and the plane sweep (Fig. 12(b)), :class:`ColumnarAdjustmentNode`
takes both inputs as arrays — interval bounds plus dictionary-encoded
equality keys — and produces the full output in one batched kernel pass
(:mod:`repro.columnar`).  The planner plans this node for every
adjustment — at any input size, whatever θ is, with NumPy kernels or their
pure-Python twins (:func:`~repro.columnar.rows.kernel_mode`) — unless
``enable_columnar`` is off, and it appears in ``EXPLAIN`` as
``ColumnarAdjustment(...)``.  The part of an alignment's θ beyond
its key equalities — the *residual*, flagged ``, residual`` in EXPLAIN —
filters the kernel's candidate pairs: as a NumPy mask where it compiles,
else per pair with the bound expression the row join would evaluate.

The arrays have two sources (see :mod:`repro.columnar.rows`).  When both
inputs are bare scans of registered relations, they are the frames cached
on the relations, read at execution time like the scans would be, and the
child scans are never pulled (*frame* input); every other input is drained
and encoded per execution (*rows* input).  Both feed the same kernel call
and row builder, so the source changes the cost, never the result.

Drained rows whose bounds are not all ``int64`` integers (floats, fractions,
strings) run the pure-Python kernels over their raw values; there is no
other route.  A traced execution (``EXPLAIN ANALYZE``) annotates the span
with the kernels and the input that ran.

The kernel's output is a :class:`~repro.columnar.batch.Batch`; iterating the
node materializes it, while a batch consumer above (ABSORB, GROUP BY, the
``r.T = s.T`` join) takes it as it is through :meth:`PhysicalNode.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.columnar.batch import Batch
from repro.columnar.rows import (
    AdjustmentArrays,
    arrays_from_frames,
    arrays_from_rows,
    batch_from_arrays,
    kernel_mode,
)
from repro.columnar.runtime import numpy_available
from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.executor.scan import SeqScanNode
from repro.engine.expressions import Expression
from repro.engine.table import relation_rows
from repro.obs import trace as obs_trace
from repro.relation.relation import TemporalRelation


@dataclass(frozen=True)
class AdjustmentTask:
    """One ALIGN/NORMALIZE as the kernels read it: plain data.

    ``left_columns``/``right_columns`` are the node's inputs (the argument,
    and the reference or its split-point projection); ``key_pairs`` pairs
    their equality-key positions; ``bounds`` are ALIGN's interval-bound
    indexes ``(left ts, left te, right ts, right te)``, ``None`` for
    NORMALIZE.  The output is the first ``group_width`` argument columns
    with ``ts_index``/``te_index`` adjusted.
    """

    left_columns: Tuple[str, ...]
    right_columns: Tuple[str, ...]
    key_pairs: Tuple[Tuple[int, int], ...]
    bounds: Optional[Tuple[int, int, int, int]]
    group_width: int
    ts_index: int
    te_index: int
    isalign: bool
    #: The part of an alignment's θ that key codes and the overlap do not
    #: capture (``None``: nothing), bound against
    #: ``left_columns + right_columns`` and evaluated per candidate pair.
    residual: Optional[Expression] = None


@dataclass(frozen=True)
class ReferenceInput:
    """The reference side as the frame input needs it.

    ``node`` produces the reference *intervals* — for alignment that is the
    node's right child itself, for normalization the input underneath the
    split-point projection — with its equality-key and bound columns at the
    given positions.
    """

    node: PhysicalNode
    key_indexes: Tuple[int, ...]
    ts_index: int
    te_index: int


def _scanned_relation(
    node: PhysicalNode, key_indexes: Sequence[int], ts_index: int, te_index: int
) -> Optional[Tuple[Sequence[Row], TemporalRelation, Tuple[str, ...]]]:
    """``(rows, relation, key attributes)`` when ``node`` can be read as a frame.

    That takes a bare scan of a registered relation, the relation's own
    timestamp as the bounds, and keys among its nontemporal attributes.
    The rows are the relation's current ones, exactly what the scan would
    produce if it ran now.
    """
    relation = node.relation if isinstance(node, SeqScanNode) else None
    if relation is None:
        return None
    attributes = relation.schema.attribute_names
    if (ts_index, te_index) != (len(attributes), len(attributes) + 1):
        return None
    if any(index >= len(attributes) for index in key_indexes):
        return None
    keys = tuple(attributes[index] for index in key_indexes)
    return relation_rows(relation), relation, keys


class ColumnarAdjustmentNode(PhysicalNode):
    """Batch-execute one adjustment over two materialised inputs.

    Parameters
    ----------
    left:
        Producer of the argument rows (the ``r`` side; its columns are the
        output columns with the interval bounds adjusted).
    right:
        Producer of the reference rows — the raw reference input for
        alignment, the split-point projection for normalization (the same
        shape the serial pipeline consumes).
    task:
        The :class:`AdjustmentTask` describing bounds, keys and kind.
    reference:
        For a normalization, the input whose split points ``right`` projects
        (an alignment reads the same facts off ``right`` and ``task``).
        Without it only the drained-row input is available.
    """

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        task: AdjustmentTask,
        reference: Optional[ReferenceInput] = None,
    ):
        columns = list(task.left_columns[: task.group_width])
        super().__init__(columns, [left, right])
        self.left = left
        self.right = right
        self.task = task
        if reference is None and task.isalign and task.bounds is not None:
            reference = ReferenceInput(
                right, tuple(j for _, j in task.key_pairs), task.bounds[2], task.bounds[3]
            )
        self.reference = reference

    def _frame_arrays(self) -> Optional[AdjustmentArrays]:
        """Kernel input from the relations' cached frames, when both inputs
        qualify (:func:`_scanned_relation`) and NumPy holds the frames."""
        reference, task = self.reference, self.task
        if reference is None or not numpy_available():
            return None
        argument = _scanned_relation(
            self.left, [i for i, _ in task.key_pairs], task.ts_index, task.te_index
        )
        if argument is None:
            return None
        other = _scanned_relation(
            reference.node, reference.key_indexes, reference.ts_index, reference.te_index
        )
        if other is None:
            return None
        rows, relation, keys = argument
        return arrays_from_frames(rows, relation, keys, *other)

    def rows(self) -> Iterator[Row]:
        yield from self._execute().materialize()

    def produce_batch(self) -> Optional[Batch]:
        # The batch forms above need NumPy; without it they get rows.
        if not numpy_available():
            return None
        return self._execute()

    def _execute(self) -> Batch:
        # Runtime facts go on the trace span (``executed=numpy|python``,
        # ``input=frame|rows``, and for a residual θ ``residual=numpy|pairs
        # pairs=… kept=…``), never on the node, so which kernels ran is
        # visible in EXPLAIN ANALYZE without leaking state between
        # executions.
        facts: Dict[str, Any] = {}
        source = "frame"
        arrays = self._frame_arrays()
        if arrays is None:
            source = "rows"
            arrays = arrays_from_rows(self.task, list(self.left), list(self.right))
        batch = batch_from_arrays(self.task, arrays, facts)
        obs_trace.annotate(self, executed=kernel_mode(arrays), input=source, **facts)
        return batch

    def describe(self) -> str:
        kind = "align" if self.task.isalign else "normalize"
        residual = ", residual" if self.task.residual is not None else ""
        return f"ColumnarAdjustment({kind}, keys={len(self.task.key_pairs)}{residual})"
