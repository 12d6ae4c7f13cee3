"""Physical operators of the query engine (Volcano-style iterators).

Every operator is an iterable of value rows and knows its output column
names.  Operators pull rows from their children lazily wherever the algorithm
allows (pipelining); blocking operators (sort, hash build sides, absorb)
materialise only what they must.

The temporal plane-sweep operator of the paper — the executor function
``ExecAdjustment`` of Fig. 10 — lives in
:mod:`repro.engine.executor.adjustment` and serves both the ``ALIGN`` and the
``NORMALIZE`` plans.
"""

from repro.engine.executor.base import PhysicalNode, RelabelNode, ValuesNode
from repro.engine.executor.scan import SeqScanNode
from repro.engine.executor.filter import FilterNode
from repro.engine.executor.project import ProjectNode
from repro.engine.executor.sort import SortNode
from repro.engine.executor.joins import HashJoinNode, MergeJoinNode, NestedLoopJoinNode
from repro.engine.executor.instrument import CountingNode
from repro.engine.executor.aggregate import HashAggregateNode
from repro.engine.executor.setops import DistinctNode, SetOpNode
from repro.engine.executor.adjustment import AdjustmentNode
from repro.engine.executor.columnar_adjustment import (
    AdjustmentTask,
    ColumnarAdjustmentNode,
    ReferenceInput,
)
from repro.engine.executor.absorb import AbsorbNode
from repro.engine.executor.limit import LimitNode
from repro.engine.executor.view_scan import ViewScanNode

__all__ = [
    "PhysicalNode",
    "ValuesNode",
    "RelabelNode",
    "SeqScanNode",
    "FilterNode",
    "ProjectNode",
    "SortNode",
    "NestedLoopJoinNode",
    "HashJoinNode",
    "MergeJoinNode",
    "CountingNode",
    "HashAggregateNode",
    "DistinctNode",
    "SetOpNode",
    "AdjustmentNode",
    "AdjustmentTask",
    "ColumnarAdjustmentNode",
    "ReferenceInput",
    "AbsorbNode",
    "LimitNode",
    "ViewScanNode",
]
