"""A small relational query engine — the PostgreSQL-kernel stand-in.

The paper implements the temporal primitives *inside* the database kernel so
that they plug into ordinary query processing: the group-construction join is
planned by the optimizer like any other join, the plane-sweep executor
function streams tuples through the pipeline, and the cost model estimates
the new node like any other.  This package reproduces that architecture in
Python:

* :mod:`~repro.engine.table` — tables of plain value rows (the storage layer);
* :mod:`~repro.engine.expressions` — scalar expression AST and evaluation;
* :mod:`~repro.engine.plan` — logical plan nodes;
* :mod:`~repro.engine.executor` — Volcano-style physical operators, including
  :class:`~repro.engine.executor.adjustment.AdjustmentNode`, the
  ``ExecAdjustment`` plane sweep of Fig. 10 used by both ``ALIGN`` and
  ``NORMALIZE``;
* :mod:`~repro.engine.optimizer` — the rule-based planner with the
  ``enable_hashjoin`` / ``enable_mergejoin`` switches of Fig. 13 and
  ``enable_columnar`` (the kernels or the Fig. 12(b) row plan), and the cost
  model whose estimates (the paper's Sec. 6.2/6.3 ones for the temporal
  nodes) annotate EXPLAIN;
* :mod:`~repro.engine.database` — catalog and ``execute`` entry points;
* :mod:`~repro.engine.temporal_plans` — builders that assemble the reduction
  rules of Table 2 as engine plans (what the SQL analyzer emits).
"""

from repro.engine.database import Database
from repro.engine.optimizer.settings import Settings
from repro.engine.table import Table

__all__ = ["Database", "Table", "Settings"]
