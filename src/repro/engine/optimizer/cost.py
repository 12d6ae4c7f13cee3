"""Cost model.

Costs are abstract units combining per-row CPU work.  No plan depends on
them — the planner picks every operator by rule — so they annotate EXPLAIN
(``rows=… cost=…``); the one decision taken by comparing two costs is a
stale view's :func:`maintenance_strategy`.  The estimates for the two
temporal nodes follow Sec. 6.2/6.3 of the paper literally:

* alignment: ``numRows = 3 · input rows``,
  ``cost = input cost + 2 · cpu_op_cost · input rows · numCols``;
* normalization: ``numRows = 2 · input rows``,
  ``cost = input cost + cpu_op_cost · input rows · numCols``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Cost charged per tuple-level operation (PostgreSQL's ``cpu_operator_cost``).
CPU_OPERATOR_COST = 0.0025
#: Cost charged per emitted tuple (PostgreSQL's ``cpu_tuple_cost``).
CPU_TUPLE_COST = 0.01
#: Cost charged per scanned base-table row (stand-in for page I/O).
SEQ_SCAN_COST_PER_ROW = 0.01
#: Default selectivity of a non-equality predicate.
DEFAULT_SELECTIVITY = 0.33
#: Default selectivity of an equality predicate.
EQUALITY_SELECTIVITY = 0.005
#: Fixed per-delta work assumed by the view-maintenance cost model on top of
#: the logarithmic index probes (fragment rewrite, bookkeeping).  The
#: crossover between incremental maintenance and full recompute moves with
#: this constant: larger values fall back to recompute earlier.
VIEW_DELTA_OVERHEAD = 16.0


@dataclass
class Estimate:
    """Estimated output cardinality and total cost of a (sub)plan."""

    rows: float
    cost: float


def scan_cost(rows: int) -> Estimate:
    return Estimate(rows=float(rows), cost=rows * SEQ_SCAN_COST_PER_ROW)


def filter_cost(child: Estimate, selectivity: float) -> Estimate:
    rows = max(1.0, child.rows * selectivity)
    return Estimate(rows=rows, cost=child.cost + CPU_OPERATOR_COST * child.rows)


def project_cost(child: Estimate, width: int) -> Estimate:
    return Estimate(
        rows=child.rows,
        cost=child.cost + CPU_OPERATOR_COST * child.rows * max(1, width),
    )


def sort_cost(child: Estimate) -> Estimate:
    rows = max(2.0, child.rows)
    return Estimate(
        rows=child.rows,
        cost=child.cost + CPU_OPERATOR_COST * rows * math.log2(rows),
    )


def join_cost(left: Estimate, right: Estimate, keyed: bool, kind: str) -> Estimate:
    """Output rows and cost of a join, whichever operator runs it.

    The planner picks the join operator by rule, so this estimate only
    annotates EXPLAIN: a keyed join probes ``left + right`` rows, an
    unkeyed one compares every pair.
    """
    selectivity = EQUALITY_SELECTIVITY if keyed else DEFAULT_SELECTIVITY
    rows = left.rows * right.rows * selectivity
    if kind in ("left", "full", "anti", "semi"):
        rows = max(rows, left.rows)
    if kind in ("right", "full"):
        rows = max(rows, right.rows)
    rows = max(1.0, rows)
    compared = left.rows + right.rows if keyed else left.rows * max(1.0, right.rows)
    return Estimate(
        rows=rows,
        cost=left.cost + right.cost + CPU_OPERATOR_COST * compared + CPU_TUPLE_COST * rows,
    )


def aggregate_cost(child: Estimate, groups_hint: float = 0.1) -> Estimate:
    rows = max(1.0, child.rows * groups_hint)
    return Estimate(rows=rows, cost=child.cost + CPU_OPERATOR_COST * child.rows)


def distinct_cost(child: Estimate) -> Estimate:
    return Estimate(rows=max(1.0, child.rows * 0.9),
                    cost=child.cost + CPU_OPERATOR_COST * child.rows)


def setop_cost(left: Estimate, right: Estimate, kind: str) -> Estimate:
    rows = left.rows + right.rows if kind in ("union", "union_all") else left.rows
    return Estimate(
        rows=max(1.0, rows),
        cost=left.cost + right.cost + CPU_OPERATOR_COST * (left.rows + right.rows),
    )


def alignment_cost(child: Estimate, width: int) -> Estimate:
    """Sec. 6.2: every input tuple can produce up to three output tuples."""
    rows = 3.0 * child.rows
    return Estimate(
        rows=max(1.0, rows),
        cost=child.cost + 2 * CPU_OPERATOR_COST * child.rows * max(1, width),
    )


def normalization_cost(child: Estimate, width: int) -> Estimate:
    """Sec. 6.3: every split point can produce up to two output tuples."""
    rows = 2.0 * child.rows
    return Estimate(
        rows=max(1.0, rows),
        cost=child.cost + CPU_OPERATOR_COST * child.rows * max(1, width),
    )


def view_scan_cost(rows: float) -> Estimate:
    """Scanning a materialized view: emit the stored tuples, nothing else."""
    rows = max(1.0, rows)
    return Estimate(rows=rows, cost=CPU_TUPLE_COST * rows)


def incremental_maintenance_cost(pending: int, base_rows: int, reference_rows: int) -> Estimate:
    """Cost of folding ``pending`` deltas into a materialized adjustment view.

    Each delta pays a ``log n + log m`` term (finding the affected base
    tuples, then re-fragmenting them through the kernels against the
    reference rows that share their keys) plus a fixed bookkeeping overhead
    (``VIEW_DELTA_OVERHEAD``).  Deliberately
    pessimistic about fan-out so that near-full-relation delta batches lose
    against :func:`full_recompute_cost` and the catalog falls back.
    """
    n = max(2.0, float(base_rows))
    m = max(2.0, float(reference_rows))
    per_delta = math.log2(n) + math.log2(m) + VIEW_DELTA_OVERHEAD
    return Estimate(rows=float(pending), cost=CPU_OPERATOR_COST * pending * per_delta)


def full_recompute_cost(base_rows: int, reference_rows: int) -> Estimate:
    """Cost of rebuilding a materialized adjustment view from scratch.

    The sweep bound of the native strategies — ``O((n+m) log(n+m))`` group
    construction plus the ≤3·n output tuples of the alignment estimate
    (Sec. 6.2).
    """
    total = max(2.0, float(base_rows) + float(reference_rows))
    rows = 3.0 * max(1.0, float(base_rows))
    return Estimate(
        rows=rows,
        cost=CPU_OPERATOR_COST * total * math.log2(total) + CPU_TUPLE_COST * rows,
    )


def maintenance_strategy(pending: int, base_rows: int, reference_rows: int) -> str:
    """Decide ``"incremental"`` vs ``"recompute"`` for a stale view.

    The staleness threshold of the view catalog is not a magic constant but
    this cost comparison; tuned cost constants sharpen it.
    """
    if pending <= 0:
        return "incremental"
    incremental = incremental_maintenance_cost(pending, base_rows, reference_rows)
    recompute = full_recompute_cost(base_rows, reference_rows)
    return "incremental" if incremental.cost < recompute.cost else "recompute"


def absorb_cost(child: Estimate) -> Estimate:
    return Estimate(rows=child.rows, cost=child.cost + CPU_OPERATOR_COST * child.rows)


def limit_cost(child: Estimate, count: int) -> Estimate:
    rows = min(child.rows, float(count))
    return Estimate(rows=rows, cost=child.cost)
