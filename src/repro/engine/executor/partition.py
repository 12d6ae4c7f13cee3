"""Partition-parallel execution of the adjustment operators.

The group-construction join of ``ALIGN``/``NORMALIZE`` partitions naturally
by the equality attributes of the θ-condition: two rows can only join (and an
argument row's sweep group can only contain reference rows) when their
equality keys match, so hash-partitioning *both* inputs on those keys splits
the whole ``join → project → sort → plane sweep`` pipeline into independent
units of work.  Because the partition key is a function of the argument row,
every argument row lands in exactly one partition together with all of its
group members — concatenating the per-partition outputs therefore preserves
the contract :class:`~repro.engine.executor.adjustment.AdjustmentNode`
relies on (groups contiguous, sweep columns sorted within each group), and
the merged stream is the same *relation* the serial plan produces.

Two physical operators realise this:

* :class:`PartitionNode` — materialises its child once and splits the rows
  into hash buckets on the key columns (the partitioning uses a stable hash,
  so plans are reproducible across processes and runs);
* :class:`ExchangeNode` — pairs the buckets of its two
  :class:`PartitionNode` children, runs the serial per-partition pipeline
  (described by a picklable :class:`AdjustmentTask`) for each pair — via a
  ``multiprocessing`` worker pool for large inputs, in-process below
  ``inprocess_threshold`` rows or when no pool can be created — and merges
  the partition outputs in partition order.

For columnar tasks the planner can additionally select the **shared-memory
transport** (``use_shm``): instead of hash-bucketing row objects and
pickling them both ways, the exchange encodes both inputs once into
``int64`` columnar frames, partitions them by dictionary key code with a
vectorized take, and ships only segment names + offsets to the workers (see
:mod:`repro.columnar.shm`).  Result rows are decoded at the merge boundary
in the parent.  The pickled-row path below stays the runtime fallback —
non-integer bounds, a disabled/absent shared-memory facility, or a missing
NumPy silently revert to it — and a traced execution (``EXPLAIN ANALYZE``)
annotates the exchange span with the transport that actually ran
(``ship=shm|pickle``).

Order insensitivity is a correctness obligation, not an optimisation detail:
the parallel plan must yield a relation *identical* to the serial plan on
every input.  Tests and the benchmark runner of :mod:`repro.bench` assert
this equality, and CI fails when it breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.parallel import parallel_map_with_mode, partition_hash, stable_hash
from repro.engine.executor.adjustment import AdjustmentNode
from repro.engine.executor.base import PhysicalNode, Row, ValuesNode
from repro.engine.executor.interval_join import IntervalJoinNode
from repro.engine.executor.joins import HashJoinNode, MergeJoinNode, NestedLoopJoinNode
from repro.engine.executor.project import ProjectNode
from repro.engine.executor.sort import SortNode
from repro.engine.expressions import Expression, IndexColumn
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.relation.errors import PlanError

_SHIP_COUNTER = obs_metrics.counter("exchange.ship", label_name="transport")

__all__ = [
    "AdjustmentTask",
    "ExchangeNode",
    "PartitionNode",
    "partition_hash",
    "run_adjustment_task",
    "stable_hash",
]


class PartitionNode(PhysicalNode):
    """Hash-partition the child's rows on a list of key column indexes.

    Iterating the node yields all child rows (partition by partition), so it
    behaves as a transparent pass-through in a plain pipeline; the parallel
    consumer (:class:`ExchangeNode`) calls :meth:`partitions` instead to get
    the buckets.  Rows whose key contains a null are routed like any other —
    null keys never satisfy an equality θ, so they can only contribute
    dangling (outer-join) output, which any partition produces correctly.
    """

    def __init__(self, child: PhysicalNode, key_indexes: Sequence[int], partition_count: int):
        if partition_count < 1:
            raise PlanError(f"partition count must be positive, got {partition_count}")
        for index in key_indexes:
            if not (0 <= index < len(child.columns)):
                raise PlanError(
                    f"partition key index {index} out of range for {len(child.columns)} columns"
                )
        super().__init__(child.columns, [child])
        self.child = child
        self.key_indexes = list(key_indexes)
        self.partition_count = partition_count

    def partitions(self) -> List[List[Row]]:
        """Materialise the child and split its rows into hash buckets."""
        buckets: List[List[Row]] = [[] for _ in range(self.partition_count)]
        key_indexes = self.key_indexes
        count = self.partition_count
        for row in self.child:
            key = tuple(row[i] for i in key_indexes)
            buckets[partition_hash(key) % count].append(row)
        return buckets

    def rows(self) -> Iterator[Row]:
        for bucket in self.partitions():
            yield from bucket

    def describe(self) -> str:
        return f"Partition(keys={self.key_indexes}, partitions={self.partition_count})"


@dataclass(frozen=True)
class AdjustmentTask:
    """Picklable description of the serial per-partition adjustment pipeline.

    A worker process receives one task plus the rows of one partition pair
    and rebuilds ``join → project → sort → AdjustmentNode`` locally — the
    exact plan shape of Fig. 12(b), just over a fraction of the input.  All
    fields are plain data or :class:`~repro.engine.expressions.Expression`
    trees, both of which pickle.
    """

    left_columns: Tuple[str, ...]
    right_columns: Tuple[str, ...]
    join_strategy: str  # "hash" | "merge" | "nestloop" | "probe" | "sweep"
    join_kind: str
    condition: Optional[Expression]
    key_pairs: Tuple[Tuple[int, int], ...]
    bounds: Optional[Tuple[int, int, int, int]]  # interval-join bound indexes
    projections: Tuple[Tuple[Expression, str], ...]
    sort_width: int  # leading output columns forming the partition/sort key
    group_width: int
    ts_index: int
    te_index: int
    isalign: bool
    #: Execute the partition through the columnar batch kernels instead of
    #: the row pipeline (set by the planner when the columnar layer is
    #: enabled).  The row pipeline stays the fallback for rows the encoding
    #: cannot batch — either way the partition's output is identical.
    use_columnar: bool = False
    #: The part of an alignment's θ that key codes and the overlap do not
    #: capture (``None``: nothing), bound like ``condition`` against
    #: ``left_columns + right_columns``.  The columnar kernels evaluate it
    #: per candidate pair; the shared-memory exchange cannot (it ships no
    #: values), so inside an ``Exchange`` such a task stays on the row
    #: pipeline (``use_columnar`` off).
    residual: Optional[Expression] = None


def run_adjustment_task(
    task: AdjustmentTask, left_rows: Sequence[Row], right_rows: Sequence[Row]
) -> List[Row]:
    """Run the serial adjustment pipeline over one partition pair.

    This is the worker function of the partition-parallel executor; it is a
    module-level callable so ``multiprocessing`` can address it by reference.

    With ``task.use_columnar`` the partition runs through the columnar batch
    kernels (:mod:`repro.columnar.rows`) — the composition of PR 2's
    partition parallelism with columnar execution: hash partitioning splits
    the work, each worker batches its slice.  Rows the encoding cannot
    batch fall back to the row pipeline below, with identical output.
    """
    if task.use_columnar:
        from repro.columnar.rows import ColumnarUnsupported, adjust_rows_columnar

        try:
            return adjust_rows_columnar(task, left_rows, right_rows)
        except ColumnarUnsupported:
            pass
    left = ValuesNode(task.left_columns, left_rows)
    right = ValuesNode(task.right_columns, right_rows)

    if task.join_strategy in ("probe", "sweep"):
        join: PhysicalNode = IntervalJoinNode(
            left, right, task.join_kind, task.condition, task.bounds, strategy=task.join_strategy
        )
    elif task.join_strategy == "hash":
        join = HashJoinNode(left, right, task.join_kind, task.condition, list(task.key_pairs))
    elif task.join_strategy == "merge":
        join = MergeJoinNode(left, right, task.join_kind, task.condition, list(task.key_pairs))
    else:
        join = NestedLoopJoinNode(left, right, task.join_kind, task.condition)

    projected = ProjectNode(join, list(task.projections))
    keys = [(IndexColumn(i), True) for i in range(task.sort_width)]
    sorted_node = SortNode(projected, keys)
    adjustment = AdjustmentNode(
        sorted_node,
        group_width=task.group_width,
        ts_index=task.ts_index,
        te_index=task.te_index,
        isalign=task.isalign,
    )
    return adjustment.execute()


def _run_payload(payload: Tuple[AdjustmentTask, Sequence[Row], Sequence[Row]]) -> List[Row]:
    task, left_rows, right_rows = payload
    return run_adjustment_task(task, left_rows, right_rows)


class ExchangeNode(PhysicalNode):
    """Run the adjustment pipeline per partition pair and merge the outputs.

    Parameters
    ----------
    left, right:
        The two :class:`PartitionNode` inputs (argument and reference side of
        the group-construction join), with equal ``partition_count``.
    task:
        The per-partition pipeline (see :class:`AdjustmentTask`).
    workers:
        Size of the worker pool; values below 2 always run in-process.
    inprocess_threshold:
        Minimum total input rows before a pool is spawned — small inputs are
        cheaper to process serially than to ship to workers (the runtime
        analogue of the planner's cost gate).

    The merged output concatenates partition results in partition order,
    which is deterministic thanks to the stable partition hash.  If the pool
    cannot be created or a payload does not pickle (e.g. an opaque predicate
    closure), execution transparently falls back to the in-process path —
    the plan's result never depends on where it ran.
    """

    def __init__(
        self,
        left: PartitionNode,
        right: PartitionNode,
        task: AdjustmentTask,
        workers: int,
        inprocess_threshold: int = 2048,
        use_shm: bool = False,
    ):
        if left.partition_count != right.partition_count:
            raise PlanError(
                f"exchange inputs disagree on partition count: "
                f"{left.partition_count} vs {right.partition_count}"
            )
        columns = list(task.left_columns[: task.group_width])
        super().__init__(columns, [left, right])
        self.left = left
        self.right = right
        self.task = task
        self.workers = workers
        self.inprocess_threshold = inprocess_threshold
        #: Ship partitions as shared-memory columnar frames instead of
        #: pickled rows (set by the planner; requires ``task.use_columnar``).
        #: The pickled-row path remains the runtime fallback for rows the
        #: encoding cannot batch or hosts without shared memory.
        self.use_shm = use_shm
        #: Segment registry of the last shared-memory execution (``None``
        #: otherwise).  Cleanup already ran by the time execution returns;
        #: tests use ``shm_registry.handed_out`` to prove no segment leaked.
        #: Never rendered in EXPLAIN, so re-execution cannot show stale state.
        self.shm_registry = None

    def rows(self) -> Iterator[Row]:
        # Runtime placement decisions (``executed=``, ``ship=``) are recorded
        # on the active trace's span — not on the node — so repeated
        # executions of one plan can't show stale annotations.
        if self.use_shm and self.task.use_columnar:
            from repro.columnar.rows import ColumnarUnsupported
            from repro.columnar.shm import ShmUnavailable, shm_adjustment

            try:
                output, effective_mode, self.shm_registry = shm_adjustment(
                    self.task,
                    list(self.left.child),
                    list(self.right.child),
                    workers=self.workers,
                    partitions=self.left.partition_count,
                    min_items=self.inprocess_threshold,
                )
            except (ShmUnavailable, ColumnarUnsupported):
                pass  # fall through to the pickled-row transport
            else:
                obs_trace.annotate(self, executed=effective_mode, ship="shm")
                _SHIP_COUNTER.inc(label="shm")
                yield from output
                return
        left_buckets = self.left.partitions()
        right_buckets = self.right.partitions()
        # Partitions without argument rows cannot produce output: the group
        # construction is a left join, so reference-only buckets are dropped.
        jobs = [
            (self.task, left_buckets[i], right_buckets[i])
            for i in range(self.left.partition_count)
            if left_buckets[i]
        ]
        total_rows = sum(len(lp) + len(rp) for _, lp, rp in jobs)
        # parallel_map owns the placement policy (pool vs in-process, fork
        # preference, fallback when a payload cannot be shipped) and reports
        # the placement it chose.
        results, effective_mode = parallel_map_with_mode(
            _run_payload,
            jobs,
            workers=self.workers,
            total_items=total_rows,
            min_items=self.inprocess_threshold,
        )
        obs_trace.annotate(self, executed=effective_mode, ship="pickle")
        _SHIP_COUNTER.inc(label="pickle")
        for result in results:
            yield from result

    def describe(self) -> str:
        kind = "align" if self.task.isalign else "normalize"
        kernel = ", kernel=columnar" if self.task.use_columnar else ""
        return (
            f"Exchange({kind}, workers={self.workers}, "
            f"partitions={self.left.partition_count}, join={self.task.join_strategy}"
            f"{kernel})"
        )
