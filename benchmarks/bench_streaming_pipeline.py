"""Streaming executor and repeated-reference alignment benchmarks.

Two measurements, both with built-in correctness cross-checks:

1. **Limit-over-join short-circuits.**  A ``LIMIT k`` consumer over a join
   pipeline pulls only the upstream work its ``k`` rows require; the
   materialise-everything execution pays for the full join output first.  The
   harness times both on the same plan, reports tuples/sec and the number of
   rows pulled from the base tables (via
   :class:`~repro.engine.executor.instrument.CountingNode`), asserts the
   results are identical and that streaming is at least 2× faster.

2. **Repeated references: the kernels against the sweep.**  Aligning a
   stream of small query relations against one shared reference re-sorts
   the reference on every call under the plane sweep; the default
   ``"columnar"`` strategy reuses the reference's cached frame but still
   re-ranks its endpoints per call.  The harness asserts identical results
   and reports both timings (no speed bar: the two are within run-to-run
   noise of each other).

Run with the other harnesses::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_streaming_pipeline.py -s
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, List, Tuple

from benchmarks._util import scaled
from repro import Interval, Schema, TemporalRelation
from repro.core.alignment import align_relation
from repro.engine.executor import (
    CountingNode,
    HashJoinNode,
    LimitNode,
    SeqScanNode,
)
from repro.engine.expressions import Column, Comparison
from repro.engine.table import Table

#: Wall-clock speedup assertions are meaningful on a quiet machine but can
#: flake on loaded shared CI runners; ``REPRO_BENCH_STRICT=0`` downgrades
#: them to reported numbers while keeping the deterministic row-pull and
#: result-equality assertions hard.
STRICT_TIMING = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

JOIN_SIZE = scaled([4000])[0]
LIMIT_K = 10
REFERENCE_SIZE = scaled([3000])[0]
QUERY_COUNT = 30
QUERY_SIZE = 40


def _best_of(runs: int, action: Callable[[], object]) -> Tuple[float, object]:
    """Minimum wall-clock of ``runs`` executions (and the last result)."""
    best = float("inf")
    result: object = None
    for _ in range(runs):
        started = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - started)
    return best, result


def _join_tables(size: int) -> Tuple[Table, Table]:
    """Two tables joined on ``k`` with a small, uniform fanout."""
    rng = random.Random(2012)
    left_rows = [(i, rng.randrange(size // 8), rng.randrange(100)) for i in range(size)]
    right_rows = [(i, i % (size // 8), rng.randrange(100)) for i in range(size)]
    return (
        Table("l", ("id", "k", "v"), left_rows),
        Table("r", ("id", "k", "v"), right_rows),
    )


def _limit_over_join(size: int, limit: int):
    """Physical pipeline ``Limit(k) ← HashJoin ← counted scans``."""
    left_table, right_table = _join_tables(size)
    left_scan = CountingNode(SeqScanNode("l", left_table, "a"))
    right_scan = CountingNode(SeqScanNode("r", right_table, "b"))
    condition = Comparison("=", Column("a.k"), Column("b.k"))
    join = HashJoinNode(left_scan, right_scan, "inner", condition, key_pairs=[(1, 1)])
    return LimitNode(join, limit), left_scan, right_scan, join


def test_limit_over_join_streaming_vs_materialized():
    """Fig.-style pipelining claim: LIMIT k touches O(k) of the outer scan."""
    limit, left_scan, right_scan, join = _limit_over_join(JOIN_SIZE, LIMIT_K)

    def run_streaming() -> List[tuple]:
        left_scan.reset()
        right_scan.reset()
        return list(limit)

    def run_materialized() -> List[tuple]:
        # The pre-streaming behaviour: materialise the full join output, then
        # truncate — what a caller got from ``execute()`` on every node.
        left_scan.reset()
        right_scan.reset()
        return join.execute()[:LIMIT_K]

    streaming_time, streaming_rows = _best_of(3, run_streaming)
    streaming_pulled = left_scan.pulled + right_scan.pulled
    materialized_time, materialized_rows = _best_of(3, run_materialized)
    materialized_pulled = left_scan.pulled + right_scan.pulled

    assert streaming_rows == materialized_rows
    # The hash build must drain the inner scan either way, but the streaming
    # pipeline stops the outer scan after O(k) rows.
    assert left_scan.pulled == JOIN_SIZE  # materialised run: full outer scan
    assert streaming_pulled < materialized_pulled
    speedup = materialized_time / max(streaming_time, 1e-9)
    joined_rows = sum(1 for _ in join)
    print(
        f"\n[limit-over-join] size={JOIN_SIZE} k={LIMIT_K} "
        f"join_output={joined_rows} "
        f"streaming={streaming_time * 1e3:.2f}ms ({streaming_pulled} rows pulled) "
        f"materialized={materialized_time * 1e3:.2f}ms ({materialized_pulled} rows pulled) "
        f"speedup={speedup:.1f}x "
        f"throughput={joined_rows / max(materialized_time, 1e-9):,.0f} tuples/s full, "
        f"{LIMIT_K / max(streaming_time, 1e-9):,.0f} rows/s to first {LIMIT_K}"
    )
    if STRICT_TIMING:
        assert speedup >= 2.0, f"streaming speedup {speedup:.2f}x below the 2x acceptance bar"


def _random_relation(rng: random.Random, size: int, span: int) -> TemporalRelation:
    relation = TemporalRelation(Schema(["v"]))
    for i in range(size):
        start = rng.randrange(span)
        relation.insert((i,), Interval(start, start + 1 + rng.randrange(20)))
    return relation


def test_repeated_reference_alignment_columnar_vs_sweep():
    """Many small alignments against one shared reference: kernels vs sweep."""
    rng = random.Random(42)
    reference = _random_relation(rng, REFERENCE_SIZE, span=10 * REFERENCE_SIZE)
    queries = [
        _random_relation(random.Random(seed), QUERY_SIZE, span=10 * REFERENCE_SIZE)
        for seed in range(QUERY_COUNT)
    ]

    def run(strategy: str) -> List[TemporalRelation]:
        return [align_relation(q, reference, strategy=strategy) for q in queries]

    sweep_time, sweep_results = _best_of(3, lambda: run("sweep"))
    columnar_time, columnar_results = _best_of(3, lambda: run("columnar"))

    assert all(s == c for s, c in zip(sweep_results, columnar_results))
    output_tuples = sum(len(r) for r in columnar_results)
    print(
        f"\n[repeated-reference align] reference={REFERENCE_SIZE} "
        f"queries={QUERY_COUNT}x{QUERY_SIZE} output={output_tuples} "
        f"sweep={sweep_time * 1e3:.2f}ms columnar={columnar_time * 1e3:.2f}ms "
        f"ratio={sweep_time / max(columnar_time, 1e-9):.2f}x "
        f"throughput={output_tuples / max(columnar_time, 1e-9):,.0f} tuples/s columnar"
    )
