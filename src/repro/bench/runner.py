"""Benchmark runner: timed scenarios with hard correctness gates.

The strategy scenario (``columnar_adjustment``) runs one adjustment plan
under two execution settings — the pinned row pipeline against the
columnar batch — over one synthetic family at one size, and records:

* wall-clock seconds for both executions (best of ``repeats`` runs);
* the trace-annotated root line of both plans, captured from one extra
  traced run (so the report proves which physical plan actually ran, with
  the ``executed=``/``input=`` facts its span recorded);
* whether the two executions produced the identical relation.

Every report also embeds a snapshot of the process metrics registry
(``repro.obs.metrics``) under the top-level ``"metrics"`` key — the same
counters/histograms ``SHOW METRICS`` and the ``--metrics-port`` endpoint
expose on a live server.

Result equality is a **hard** gate: any mismatch raises
:class:`BenchmarkError` and the process exits non-zero, which is what the CI
``bench`` job keys off.  Timings are always reported, never asserted — wall
clock on shared runners is noise, order insensitivity is not (the
``REPRO_BENCH_STRICT`` convention of the pytest harnesses applies the same
philosophy there).

Reports are JSON files named ``BENCH_<name>.json`` written to the repo root
(or ``--output-dir``); the schema is documented in ``docs/benchmarking.md``.

Usage::

    PYTHONPATH=src python -m repro.bench                    # native scenarios
    PYTHONPATH=src python -m repro.bench --legacy benchmarks/bench_streaming_pipeline.py
    REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python -m repro.bench   # CI scale
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import platform
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro import faults as _faults
from repro.core.alignment import align_relation
from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import LogicalPlan
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.temporal.interval import Interval
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

#: Input-size multiplier shared with the pytest harnesses.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))

#: Per-family input sizes before scaling; every size yields one scenario.
DEFAULT_SIZES = (1000, 2000)

#: Sizes of the columnar scenario: the vectorized kernels show their
#: headline win over the row pipeline on inputs of a few thousand rows.
COLUMNAR_SIZES = (2000, 4000)

FAMILIES: Dict[str, Callable] = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}


class BenchmarkError(AssertionError):
    """A correctness gate of the benchmark harness failed."""


def scaled_sizes(sizes: Sequence[int], scale: float = SCALE) -> List[int]:
    """Scale a size sweep, keeping it deterministic and strictly increasing.

    Mirrors :func:`benchmarks._util.scaled` (kept dependency-free so the
    package works without the pytest harnesses on the path).
    """
    result: List[int] = []
    for size in sizes:
        value = max(10, int(size * scale))
        if result and value <= result[-1]:
            value = result[-1] + 1
        result.append(value)
    return result


def _best_of(repeats: int, action: Callable[[], object]):
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - started)
    return best, result


def _timed_execution(database: Database, plan: LogicalPlan, settings: Settings, repeats: int):
    """Plan and run; returns (seconds, sorted rows, plan root).

    The timed runs execute *untraced* — the report's wall clock measures the
    engine, not the observability layer.  One extra traced run afterwards
    captures the annotated root line: the ``ColumnarAdjustment`` span records
    which kernels and input actually ran (``executed=numpy``,
    ``input=frame``), and the report must show that, not the planned intent.
    """
    physical = database.plan(plan, settings)
    seconds, rows = _best_of(repeats, lambda: list(physical))
    with obs_trace.collect(physical) as trace:
        list(physical)
    root_line = trace.root_span.render().splitlines()[0]
    return seconds, sorted(rows), root_line


def _row_settings() -> Settings:
    """Settings pinning the row pipeline (no columnar).

    The baseline of the strategy comparison: the planner plans a columnar
    batch by default, so an unpinned execution would compare columnar
    against itself.
    """
    return Settings(enable_columnar=False)


#: Measured during the row-mode micro-optimisation of PR 5 (hoisted
#: attribute lookups in ``sweep.overlap_groups`` / ``primitives.align_tuple``);
#: best-of-3 wall clock, random family n=4000, CPython 3.11, dev container.
ROW_MODE_MICRO_OPT_NOTE = {
    "scenario": "row_mode_micro_opt_note",
    "workload": "generate_random(size=4000, categories=100, seed=42), strategy='sweep'",
    "align_keyed_seconds": {"before": 0.0476, "after": 0.0404},
    "align_unkeyed_seconds": {"before": 0.4705, "after": 0.4093},
    "normalize_keyed_seconds": {"before": 0.0267, "after": 0.0245},
}


def run_columnar_adjustment(
    sizes: Optional[Sequence[int]] = None, repeats: int = 2
) -> List[dict]:
    """Row pipeline vs columnar batch ALIGN and NORMALIZE.

    For every synthetic family and size the same equi-θ ALIGN plan runs two
    ways — the pinned row pipeline and the ``ColumnarAdjustment`` batch —
    plus a row-vs-columnar ``N_cat`` normalization.  Hard gates (CI
    enforces these; timings are only reported unless strict):

    * both executions of a plan produce the identical relation;
    * the columnar run's root is a ``ColumnarAdjustment`` node — the
      dispatch must be visible in EXPLAIN, not inferred from timings;
    * under ``REPRO_BENCH_STRICT`` (default on; CI relaxes it) the columnar
      alignment must beat the row pipeline by ≥4x at full-scale sizes.

    Without NumPy the scenario records a skip marker instead of failing:
    the pure-Python kernels exist for correctness, not for speed, and the
    no-NumPy CI job proves them through the test suite.
    """
    from repro.columnar.runtime import numpy_available

    sizes = sizes or scaled_sizes(COLUMNAR_SIZES)
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    scenarios: List[dict] = [dict(ROW_MODE_MICRO_OPT_NOTE)]
    if not numpy_available():
        print("[columnar_adjustment] NumPy unavailable: recording skip marker")
        scenarios.append({"scenario": "columnar_adjustment", "skipped": "numpy unavailable"})
        return scenarios

    for family, generator in sorted(FAMILIES.items()):
        for size in sizes:
            left, right = generator(config=SyntheticConfig(size=size, categories=100, seed=42))
            database = Database()
            database.register_relation("l", left)
            database.register_relation("r", right)
            align = align_plan(
                scan(database, "l", "l"),
                scan(database, "r", "r"),
                Comparison("=", Column("l.cat"), Column("r.cat")),
            )
            normalize = normalize_plan(
                scan(database, "l", "l"), scan(database, "r", "r"), using=["cat"]
            )

            row_s, row_rows, row_plan = _timed_execution(
                database, align, _row_settings(), repeats
            )
            col_s, col_rows, col_plan = _timed_execution(database, align, Settings(), repeats)
            norm_row_s, norm_row_rows, _ = _timed_execution(
                database, normalize, _row_settings(), repeats
            )
            norm_col_s, norm_col_rows, norm_col_plan = _timed_execution(
                database, normalize, Settings(), repeats
            )

            identical = row_rows == col_rows
            norm_identical = norm_row_rows == norm_col_rows
            speedup = row_s / max(col_s, 1e-9)
            scenario = {
                "scenario": "columnar_adjustment",
                "family": family,
                "size": size,
                "row_seconds": round(row_s, 6),
                "columnar_seconds": round(col_s, 6),
                "columnar_speedup": round(speedup, 3),
                "output_tuples": len(row_rows),
                "identical": identical and norm_identical,
                "row_plan": row_plan,
                "columnar_plan": col_plan,
                "normalize_row_seconds": round(norm_row_s, 6),
                "normalize_columnar_seconds": round(norm_col_s, 6),
                "normalize_speedup": round(norm_row_s / max(norm_col_s, 1e-9), 3),
                "normalize_plan": norm_col_plan,
            }
            scenarios.append(scenario)
            print(
                f"[columnar_adjustment] {family} n={size}: row={row_s * 1e3:.1f}ms "
                f"columnar={col_s * 1e3:.1f}ms ({speedup:.1f}x) out={len(row_rows)} "
                f"identical={identical}"
            )
            if not identical:
                raise BenchmarkError(
                    f"columnar_adjustment/{family}/n={size}: columnar relation "
                    f"differs from the row pipeline ({len(col_rows)} vs {len(row_rows)} rows)"
                )
            if not norm_identical:
                raise BenchmarkError(
                    f"columnar_adjustment/{family}/n={size}: columnar normalization "
                    f"differs from the row pipeline ({len(norm_col_rows)} vs "
                    f"{len(norm_row_rows)} rows)"
                )
            if "ColumnarAdjustment" not in col_plan:
                raise BenchmarkError(
                    f"columnar_adjustment/{family}/n={size}: columnar settings did "
                    f"not produce a ColumnarAdjustment plan (got {col_plan!r})"
                )
            if strict and size >= 1000 and speedup < 4.0:
                raise BenchmarkError(
                    f"columnar_adjustment/{family}/n={size}: columnar speedup "
                    f"{speedup:.2f}x below the 4x bar (set REPRO_BENCH_STRICT=0 to "
                    "report instead of assert)"
                )
    return scenarios


def _mutation_stream(size: int, count: int):
    """A deterministic mixed insert/delete stream over both relations."""
    import random as random_module

    rng = random_module.Random(size * 31 + 7)
    operations = []
    for index in range(count):
        target = "l" if index % 2 == 0 else "r"
        start = rng.randrange(16 * 365)
        if index % 3 == 2:
            period = Interval(start, start + 1 + rng.randrange(60))
            operations.append(("delete", target, period))
        else:
            category = f"C{rng.randrange(100):04d}"
            interval = Interval(start, start + 1 + rng.randrange(30))
            operations.append(("insert", target, (category, interval)))
    return operations


def run_view_maintenance(
    sizes: Optional[Sequence[int]] = None, repeats: int = 2
) -> List[dict]:
    """Incremental view maintenance vs full ALIGN recompute under mutations.

    For every synthetic family and size an ALIGN view (equi-θ on ``cat``) is
    materialized, then a mixed insert/delete stream is applied; after every
    mutation the incrementally maintained view is compared against a
    from-scratch ``align_relation`` sweep — any difference is a **hard**
    failure (this is the equality gate CI enforces).  Finally a single-tuple
    insert measures the headline number: time to fold one delta in vs time to
    realign everything.  The ≥5x speedup expectation is asserted only under
    ``REPRO_BENCH_STRICT`` (default on; CI relaxes it to reporting).
    """
    sizes = sizes or scaled_sizes(DEFAULT_SIZES)
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    scenarios = []
    for family, generator in sorted(FAMILIES.items()):
        for size in sizes:
            left, right = generator(config=SyntheticConfig(size=size, categories=100, seed=42))
            database = Database()
            database.register_relation("l", left)
            database.register_relation("r", right)
            view = database.views.create_align_view(
                "v", "l", "r",
                condition=Comparison("=", Column("l.cat"), Column("r.cat")),
            )

            def recompute():
                return align_relation(
                    left, right, equi_attributes=["cat"], strategy="sweep"
                )

            stream = _mutation_stream(size, count=max(4, size // 50))
            incremental_total = 0.0
            recompute_total = 0.0
            for operation in stream:
                _apply_mutation(database, operation)
                kind = operation[0]
                # Timed: the maintenance itself (delta propagation) vs the
                # full from-scratch adjustment a viewless system would run.
                started = time.perf_counter()
                view.refresh()
                incremental_total += time.perf_counter() - started
                started = time.perf_counter()
                expected = recompute()
                recompute_total += time.perf_counter() - started
                # Untimed hard gate: the maintained contents must be the
                # recomputed contents, after every single mutation.
                maintained = view.result()
                if maintained != expected:
                    raise BenchmarkError(
                        f"view_maintenance/{family}/n={size}: maintained view differs "
                        f"from recompute after {kind} ({len(maintained)} vs "
                        f"{len(expected)} tuples)"
                    )

            # Headline: one single-tuple mutation, incremental vs recompute.
            database.insert_rows("l", [(("C0000", 1, 5), Interval(0, 20))])
            started = time.perf_counter()
            outcome = view.refresh()
            single_incremental = time.perf_counter() - started
            single_recompute, expected = _best_of(repeats, recompute)
            if outcome != "incremental":
                raise BenchmarkError(
                    f"view_maintenance/{family}/n={size}: single-tuple refresh took "
                    f"the {outcome!r} path instead of incremental maintenance"
                )
            if view.result() != expected:
                raise BenchmarkError(
                    f"view_maintenance/{family}/n={size}: maintained view differs "
                    "from recompute after the single-tuple insert"
                )
            speedup = single_recompute / max(single_incremental, 1e-9)

            scenario = {
                "scenario": "view_maintenance",
                "family": family,
                "size": size,
                "mutations": len(stream),
                "incremental_stream_seconds": round(incremental_total, 6),
                "recompute_stream_seconds": round(recompute_total, 6),
                "single_mutation_incremental_seconds": round(single_incremental, 6),
                "single_mutation_recompute_seconds": round(single_recompute, 6),
                "single_mutation_speedup": round(speedup, 3),
                "output_tuples": len(expected),
                "identical": True,
                "maintenance": dict(view.stats),
            }
            scenarios.append(scenario)
            print(
                f"[view_maintenance] {family} n={size}: stream "
                f"incr={incremental_total * 1e3:.1f}ms vs recompute="
                f"{recompute_total * 1e3:.1f}ms; single-mutation speedup={speedup:.1f}x"
            )
            if strict and speedup < 5.0:
                raise BenchmarkError(
                    f"view_maintenance/{family}/n={size}: single-mutation speedup "
                    f"{speedup:.2f}x below the 5x bar (set REPRO_BENCH_STRICT=0 to "
                    "report instead of assert)"
                )
    return scenarios


def _apply_mutation(database: Database, operation) -> None:
    """Apply one ``_mutation_stream`` operation (shared by all scenarios)."""
    kind, target, payload = operation
    if kind == "insert":
        category, interval = payload
        database.insert_rows(target, [((category, 1, 5), interval)])
    else:
        database.delete_rows(target, period=payload)


def _apply_mutation_stream(database: Database, stream) -> None:
    for operation in stream:
        _apply_mutation(database, operation)


def run_durability(
    sizes: Optional[Sequence[int]] = None, repeats: int = 2
) -> List[dict]:
    """WAL-append overhead per mutation and crash-recovery time vs. size.

    For every synthetic family and size a durable database (WAL fsync'd on
    every commit) and an in-memory twin run the same deterministic mutation
    stream; the per-mutation difference is the durability overhead.  The
    database is checkpointed mid-stream, mutated further, then "crashed"
    (never closed) and re-opened from a copy of its directory — the recovery
    path is snapshot + WAL suffix, timed best-of-``repeats``.

    Hard gates (CI enforces these; timings are only reported):

    * the recovered relations are identical to the last committed state,
      including rowids and change-log versions;
    * the recovered ALIGN view equals the pre-crash view;
    * a single-tuple mutation after recovery refreshes the view via the
      *incremental* path (strategy introspection, not timing).
    """
    sizes = sizes or scaled_sizes(DEFAULT_SIZES)
    scenarios = []
    for family, generator in sorted(FAMILIES.items()):
        for size in sizes:
            config = SyntheticConfig(size=size, categories=100, seed=42)
            stream = _mutation_stream(size, count=max(8, size // 25))
            with tempfile.TemporaryDirectory(prefix="repro-durability-") as root:
                directory = os.path.join(root, "db")
                left, right = generator(config=config)
                database = Database.open(directory)
                database.register_relation("l", left)
                database.register_relation("r", right)
                view = database.views.create_align_view(
                    "v", "l", "r",
                    condition=Comparison("=", Column("l.cat"), Column("r.cat")),
                )

                started = time.perf_counter()
                _apply_mutation_stream(database, stream)
                durable_seconds = time.perf_counter() - started

                # The in-memory twin: identical relations (same generator and
                # seed) and the same stream, just no WAL — the timing
                # difference is the durability overhead.
                memory = _register_twin(Database(), *generator(config=config))
                started = time.perf_counter()
                _apply_mutation_stream(memory, stream)
                inmemory_seconds = time.perf_counter() - started

                started = time.perf_counter()
                snapshot_bytes = database.storage.checkpoint()
                checkpoint_seconds = time.perf_counter() - started
                records_at_checkpoint = database.storage.stats["records"]

                # WAL suffix past the snapshot, then crash (no close()).
                suffix = _mutation_stream(size + 1, count=4)
                _apply_mutation_stream(database, suffix)
                expected_view = view.result()
                expected_rows = {
                    name: relation.rows_with_ids()
                    for name, relation in database.relations.items()
                }
                expected_versions = {
                    name: relation.version
                    for name, relation in database.relations.items()
                }
                # Both metrics describe the same log: the post-checkpoint
                # suffix the recovery below will replay.
                wal_bytes = os.path.getsize(database.storage.wal_path)
                wal_records = database.storage.stats["records"] - records_at_checkpoint
                database.storage.abandon()  # crash: handles released, no checkpoint
                del database

                recovery_seconds = float("inf")
                recovered = None
                for attempt in range(max(1, repeats)):
                    clone = os.path.join(root, f"recover-{attempt}")
                    shutil.copytree(directory, clone)
                    started = time.perf_counter()
                    candidate = Database.open(clone)
                    recovery_seconds = min(
                        recovery_seconds, time.perf_counter() - started
                    )
                    if recovered is None:
                        recovered = candidate
                    else:  # timing-only candidate: release its WAL handle
                        candidate.close()

                for name, rows in expected_rows.items():
                    if recovered.relations[name].rows_with_ids() != rows:
                        raise BenchmarkError(
                            f"durability/{family}/n={size}: relation {name!r} "
                            "differs from the last committed state after recovery"
                        )
                    if recovered.relations[name].version != expected_versions[name]:
                        raise BenchmarkError(
                            f"durability/{family}/n={size}: change-log version of "
                            f"{name!r} not restored"
                        )
                recovered_view = recovered.views.get("v")
                if recovered_view.result() != expected_view:
                    raise BenchmarkError(
                        f"durability/{family}/n={size}: recovered view differs "
                        "from the pre-crash view"
                    )
                recomputes = recovered_view.stats["recomputed"]
                recovered.insert_rows("l", [(("C0000", 1, 5), Interval(0, 20))])
                outcome = recovered_view.refresh()
                if outcome != "incremental" or recovered_view.stats["recomputed"] != recomputes:
                    raise BenchmarkError(
                        f"durability/{family}/n={size}: post-recovery refresh took "
                        f"the {outcome!r} path instead of incremental maintenance"
                    )
                recovered.close()

                mutations = len(stream)
                scenario = {
                    "scenario": "durability",
                    "family": family,
                    "size": size,
                    "mutations": mutations,
                    "durable_stream_seconds": round(durable_seconds, 6),
                    "inmemory_stream_seconds": round(inmemory_seconds, 6),
                    "wal_overhead_per_mutation_ms": round(
                        max(0.0, durable_seconds - inmemory_seconds) / mutations * 1e3, 4
                    ),
                    "wal_bytes": wal_bytes,
                    "wal_records": wal_records,
                    "snapshot_bytes": snapshot_bytes,
                    "checkpoint_seconds": round(checkpoint_seconds, 6),
                    "recovery_seconds": round(recovery_seconds, 6),
                    "identical": True,
                    "post_recovery_refresh": outcome,
                }
                scenarios.append(scenario)
                print(
                    f"[durability] {family} n={size}: stream durable="
                    f"{durable_seconds * 1e3:.1f}ms vs memory="
                    f"{inmemory_seconds * 1e3:.1f}ms; recovery="
                    f"{recovery_seconds * 1e3:.1f}ms "
                    f"(wal={wal_bytes}B, snapshot={snapshot_bytes}B)"
                )
    return scenarios


def _register_twin(database: Database, left, right) -> Database:
    database.register_relation("l", left)
    database.register_relation("r", right)
    return database


#: Client counts of the concurrency scenario (the CI sweep: light and heavy).
CONCURRENCY_CLIENTS = (2, 8)

#: Key space of the concurrency workload — deliberately small, so concurrent
#: transactions actually collide and the retry/conflict machinery is exercised.
CONCURRENCY_KEYS = 8


def _transaction_statements(rng) -> List[str]:
    """One transaction's write statements (deterministic given the RNG state).

    Mixed sequenced DML over a small key space; every statement is
    self-contained (no reads feeding writes), so replaying the statement
    list serially reproduces the transaction exactly — the property the
    serializable-equivalence gate relies on.
    """
    statements = []
    for _ in range(1 + rng.randrange(3)):
        key = f"k{rng.randrange(CONCURRENCY_KEYS)}"
        start = rng.randrange(100)
        end = start + 1 + rng.randrange(20)
        kind = rng.randrange(3)
        if kind == 0:
            statements.append(
                f"INSERT INTO t (k, v) VALUES ('{key}', {rng.randrange(1000)}) "
                f"VALID PERIOD [{start}, {end})"
            )
        elif kind == 1:
            statements.append(
                f"UPDATE t SET v = {rng.randrange(1000)} WHERE t.k = '{key}' "
                f"FOR PERIOD [{start}, {end})"
            )
        else:
            statements.append(
                f"DELETE FROM t WHERE t.k = '{key}' FOR PERIOD [{start}, {end})"
            )
    return statements


def run_concurrency(
    sizes: Optional[Sequence[int]] = None, repeats: int = 2
) -> List[dict]:
    """Throughput/latency of N socket clients vs a serializable-equivalence gate.

    For each client count in :data:`CONCURRENCY_CLIENTS` an asyncio server is
    booted in-process over a fresh database, and N real socket clients (one
    thread each) run seeded transactions of mixed sequenced DML — ``BEGIN``,
    a read, 1–3 writes over a deliberately small key space, ``COMMIT`` — with
    the standard snapshot-isolation retry loop around first-committer-wins
    conflicts.

    The **hard** gate (never relaxed, not even by ``REPRO_BENCH_STRICT=0``):
    after all clients finish, the final relation state must equal replaying
    every committed transaction's statements serially in commit-epoch order
    on a fresh twin database.  Concurrent execution under MVCC must be
    indistinguishable from *that* serial order — the Hellerstein framing:
    equivalence to a serial order, not to one fixed answer.  Timings
    (throughput, latency percentiles, conflict counts) are always reported,
    never asserted.

    The served database is *durable* (WAL fsync'd on every commit, in a
    temporary directory), so the scenario also proves the telemetry path
    end-to-end: after the load it asks the still-running server for its
    metrics — both ``SHOW METRICS`` over SQL and the ``{"cmd": "metrics"}``
    protocol request — and gates (hard) that ``txn.commits`` covers every
    recorded commit, ``txn.conflicts`` covers every client-observed
    conflict, ``wal.fsync_seconds`` observed at least one fsync, and the
    two surfaces agree with each other.

    ``repeats`` is unused (the load is the client threads) but kept so all
    native scenarios share the runner's calling convention.
    """
    import random as random_module
    import threading

    from repro.client import Client, ConflictError
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import Schema
    from repro.server import serve_in_thread
    from repro.sql.interface import Connection

    del repeats
    client_counts = [n for n in (sizes or CONCURRENCY_CLIENTS) if n > 0]
    transactions_per_client = max(4, int(30 * SCALE))
    scenarios: List[dict] = []

    for clients in client_counts:
        seed_rows = [
            ((f"k{i % CONCURRENCY_KEYS}", i), Interval(10 * i, 10 * i + 50))
            for i in range(CONCURRENCY_KEYS * 2)
        ]
        tempdir = tempfile.TemporaryDirectory(prefix="repro-concurrency-")
        database = Database.open(os.path.join(tempdir.name, "db"))  # sync=True
        relation = TemporalRelation(Schema(["k", "v"]))
        for values, interval in seed_rows:
            relation.insert(values, interval)
        database.register_relation("t", relation)

        committed: List[tuple] = []  # (epoch, statements) of every commit
        conflicts = [0]
        latencies: List[float] = []
        errors: List[BaseException] = []
        lock = threading.Lock()

        def run_client(client_index: int, port: int) -> None:
            rng = random_module.Random(1000 + client_index)
            try:
                with Client(port=port) as client:
                    for _ in range(transactions_per_client):
                        statements = _transaction_statements(rng)
                        while True:
                            started = time.perf_counter()
                            try:
                                client.execute("BEGIN")
                                client.execute("SELECT k FROM t")  # a read in every txn
                                for statement in statements:
                                    client.execute(statement)
                                epoch = client.execute("COMMIT").rows[0][1]
                            except ConflictError:
                                with lock:
                                    conflicts[0] += 1
                                continue
                            elapsed = time.perf_counter() - started
                            with lock:
                                latencies.append(elapsed)
                                committed.append((epoch, statements))
                            break
            except BaseException as error:  # noqa: BLE001 - reported as gate failure
                with lock:
                    errors.append(error)

        with serve_in_thread(database) as handle:
            threads = [
                threading.Thread(target=run_client, args=(i, handle.port))
                for i in range(clients)
            ]
            wall_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_seconds = time.perf_counter() - wall_started
            # Telemetry over the live server, both surfaces: the protocol
            # snapshot and SHOW METRICS must exist and agree.
            with Client(port=handle.port) as probe:
                snapshot = probe.metrics()
                show_rows = probe.execute("SHOW METRICS").rows

        if errors:
            raise BenchmarkError(
                f"concurrency/clients={clients}: {len(errors)} client(s) failed: "
                f"{errors[0]!r}"
            )
        expected_commits = clients * transactions_per_client
        if len(committed) != expected_commits:
            raise BenchmarkError(
                f"concurrency/clients={clients}: {len(committed)} commits recorded, "
                f"expected {expected_commits}"
            )
        epochs = [epoch for epoch, _ in committed]
        if len(set(epochs)) != len(epochs):
            raise BenchmarkError(
                f"concurrency/clients={clients}: duplicate commit epochs — commit "
                "order is not total"
            )

        # The serializable-equivalence gate: replay every committed
        # transaction's statements serially in commit-epoch order on a twin.
        twin = Database()
        twin_relation = TemporalRelation(Schema(["k", "v"]))
        for values, interval in seed_rows:
            twin_relation.insert(values, interval)
        twin.register_relation("t", twin_relation)
        replay = Connection(twin)
        for _epoch, statements in sorted(committed, key=lambda entry: entry[0]):
            for statement in statements:
                replay.execute(statement)
        final_state = database.get_relation("t").as_set()
        replayed_state = twin.get_relation("t").as_set()
        identical = final_state == replayed_state
        if not identical:
            raise BenchmarkError(
                f"concurrency/clients={clients}: final state ({len(final_state)} "
                f"tuples) differs from commit-order serial replay "
                f"({len(replayed_state)} tuples) — snapshot isolation broke "
                "serializable equivalence"
            )

        database.close()
        tempdir.cleanup()

        # The telemetry gates — hard, like the equivalence gate: the metrics
        # registry is process-global and cumulative, so the bounds are
        # "covers this round", not exact equality across rounds.
        metric_commits = snapshot.get("txn.commits", {}).get("value", 0)
        metric_conflicts = snapshot.get("txn.conflicts", {}).get("value", 0)
        fsync = snapshot.get("wal.fsync_seconds", {})
        if metric_commits < len(committed):
            raise BenchmarkError(
                f"concurrency/clients={clients}: txn.commits metric "
                f"({metric_commits}) below the {len(committed)} commits the "
                "clients recorded"
            )
        if metric_conflicts < conflicts[0]:
            raise BenchmarkError(
                f"concurrency/clients={clients}: txn.conflicts metric "
                f"({metric_conflicts}) below the {conflicts[0]} conflicts the "
                "clients observed"
            )
        if not fsync.get("count"):
            raise BenchmarkError(
                f"concurrency/clients={clients}: wal.fsync_seconds observed no "
                "fsync on a durable (sync=True) database"
            )
        shown = {
            (row[0], row[2]): row[3]
            for row in show_rows
            if row[1] in ("counter", "gauge")
        }
        if shown.get(("txn.commits", "")) != metric_commits:
            raise BenchmarkError(
                f"concurrency/clients={clients}: SHOW METRICS reports "
                f"txn.commits={shown.get(('txn.commits', ''))!r}, the protocol "
                f"snapshot {metric_commits} — the two surfaces disagree"
            )

        latencies.sort()
        p95 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))]
        scenario = {
            "scenario": "concurrency",
            "clients": clients,
            "transactions_per_client": transactions_per_client,
            "committed": len(committed),
            "conflicts": conflicts[0],
            "wall_seconds": round(wall_seconds, 6),
            "throughput_txn_per_s": round(len(committed) / max(wall_seconds, 1e-9), 1),
            "latency_mean_ms": round(sum(latencies) / len(latencies) * 1e3, 3),
            "latency_p95_ms": round(p95 * 1e3, 3),
            "final_tuples": len(final_state),
            "identical": identical,
            "durable": True,
            "server_metrics": {
                "txn_commits": metric_commits,
                "txn_conflicts": metric_conflicts,
                "wal_fsync_count": fsync.get("count", 0),
                "wal_fsync_seconds_sum": round(fsync.get("sum", 0.0), 6),
            },
        }
        scenarios.append(scenario)
        print(
            f"[concurrency] clients={clients}: {len(committed)} txns in "
            f"{wall_seconds * 1e3:.1f}ms "
            f"({scenario['throughput_txn_per_s']:.0f} txn/s, "
            f"p95={scenario['latency_p95_ms']:.1f}ms, {conflicts[0]} conflicts) "
            f"identical={identical} "
            f"metrics: commits={metric_commits} fsyncs={fsync.get('count', 0)}"
        )
    return scenarios


#: Seeds of the chaos scenario — each seed drives one served round (its own
#: transaction mix *and* its own fault schedule) and must pass every gate.
CHAOS_SEEDS = (11, 23, 47)

#: Socket clients of each served chaos round.
CHAOS_CLIENTS = 3

#: Ceiling on one served round's client phase; a thread still alive after
#: this is a hung client — a hard gate, not a timeout to wait out.
CHAOS_JOIN_TIMEOUT = 120.0


def _preserve_chaos_artifacts(tag: str, source: str) -> Optional[str]:
    """Copy a failed round's database directory for post-mortem.

    Controlled by ``REPRO_RECOVERY_ARTIFACT_DIR`` (the CI chaos job points it
    at an uploaded directory); without it the failure message stands alone.
    """
    target_root = os.environ.get("REPRO_RECOVERY_ARTIFACT_DIR")
    if not target_root:
        return None
    destination = os.path.join(target_root, tag)
    shutil.copytree(source, destination, dirs_exist_ok=True)
    return destination


def _chaos_fail(tag: str, source_dir: Optional[str], message: str) -> None:
    if source_dir is not None:
        preserved = _preserve_chaos_artifacts(tag, source_dir)
        if preserved:
            message += f" (recovery artifacts preserved at {preserved})"
    raise BenchmarkError(message)


def _chaos_net_spec(seed: int) -> str:
    """The round's fault schedule: seed-dependent drop/stall cadences."""
    drop_every = 6 + seed % 5
    stall_every = 9 + seed % 4
    return (
        f"net.drop:every={drop_every}:after=2,"
        f"net.stall:every={stall_every}:ms=2"
    )


def _chaos_serve_subprocess(path: str, spec: str):
    """Boot ``python -m repro.serve`` with ``REPRO_FAULTS`` armed.

    Returns ``(process, host, port)`` once the server prints its banner; the
    banner must also confirm the faults armed — a chaos round against a
    server that silently ignored its fault spec would prove nothing.
    """
    env = dict(os.environ)
    src_root = os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (src_root, env.get("PYTHONPATH")) if entry
    )
    env[_faults.ENV_VAR] = spec
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--path", path, "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner: List[str] = []
    armed = False
    assert process.stdout is not None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        banner.append(line.strip())
        if line.startswith("faults armed:"):
            armed = True
        if line.startswith("serving on "):
            if not armed:
                process.kill()
                raise BenchmarkError(
                    f"chaos: server came up without arming {_faults.ENV_VAR}; "
                    f"output: {banner}"
                )
            host, _, port = line.strip().split()[-1].rpartition(":")
            return process, host, int(port)
    process.kill()
    raise BenchmarkError(
        f"chaos: served subprocess never announced its port; output: {banner}"
    )


def _chaos_served_round(seed: int) -> dict:
    """One served round: clients under net faults, SIGKILL, replay gate.

    A durable database is served by a *subprocess* whose ``net.drop`` /
    ``net.stall`` sites are armed through the environment — the process
    boundary proves the env-arming path end-to-end and lets the round kill
    the server without mercy.  ``CHAOS_CLIENTS`` threads push seeded
    transactions through :meth:`Client.run_transaction` (reconnect + replay
    + capped backoff; ``retry_ambiguous=True`` is sound here because
    ``net.drop`` severs *before* executing the request, so an interrupted
    COMMIT never applied).  Hard gates:

    * no client errors out of its retry budget, none hangs past the join
      timeout, every transaction commits under a unique epoch;
    * the injected faults are *observed*: the live server's metrics must
      count ``faults.injected`` for both armed net sites;
    * after SIGKILL (no shutdown path), reopening the directory must yield
      exactly the committed prefix — equal to replaying the recorded
      commits in epoch order on a twin.
    """
    import random as random_module
    import threading

    from repro.client import Client, DisconnectedError, OverloadedError
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import Schema
    from repro.sql.interface import Connection

    tag = f"chaos-served-seed{seed}"
    transactions_per_client = max(3, int(10 * SCALE))
    seed_rows = [
        ((f"k{i % CONCURRENCY_KEYS}", i), Interval(10 * i, 10 * i + 50))
        for i in range(CONCURRENCY_KEYS * 2)
    ]
    tempdir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
    path = os.path.join(tempdir.name, "db")
    database = Database.open(path)
    relation = TemporalRelation(Schema(["k", "v"]))
    for values, interval in seed_rows:
        relation.insert(values, interval)
    database.register_relation("t", relation)
    database.close()

    process, host, port = _chaos_serve_subprocess(path, _chaos_net_spec(seed))
    committed: List[tuple] = []
    errors: List[BaseException] = []
    lock = threading.Lock()

    def run_client(client_index: int) -> None:
        rng = random_module.Random(seed * 1000 + client_index)
        try:
            with Client(host, port, timeout=10.0) as client:
                for _ in range(transactions_per_client):
                    statements = _transaction_statements(rng)
                    epoch = client.run_transaction(
                        statements,
                        max_attempts=60,
                        backoff_base=0.002,
                        backoff_cap=0.05,
                        retry_ambiguous=True,
                    )
                    with lock:
                        committed.append((epoch, statements))
        except BaseException as error:  # noqa: BLE001 - reported as gate failure
            with lock:
                errors.append(error)

    injected: Dict[str, int] = {}
    try:
        threads = [
            threading.Thread(target=run_client, args=(i,), daemon=True)
            for i in range(CHAOS_CLIENTS)
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CHAOS_JOIN_TIMEOUT)
        wall_seconds = time.perf_counter() - wall_started
        hung = sum(1 for thread in threads if thread.is_alive())
        if hung:
            _chaos_fail(
                tag, path,
                f"chaos/seed={seed}: {hung} client(s) still alive "
                f"{CHAOS_JOIN_TIMEOUT:g}s after start — hung under net faults",
            )
        if errors:
            _chaos_fail(
                tag, path,
                f"chaos/seed={seed}: {len(errors)} client(s) failed: {errors[0]!r}",
            )
        # The probe's own requests face the same armed faults: retry through.
        for _ in range(20):
            try:
                with Client(host, port, timeout=10.0) as probe:
                    injected = (
                        probe.metrics()
                        .get("faults.injected", {})
                        .get("labels", {})
                    )
                break
            except (DisconnectedError, OverloadedError, OSError):
                continue
        else:
            _chaos_fail(
                tag, path,
                f"chaos/seed={seed}: could not read metrics off the faulted "
                "server in 20 attempts",
            )
    finally:
        process.kill()  # SIGKILL: recovery must come from the fsync'd WAL
        try:
            process.wait(timeout=30)
        finally:
            if process.stdout is not None:
                process.stdout.close()

    for site in ("net.drop", "net.stall"):
        if injected.get(site, 0) < 1:
            _chaos_fail(
                tag, path,
                f"chaos/seed={seed}: armed fault {site} was never observed in "
                f"the server's faults.injected metrics ({injected})",
            )
    expected = CHAOS_CLIENTS * transactions_per_client
    if len(committed) != expected:
        _chaos_fail(
            tag, path,
            f"chaos/seed={seed}: {len(committed)} commits recorded, "
            f"expected {expected}",
        )
    epochs = [epoch for epoch, _ in committed]
    if len(set(epochs)) != len(epochs):
        _chaos_fail(
            tag, path,
            f"chaos/seed={seed}: duplicate commit epochs — a retried COMMIT "
            "applied twice",
        )

    # Recovery gate: the killed server's directory must reopen to exactly
    # the committed prefix (commit-epoch-ordered serial replay on a twin).
    recovered = Database.open(path)
    twin = Database()
    twin_relation = TemporalRelation(Schema(["k", "v"]))
    for values, interval in seed_rows:
        twin_relation.insert(values, interval)
    twin.register_relation("t", twin_relation)
    replay = Connection(twin)
    for _epoch, statements in sorted(committed, key=lambda entry: entry[0]):
        for statement in statements:
            replay.execute(statement)
    recovered_state = recovered.get_relation("t").as_set()
    replayed_state = twin.get_relation("t").as_set()
    recovered.close()
    if recovered_state != replayed_state:
        _chaos_fail(
            tag, path,
            f"chaos/seed={seed}: recovered state ({len(recovered_state)} "
            f"tuples) differs from the committed prefix "
            f"({len(replayed_state)} tuples) after SIGKILL",
        )
    tempdir.cleanup()

    scenario = {
        "scenario": "chaos_served",
        "seed": seed,
        "clients": CHAOS_CLIENTS,
        "transactions_per_client": transactions_per_client,
        "committed": len(committed),
        "wall_seconds": round(wall_seconds, 6),
        "injected": {site: int(count) for site, count in sorted(injected.items())},
        "recovered_tuples": len(recovered_state),
        "identical": True,
        "hung_clients": 0,
    }
    print(
        f"[chaos] seed={seed}: {len(committed)} commits in "
        f"{wall_seconds * 1e3:.0f}ms under "
        f"drop={injected.get('net.drop', 0)} stall={injected.get('net.stall', 0)}; "
        f"SIGKILL recovery identical={scenario['identical']}"
    )
    return scenario


def _chaos_storage_round() -> dict:
    """Storage faults end to end: poison, degrade, recover.

    Three durable databases, one injected storage failure each, all gated:

    * ``wal.append_ioerror`` — the failing write errors, the engine poisons
      into read-only degraded mode (SELECTs answer, mutations and
      CHECKPOINT refuse with the poison reason), and reopening yields
      exactly the acked prefix, writable again;
    * ``wal.torn_tail`` — recovery truncates the half-written frame and the
      log accepts appends after it;
    * ``snapshot.rename_ioerror`` — a failed snapshot publish does *not*
      poison (the old snapshot + full WAL stay authoritative) and loses
      nothing.
    """
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import Schema
    from repro.storage.engine import StorageError

    injected: Dict[str, int] = {}

    def open_db(path: str):
        database = Database.open(path)
        if "r" not in database.relations:
            database.register_relation("r", TemporalRelation(Schema(["k", "v"])))
        return database

    def insert(database, key: str) -> None:
        database.session().execute(
            f"INSERT INTO r (k, v) VALUES ('{key}', 1) VALID PERIOD [0, 5)"
        )

    def keys(database) -> set:
        return {t[0][0] for t in database.get_relation("r").as_set()}

    def fire_one(database, spec: str, action, expected_error) -> None:
        """Arm ``spec``, run ``action``, gate the typed failure + the count."""
        site = spec.split(":", 1)[0]
        _faults.arm(spec)
        try:
            try:
                action(database)
            except expected_error:
                pass
            else:
                raise BenchmarkError(
                    f"chaos_storage: {site} armed but {action.__name__} "
                    f"did not raise {expected_error.__name__}"
                )
            active = _faults.active()
            counts = active.injected_counts() if active is not None else {}
        finally:
            _faults.disarm()
        if counts.get(site, 0) < 1:
            raise BenchmarkError(
                f"chaos_storage: armed fault {site} never fired "
                f"(injected counts: {counts})"
            )
        injected[site] = int(counts[site])

    with tempfile.TemporaryDirectory(prefix="repro-chaos-storage-") as root:
        # Round 1: append failure → degraded mode → acked-prefix recovery.
        path = os.path.join(root, "append")
        database = open_db(path)
        insert(database, "a")
        fire_one(
            database, "wal.append_ioerror:count=1",
            lambda db: insert(db, "b"), StorageError,
        )
        if database.storage.poisoned is None:
            _chaos_fail("chaos-storage", path,
                        "chaos_storage: injected append failure did not poison")
        if "a" not in keys(database):
            _chaos_fail("chaos-storage", path,
                        "chaos_storage: degraded mode lost in-memory reads")
        session = database.session()
        try:
            insert(database, "c")
        except StorageError as error:
            if "read-only degraded mode" not in str(error):
                _chaos_fail("chaos-storage", path,
                            f"chaos_storage: mutation refused untypedly: {error}")
        else:
            _chaos_fail("chaos-storage", path,
                        "chaos_storage: poisoned engine accepted a mutation")
        try:
            session.execute("CHECKPOINT")
        except StorageError as error:
            if "append" not in str(error):
                _chaos_fail("chaos-storage", path,
                            f"chaos_storage: CHECKPOINT hid the poison reason: {error}")
        else:
            _chaos_fail("chaos-storage", path,
                        "chaos_storage: poisoned engine accepted CHECKPOINT")
        database.storage.abandon()
        recovered = open_db(path)
        if keys(recovered) != {"a"} or recovered.storage.poisoned is not None:
            _chaos_fail(
                "chaos-storage", path,
                f"chaos_storage: recovery yielded {keys(recovered)} "
                "(expected exactly the acked prefix {'a'}, unpoisoned)",
            )
        insert(recovered, "post")  # recovered database must be writable
        recovered.close()

        # Round 2: torn tail → truncated at recovery, appends work after.
        path = os.path.join(root, "torn")
        database = open_db(path)
        insert(database, "a")
        fire_one(
            database, "wal.torn_tail:count=1",
            lambda db: insert(db, "b"), StorageError,
        )
        database.storage.abandon()
        recovered = open_db(path)
        if keys(recovered) != {"a"}:
            _chaos_fail("chaos-storage", path,
                        f"chaos_storage: torn tail not truncated: {keys(recovered)}")
        insert(recovered, "c")
        recovered.close()
        final = open_db(path)
        if keys(final) != {"a", "c"}:
            _chaos_fail("chaos-storage", path,
                        f"chaos_storage: append after torn tail lost: {keys(final)}")
        final.close()

        # Round 3: snapshot publish fails → not poisoned, nothing lost.
        path = os.path.join(root, "snapshot")
        database = open_db(path)
        insert(database, "a")
        fire_one(
            database, "snapshot.rename_ioerror:count=1",
            lambda db: db.storage.checkpoint(), OSError,
        )
        if database.storage.poisoned is not None:
            _chaos_fail("chaos-storage", path,
                        "chaos_storage: failed snapshot publish poisoned the engine")
        insert(database, "b")
        database.storage.abandon()
        recovered = open_db(path)
        if keys(recovered) != {"a", "b"}:
            _chaos_fail("chaos-storage", path,
                        f"chaos_storage: snapshot failure lost data: {keys(recovered)}")
        recovered.close()

    scenario = {
        "scenario": "chaos_storage_faults",
        "faults": sorted(injected),
        "injected": injected,
        "acked_prefix_recovered": True,
        "degraded_mode_enforced": True,
    }
    print(f"[chaos] storage faults ({', '.join(sorted(injected))}): recovery OK")
    return scenario


def _chaos_timeout_round() -> dict:
    """Statement timeouts over the wire: typed error, session survives.

    A served database with ``statement_timeout_ms`` set runs a quadratic
    self-ALIGN that must come back as a typed ``timeout`` wire error — then
    the same session answers a fast statement, and a timeout inside an open
    transaction rolls it back (the uncommitted write never becomes visible).
    """
    from repro.client import Client, ServerError
    from repro.relation.relation import TemporalRelation
    from repro.relation.schema import Schema
    from repro.server import serve_in_thread

    # Deliberately scale-independent: the round gates a deadline *ratio*
    # (4000² ALIGN pairs vs a 50ms budget), and a scaled-down input could
    # finish inside the deadline and fail the gate spuriously.
    rows = 4000
    database = Database()
    relation = TemporalRelation(Schema(["k", "v"]))
    for index in range(rows):
        relation.insert((f"k{index}", index), Interval(index, index + 2))
    database.register_relation("r", relation)
    database.settings = Settings(enable_columnar=False, statement_timeout_ms=50.0)
    slow_sql = "SELECT * FROM (r ALIGN r ON 1 = 1) q"

    def expect_timeout(client, context: str) -> None:
        try:
            client.execute(slow_sql)
        except ServerError as error:
            if error.kind != "timeout":
                raise BenchmarkError(
                    f"chaos_timeout: {context}: expected kind 'timeout', "
                    f"got {error.kind!r}: {error}"
                )
        else:
            raise BenchmarkError(
                f"chaos_timeout: {context}: the quadratic self-ALIGN over "
                f"{rows} rows finished inside a 50ms deadline"
            )

    handle = serve_in_thread(database)
    try:
        with Client(handle.host, handle.port, timeout=30.0) as client:
            expect_timeout(client, "autocommit")
            if len(client.execute("SELECT k FROM r WHERE v = 0")) != 1:
                raise BenchmarkError(
                    "chaos_timeout: session did not survive the timeout"
                )
            client.execute("BEGIN")
            client.execute(
                "INSERT INTO r (k, v) VALUES ('ghost', -1) VALID PERIOD [0, 5)"
            )
            expect_timeout(client, "in-transaction")
            if len(client.execute("SELECT k FROM r WHERE k = 'ghost'")) != 0:
                raise BenchmarkError(
                    "chaos_timeout: timed-out transaction was not rolled back "
                    "— the uncommitted write is visible"
                )
    finally:
        handle.stop()

    scenario = {
        "scenario": "chaos_statement_timeout",
        "rows": rows,
        "statement_timeout_ms": 50.0,
        "typed_wire_error": True,
        "transaction_rolled_back": True,
    }
    print(f"[chaos] statement timeout over {rows} rows: typed error + rollback OK")
    return scenario


def run_chaos(
    sizes: Optional[Sequence[int]] = None, repeats: int = 2
) -> List[dict]:
    """Fault-injection chaos harness — every gate is hard, none relaxed.

    One served round per seed in :data:`CHAOS_SEEDS` (``--sizes`` overrides
    the seed list): a subprocess server with net faults armed through
    ``REPRO_FAULTS``, retrying clients, a SIGKILL, and a recovered-state ≡
    committed-prefix replay gate.  Then one round each of storage faults
    (poison → degraded mode → acked-prefix recovery) and statement timeouts
    over the wire.  Every armed fault must be observed
    in ``faults.injected`` — a chaos run whose faults never fired proves
    nothing.  ``repeats`` is unused but kept for the runner's convention.
    """
    del repeats
    _faults.disarm()  # the rounds arm exactly what they gate on
    try:
        seeds = [int(seed) for seed in (sizes or CHAOS_SEEDS)]
        scenarios: List[dict] = []
        for seed in seeds:
            scenarios.append(_chaos_served_round(seed))
        scenarios.append(_chaos_storage_round())
        scenarios.append(_chaos_timeout_round())
        return scenarios
    finally:
        _faults.disarm()


#: The tracing-overhead bar of ``obs_overhead``: with the observability layer
#: in place, an *untraced* alignment must stay within this fraction of an
#: enabled-tracing run's savings — i.e. tracing may cost at most 5%.
OBS_OVERHEAD_BAR_PERCENT = 5.0

#: Sizes of the overhead scenario — full-scale alignment inputs, where the
#: per-iterator bookkeeping has real work to hide behind.
OBS_OVERHEAD_SIZES = (4000,)


def run_obs_overhead(
    sizes: Optional[Sequence[int]] = None, repeats: int = 2
) -> List[dict]:
    """Cost of the tracing layer on the alignment pipeline.

    The executor's only always-on hook is a single thread-local read per
    operator-iterator construction (``PhysicalNode.__iter__``); when a trace
    *is* active every pulled row additionally passes through a measuring
    generator.  This scenario times the same equi-θ ALIGN plan both ways —
    best of ``max(repeats, 5)`` runs, no trace active vs a fresh
    :func:`repro.obs.trace.collect` per run — and reports the relative
    overhead.

    Hard gates (always): both executions produce the identical relation, and
    the trace's root span accounts for every output row.  The <5% overhead
    bar is asserted only under ``REPRO_BENCH_STRICT`` (default on; CI's
    low-scale smoke bench relaxes it — wall-clock ratios on shared runners
    are noise) and only at full-scale sizes.
    """
    sizes = sizes or scaled_sizes(OBS_OVERHEAD_SIZES)
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    runs = max(repeats, 5)
    scenarios: List[dict] = []
    for size in sizes:
        left, right = generate_random(
            config=SyntheticConfig(size=size, categories=100, seed=42)
        )
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.cat"), Column("r.cat")),
        )
        physical = database.plan(plan, Settings())

        untraced_seconds, untraced_rows = _best_of(runs, lambda: list(physical))

        traces: List[obs_trace.QueryTrace] = []

        def traced_run():
            with obs_trace.collect(physical) as trace:
                rows = list(physical)
            traces.append(trace)
            return rows

        traced_seconds, traced_rows = _best_of(runs, traced_run)

        if sorted(untraced_rows) != sorted(traced_rows):
            raise BenchmarkError(
                f"obs_overhead/n={size}: traced execution produced a different "
                f"relation ({len(traced_rows)} vs {len(untraced_rows)} rows)"
            )
        if any(t.root_span.rows_out != len(traced_rows) for t in traces):
            raise BenchmarkError(
                f"obs_overhead/n={size}: a trace's root span did not account "
                f"for all {len(traced_rows)} output rows"
            )
        overhead_percent = (
            (traced_seconds - untraced_seconds) / max(untraced_seconds, 1e-9) * 100.0
        )
        if not strict:
            gate = "skipped(strict-off)"
        elif size < 1000:
            gate = "skipped(small-input)"
        else:
            gate = "passed" if overhead_percent < OBS_OVERHEAD_BAR_PERCENT else "failed"
        scenario = {
            "scenario": "obs_overhead",
            "family": "random",
            "size": size,
            "untraced_seconds": round(untraced_seconds, 6),
            "traced_seconds": round(traced_seconds, 6),
            "overhead_percent": round(overhead_percent, 2),
            "gate": gate,
            "spans": len(traces[-1].spans()),
            "output_tuples": len(untraced_rows),
            "identical": True,
            "plan": physical.explain().splitlines()[0],
        }
        scenarios.append(scenario)
        print(
            f"[obs_overhead] random n={size}: untraced="
            f"{untraced_seconds * 1e3:.1f}ms traced={traced_seconds * 1e3:.1f}ms "
            f"({overhead_percent:+.1f}%, gate={gate})"
        )
        if gate == "failed":
            raise BenchmarkError(
                f"obs_overhead/n={size}: tracing overhead {overhead_percent:.1f}% "
                f"above the {OBS_OVERHEAD_BAR_PERCENT}% bar (set "
                "REPRO_BENCH_STRICT=0 to report instead of assert)"
            )
    return scenarios


def run_legacy_suite(path: str) -> dict:
    """Wrap one pytest figure harness, recording wall-clock and outcome.

    Timing assertions inside the harness are downgraded
    (``REPRO_BENCH_STRICT=0``) — its correctness assertions stay hard and a
    failing suite fails the report.
    """
    env = dict(os.environ)
    env.setdefault("REPRO_BENCH_STRICT", "0")
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", path],
        env=env,
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - started
    tail = completed.stdout.strip().splitlines()
    return {
        "scenario": "legacy",
        "suite": path,
        "seconds": round(seconds, 3),
        "returncode": completed.returncode,
        "summary": tail[-1] if tail else "",
    }


def write_report(name: str, scenarios: List[dict], output_dir: str) -> str:
    """Write ``BENCH_<name>.json`` and return its path."""
    payload = {
        "benchmark": name,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": SCALE,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenarios": scenarios,
        # The process metrics registry as of report time: what the scenarios
        # drove through the engine (commits, fsyncs, plan dispatch, cache
        # hits) — the same snapshot a live server returns for SHOW METRICS.
        "metrics": obs_metrics.REGISTRY.snapshot(),
    }
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {path} ({len(scenarios)} scenarios)")
    return path


NATIVE_SCENARIOS = {
    "chaos": run_chaos,
    "columnar_adjustment": run_columnar_adjustment,
    "concurrency": run_concurrency,
    "durability": run_durability,
    "obs_overhead": run_obs_overhead,
    "view_maintenance": run_view_maintenance,
}


def _run_scenario(
    name: str,
    sizes: Optional[Sequence[int]],
    repeats: int,
    profile_top: Optional[int],
) -> List[dict]:
    """Run one native scenario, optionally under cProfile.

    With profiling requested the scenario executes inside a profiler and its
    top-``profile_top`` functions by cumulative time are printed per
    scenario — the supported way for perf work to locate hot paths (timings
    in the written report are then profiler-skewed; use them for shape, not
    for speedup claims).
    """
    runner = NATIVE_SCENARIOS[name]
    if profile_top is None:
        return runner(sizes=sizes, repeats=repeats)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        scenarios = runner(sizes=sizes, repeats=repeats)
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(profile_top)
        print(f"[profile] {name}: top {profile_top} by cumulative time")
        print(stream.getvalue().rstrip())
    return scenarios


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(NATIVE_SCENARIOS),
        help="native scenario to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--legacy",
        action="append",
        default=[],
        metavar="PYTEST_FILE",
        help="pytest benchmark file to wrap (repeatable)",
    )
    parser.add_argument("--repeats", type=int, default=2, help="timing runs per measurement")
    parser.add_argument(
        "--profile",
        nargs="?",
        const=20,
        type=int,
        default=None,
        metavar="N",
        help="cProfile each scenario and dump its top-N functions by "
        "cumulative time (default N=20) — for locating hot paths without "
        "ad-hoc scripts",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="input sizes (before scaling)"
    )
    parser.add_argument("--output-dir", default=".", help="where BENCH_*.json files go")
    arguments = parser.parse_args(argv)

    sizes = scaled_sizes(arguments.sizes) if arguments.sizes else None
    names = arguments.scenario or sorted(NATIVE_SCENARIOS)
    failed = False
    for name in names:
        try:
            scenarios = _run_scenario(
                name,
                sizes=sizes,
                repeats=arguments.repeats,
                profile_top=arguments.profile,
            )
        except BenchmarkError as error:
            print(f"CORRECTNESS FAILURE in {name}: {error}", file=sys.stderr)
            failed = True
            continue
        write_report(name, scenarios, arguments.output_dir)

    if arguments.legacy:
        results = [run_legacy_suite(path) for path in arguments.legacy]
        write_report("legacy_suites", results, arguments.output_dir)
        failed = failed or any(result["returncode"] != 0 for result in results)

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
