"""``write_recover``: durable mutations, checkpoints, then crash recoveries.

One thread drives an embedded ``Database.open(path, sync=True)`` (an fsync per
commit, no automatic checkpoint): base relations ``r`` and ``s``, an
incremental ALIGN view and a NORMALIZE view over them, and a seeded stream of
autocommitted sequenced mutations on ``r`` with both views read after every
tenth and a ``checkpoint()`` after every ``checkpoint_every``-th.  When the
stream's share of the measurement time is used it checkpoints once more, runs
a fixed suffix of mutations — so every run recovers the same amount of log —
and "crashes": the directory is copied while open and never closed.  The rest
of the time goes to timed recoveries of fresh copies.

The durability gate does not trust the operating system's cache: the log's
size is recorded after every acknowledged mutation, and a copy truncated to
the size at the last-but-one acknowledgement, and another cut half way into
the frame that followed, must both recover to the state at that
acknowledgement.
"""

from __future__ import annotations

import functools
import gc
import os
import shutil
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.database import Database
from repro.obs import metrics as obs_metrics
from repro.sql.dml import execute_statement
from repro.sql.interface import Connection
from repro.sql.parser import parse
from repro.storage.snapshot import read_snapshot
from repro.storage.wal import read_wal

from perf import config, datagen
from perf.common import (
    Outcome, median, metric_delta, ms, peak_rss_mb, percentile, tail, timed_setups,
)
from perf.trace import Recorder

VIEWS = {
    "va": "SELECT * FROM (r ALIGN s ON r.cat = s.cat) x",
    "vn": "SELECT * FROM (r r1 NORMALIZE s s1 USING(cat)) x",
}
VIEW_READS = [f"SELECT COUNT(*) FROM {view}" for view in VIEWS]
COUNT_R = "SELECT COUNT(*) FROM r"
VIEW_READ_EVERY = 10
#: Share of the measurement time the mutation stream gets; recoveries the rest.
STREAM_SHARE = 0.6
#: Mutations the in-memory twin replays to price the log (traced runs).
TWIN_MUTATIONS = 100


@dataclass
class Durable:
    path: str
    database: Database
    connection: Connection


def populate(database: Database, seed: int, n: int) -> int:
    """Register ``r`` and ``s`` (no views yet); returns the category count."""
    categories = max(1, n // config.TUPLES_PER_CATEGORY)
    r, s = datagen.drand(n, categories, datagen.stream(seed, "write_recover"))
    database.register_relation("r", datagen.to_relation(r))
    database.register_relation("s", datagen.to_relation(s))
    return categories


def create_views(connection: Connection) -> None:
    for view, sql in VIEWS.items():
        connection.execute(f"CREATE MATERIALIZED VIEW {view} AS {sql}")


def discard(durable: Durable) -> None:
    """Release the files without the checkpoint ``close()`` would write."""
    if durable.database.storage is not None:
        durable.database.storage.abandon()
    shutil.rmtree(durable.path, ignore_errors=True)


def state_of(database: Database) -> Dict[str, Any]:
    """Everything recovery must bring back: relations with their change-log
    versions, and the contents of both views."""
    connection = Connection(database)
    state: Dict[str, Any] = {}
    for name in ("r", "s"):
        relation = database.get_relation(name)
        state[name] = (Counter(t.values + (t.start, t.end) for t in relation), relation.version)
    for view in VIEWS:
        state[view] = Counter(connection.execute(f"SELECT * FROM {view}").rows)
    return state


def _registry() -> Dict[str, Any]:
    return obs_metrics.REGISTRY.snapshot()


def run(seed: int, seconds: float, sizes: Dict[str, int], recorder: Optional[Recorder],
        scratch: str) -> Outcome:
    outcome = Outcome()
    n = sizes["write_n"]
    categories = max(1, n // config.TUPLES_PER_CATEGORY)

    def setup(attempt: int) -> Durable:
        path = os.path.join(scratch, f"durable-{attempt}")
        database = Database.open(path, sync=True)
        durable = Durable(path, database, Connection(database))
        try:
            populate(database, seed, n)
            create_views(durable.connection)
            for sql in VIEW_READS:
                durable.connection.execute(sql)
            database.checkpoint()
        except BaseException:
            discard(durable)
            raise
        return durable

    setup_s, durable = timed_setups(setup, discard, sizes["setup_repeats"])
    try:
        _measure(outcome, durable, seed, seconds, sizes, categories, recorder, scratch)
    finally:
        discard(durable)
    outcome.end_to_end["setup_s"] = setup_s
    return outcome


def _measure(outcome: Outcome, durable: Durable, seed: int, seconds: float,
             sizes: Dict[str, int], categories: int, recorder: Optional[Recorder],
             scratch: str) -> None:
    database, connection = durable.database, durable.connection
    wal_path = os.path.join(durable.path, "wal.log")
    snapshot_path = os.path.join(durable.path, "snapshot.bin")
    every = sizes["checkpoint_every"]
    stream = datagen.mutations(seed, categories)

    latencies: List[Tuple[float, bool]] = []  # (seconds, traced)
    cycles: List[float] = []  # VIEW_READ_EVERY mutations and the view read after them
    view_reads: List[float] = []
    checkpoints: List[float] = []
    executed: List[str] = []
    wal_sizes: List[int] = []  # log size after each acknowledged mutation
    appended = user_bytes = 0
    previous_size = os.path.getsize(wal_path)
    prefix: Dict[str, float] = {}
    before = _registry()

    def mutate(mutation: datagen.Mutation) -> None:
        nonlocal appended, user_bytes, previous_size
        index = len(executed)
        # In a traced run every other mutation is traced.
        traced = recorder is not None and index % 2 == 1
        if traced:
            started = perf_counter()
            with recorder.span("client.op", index):
                with recorder.span("sql.parse", index):
                    statement = parse(mutation.sql)
                with recorder.span("sql.dml", index):
                    execute_statement(database, statement)
            elapsed = perf_counter() - started
        else:
            started = perf_counter()
            connection.execute(mutation.sql)
            elapsed = perf_counter() - started
        latencies.append((elapsed, traced))
        outcome.attempted += 1
        executed.append(mutation.sql)
        size = os.path.getsize(wal_path)
        wal_sizes.append(size)
        appended += size - previous_size
        previous_size = size
        user_bytes += mutation.user_bytes
        if len(executed) % VIEW_READ_EVERY == 0:
            started = perf_counter()
            for sql in VIEW_READS:
                connection.execute(sql)
            view_reads.append(perf_counter() - started)
            cycles.append(view_reads[-1] + sum(s for s, _ in latencies[-VIEW_READ_EVERY:]))

    def checkpoint() -> None:
        nonlocal previous_size
        started = perf_counter()
        database.checkpoint()
        checkpoints.append(perf_counter() - started)
        previous_size = os.path.getsize(wal_path)

    started = perf_counter()
    deadline = started + STREAM_SHARE * seconds
    while perf_counter() < deadline or len(executed) < every:
        mutate(next(stream))
        if len(executed) == every:
            # Counts over a fixed prefix repeat exactly for a given seed.
            prefix = {"wal_bytes_per_user_byte": appended / user_bytes,
                      "fsyncs_per_commit":
                          metric_delta(_registry(), before, "wal.fsync_seconds", "count") / every}
        if len(executed) % every == 0:
            checkpoint()
    if len(executed) % every:
        checkpoint()
    snapshot_bytes = os.path.getsize(snapshot_path)
    for _ in range(sizes["crash_suffix"] - 1):
        mutate(next(stream))
    acknowledged = state_of(database)
    acknowledged_size = wal_sizes[-1]
    mutate(datagen.insert_mutation(datagen.stream(seed, "last-mutation"), categories, 0))
    after = _registry()
    live_rows = connection.execute(COUNT_R).rows

    crash = os.path.join(scratch, "crash")
    shutil.copytree(durable.path, crash)  # open, never closed: the crash

    def recover(source: str, truncate_to: Optional[int] = None) -> Tuple[float, Database]:
        target = os.path.join(scratch, "recovering")
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(source, target)
        if truncate_to is not None:
            with open(os.path.join(target, "wal.log"), "r+b") as handle:
                handle.truncate(truncate_to)
        # Databases abandoned by earlier recoveries are cyclic garbage; left
        # alone they make each recovery slower than the one before.
        gc.collect()
        began = perf_counter()
        recovered = Database.open(target, sync=True)
        try:
            rows = Connection(recovered).execute(COUNT_R).rows
        except BaseException:
            recovered.storage.abandon()
            raise
        elapsed = perf_counter() - began
        if truncate_to is None and rows != live_rows:
            outcome.failed += 1
        return elapsed, recovered

    recoveries: List[float] = []
    replayed = 0
    while len(recoveries) < sizes["min_recoveries"] or perf_counter() - started < seconds:
        outcome.attempted += 1
        elapsed, recovered = recover(crash)
        replayed = recovered.storage.stats["replayed_records"]
        recovered.storage.abandon()
        recoveries.append(elapsed)

    # -- durability: only the bytes flushed before the acknowledgement ---------
    torn = acknowledged_size + (wal_sizes[-1] - acknowledged_size) // 2
    outcome.gate("last_frame_was_logged", wal_sizes[-1] > acknowledged_size)
    for label, size in (("truncated_at_ack", acknowledged_size), ("torn_next_frame", torn)):
        _elapsed, recovered = recover(crash, truncate_to=size)
        try:
            outcome.gate(f"{label}.state_at_ack", state_of(recovered) == acknowledged)
            unrefreshed = _registry()
            session = Connection(recovered)
            session.execute(executed[-1])
            for sql in VIEW_READS:
                session.execute(sql)
            refreshed = _registry()
            outcome.gate(
                f"{label}.views_resume_incrementally",
                metric_delta(refreshed, unrefreshed, "view.refresh", label="incremental")
                == metric_delta(refreshed, unrefreshed, "view.refresh") == len(VIEWS),
            )
        finally:
            recovered.storage.abandon()

    plain = [s for s, traced in latencies if not traced]
    everything = [s for s, _ in latencies]
    outcome.end_to_end = {
        # One undisturbed checkpoint period: `every` mutations with their view
        # reads at the lower-quartile cycle (cycles differ in their
        # mutations), then the fastest checkpoint.
        "ops_per_s": every / (
            percentile(cycles, 0.25) * every / VIEW_READ_EVERY + min(checkpoints)
        ),
        "primary_ms": ms(median(plain)),
        "secondary_ms": ms(min(recoveries)),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.samples = {"primary_ms": len(plain), "secondary_ms": len(recoveries)}
    outcome.notes["mutations"] = len(executed)
    outcome.notes["checkpoint_ms"] = [round(ms(t), 1) for t in checkpoints]
    outcome.notes["recovery_ms"] = [round(ms(t), 1) for t in recoveries]
    if recorder is None:
        return

    layers = outcome.layers
    counted = functools.partial(metric_delta, after, before)
    fsyncs = counted("wal.fsync_seconds", "count")
    fsync_seconds = counted("wal.fsync_seconds", "sum")
    traced_times = [s for s, traced in latencies if traced]
    gc.collect()  # as before every timed recovery
    started = perf_counter()
    read_snapshot(os.path.join(crash, "snapshot.bin"))
    snapshot_load = perf_counter() - started
    started = perf_counter()
    read_wal(os.path.join(crash, "wal.log"))
    wal_read = perf_counter() - started
    live_user_bytes = sum(
        len(t.value("cat")) + 8 + 8 + 16 for name in ("r", "s") for t in database.get_relation(name)
    )
    spans = recorder.spans()
    parse_times = [s[2] - s[1] for s in spans if s[0] == "sql.parse"]
    dml_times = [s[2] - s[1] for s in spans if s[0] == "sql.dml"]
    layers.update({
        "sql.parse_ms": ms(median(parse_times)),
        "session.dml_ms": ms(median(dml_times)),
        "client.op_tail_ms": ms(tail(everything)),
        "e2e.mutation_p95_ms": ms(percentile(everything, 0.95)),
        "e2e.view_read_p50_ms": ms(median(view_reads)),
        "e2e.checkpoint_ms": ms(median(checkpoints)),
        "e2e.wal_bytes_per_user_byte": prefix["wal_bytes_per_user_byte"],
        "e2e.fsyncs_per_commit": prefix["fsyncs_per_commit"],
        "storage.fsync_count": fsyncs,
        "storage.fsync_ms_mean": ms(fsync_seconds / max(1, fsyncs)),
        "storage.fsync_share": fsync_seconds / sum(everything),
        "storage.wal_bytes_per_mutation": appended / len(executed),
        "storage.snapshot_bytes_per_user_byte": snapshot_bytes / live_user_bytes,
        "storage.snapshot_load_ms": ms(snapshot_load),
        "storage.wal_replay_ms": ms(wal_read),
        "storage.replayed_records": replayed,
        "relation.derived_hit_share":
            counted("relation.derived", label="hit") / max(1, counted("relation.derived")),
        "views.incremental_share":
            counted("view.refresh", label="incremental") / max(1, counted("view.refresh")),
        "obs.trace_overhead_share": (median(traced_times) - median(plain)) / median(plain),
        "obs.layer_sum_gap_share":
            abs(median(parse_times) + median(dml_times) - median(plain)) / median(plain),
    })
    _twin_layers(layers, seed, sizes["write_n"], executed, everything)


def _twin_layers(layers: Dict[str, float], seed: int, n: int, executed: List[str],
                 durable_times: List[float]) -> None:
    """What the same mutations cost with no log under them, and what a view
    read costs after one mutation against computing the view from scratch."""
    twin = Connection(Database())
    populate(twin.database, seed, n)
    started = perf_counter()
    for sql in VIEWS.values():
        twin.execute(sql)
    layers["views.recompute_ms"] = ms(perf_counter() - started)
    create_views(twin)
    replayed = executed[:TWIN_MUTATIONS]
    memory_times = []
    for sql in replayed:
        started = perf_counter()
        twin.execute(sql)
        memory_times.append(perf_counter() - started)
    # Never clamped: a negative difference is noise worth seeing.
    layers["storage.wal_append_ms"] = ms(
        median(durable_times[: len(replayed)]) - median(memory_times)
    )
    derive: List[float] = []
    refresh: List[float] = []
    for sql in executed[len(replayed):len(replayed) + 10] or replayed[:10]:
        twin.execute(sql)
        started = perf_counter()
        twin.database.get_table("r")
        derive.append(perf_counter() - started)
        started = perf_counter()
        for read in VIEW_READS:
            twin.execute(read)
        refresh.append(perf_counter() - started)
    layers["relation.derive_ms"] = ms(median(derive))
    layers["views.refresh_ms"] = ms(median(refresh))
