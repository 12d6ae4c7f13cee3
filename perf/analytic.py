"""``analytic_keyed`` and ``analytic_theta``: embedded queries, one driver.

Both run a fixed query set through ``Connection.execute`` on default
``Settings()`` (the planner's choice is part of what is measured), pass after
pass until the measurement time is used.  They differ in which adjustment path
the planner can take: every ``analytic_keyed`` query has a pure equality key
(columnar kernels), every heavy ``analytic_theta`` query has a condition the
kernels cannot express (row pipeline, interval join).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.sql_outer_join import sql_outer_join
from repro.columnar.encoding import encode_relation
from repro.core import align_relation, normalize, predicates
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.sql.analyzer import Analyzer
from repro.sql.interface import Connection
from repro.sql.parser import parse

from perf import config, datagen
from perf.common import (
    Outcome, checksum, kernel_seconds, median, ms, peak_rss_mb, shm_segments, strategy_labels,
    timed_setups,
)
from perf.trace import END, NAME, START, Recorder

Rows = List[Tuple]
Relations = Dict[str, TemporalRelation]


def _rows(relation: TemporalRelation) -> Rows:
    return [t.values + (t.start, t.end) for t in relation]


@dataclass
class Query:
    name: str
    sql: str
    #: Does the engine's result equal the independent route's, as a multiset?
    check: Callable[[Rows, Relations], bool]
    #: Base relations the query reads, for rows-in per row-out.
    reads: Tuple[str, ...]


def _same(reference: Callable[[Relations], Rows]) -> Callable[[Rows, Relations], bool]:
    return lambda rows, relations: Counter(rows) == Counter(reference(relations))


def _outer_join_sample(rows: Rows, relations: Relations) -> bool:
    """K3 against the NOT-EXISTS baseline on every tenth category.

    Categories partition a keyed outer join, so the sample's rows of the
    result are exactly the join of the sample's tuples; the baseline is
    quadratic per category, which is why it is not run on all of them.
    """
    sample = {t.value("cat") for t in relations["r"]}
    sample = set(sorted(sample)[::10])
    def keep(t: Any) -> bool:
        return t.value("cat") in sample
    expected = sql_outer_join(
        relations["r"].filter(keep), relations["s"].filter(keep), equi_attributes=["cat"]
    )
    return Counter(row for row in rows if row[0] in sample) == Counter(_rows(expected))


def _aggregate_reference(relations: Relations) -> Rows:
    pieces = normalize(relations["r"], relations["r"], ["cat"], strategy="sweep")
    groups = Counter((t.value("cat"), t.start, t.end) for t in pieces)
    return [(cat, count, start, end) for (cat, start, end), count in groups.items()]


def _limit_check(rows: Rows, relations: Relations) -> bool:
    full = Counter(_rows(align_relation(
        relations["r"], relations["s"], equi_attributes=["cat"], strategy="sweep"
    )))
    return len(rows) == min(100, sum(full.values())) and not Counter(rows) - full


def _duration_reference(left: str, right: str) -> Callable[[Relations], Rows]:
    theta = predicates.duration_between("U", "min_dur", "max_dur", propagated_on_left=True)

    def reference(relations: Relations) -> Rows:
        aligned = align_relation(
            relations[left].extend("U"), relations[right], theta=theta, strategy="sweep"
        )
        return [
            (t.value("U").start, t.value("U").end) + t.values[:3] + (t.start, t.end)
            for t in aligned
        ]

    return reference


def _duration_sql(left: str, right: str) -> str:
    return (
        f"WITH ru AS (SELECT ts us, te ue, * FROM {left}) SELECT * FROM "
        f"(ru ALIGN {right} ON DUR(us, ue) BETWEEN {right}.min_dur AND {right}.max_dur) x"
    )


KEYED_ALIGN = "SELECT * FROM (r ALIGN s ON r.cat = s.cat) x"

KEYED = [
    Query("K1", KEYED_ALIGN, _same(lambda rel: _rows(align_relation(
        rel["r"], rel["s"], equi_attributes=["cat"], strategy="sweep"))), ("r", "s")),
    Query("K2", "SELECT * FROM (r r1 NORMALIZE s s1 USING(cat)) x", _same(lambda rel: _rows(
        normalize(rel["r"], rel["s"], ["cat"], strategy="sweep"))), ("r", "s")),
    Query(
        "K3",
        "SELECT ABSORB r1.cat, r1.min_dur, r1.max_dur, s1.cat AS s_cat, s1.min_dur AS s_min, "
        "s1.max_dur AS s_max, r1.ts, r1.te "
        "FROM (r ALIGN s ON r.cat = s.cat) r1 LEFT OUTER JOIN (s ALIGN r ON s.cat = r.cat) s1 "
        "ON r1.cat = s1.cat AND r1.ts = s1.ts AND r1.te = s1.te",
        _outer_join_sample, ("r", "s", "s", "r"),
    ),
    Query(
        "K4",
        "SELECT cat, COUNT(*) c, ts, te FROM (r r1 NORMALIZE r r2 USING(cat)) x "
        "GROUP BY cat, ts, te",
        _same(_aggregate_reference), ("r", "r"),
    ),
]

THETA = [
    Query(
        "T1", "SELECT * FROM (r ALIGN s ON r.cat = s.cat AND r.min_dur < s.max_dur) x",
        _same(lambda rel: _rows(align_relation(
            rel["r"], rel["s"], theta=lambda a, b: a.value("min_dur") < b.value("max_dur"),
            equi_attributes=["cat"], strategy="sweep"))),
        ("r", "s"),
    ),
    Query("T2rand", _duration_sql("r", "s"), _same(_duration_reference("r", "s")), ("r", "s")),
    Query("T2disj", _duration_sql("rd", "sd"), _same(_duration_reference("rd", "sd")),
          ("rd", "sd")),
    Query("T2eq", _duration_sql("re", "se"), _same(_duration_reference("re", "se")), ("re", "se")),
    Query("T3", "SELECT * FROM (r r1 NORMALIZE s s1 USING()) x", _same(lambda rel: _rows(
        normalize(rel["r"], rel["s"], (), strategy="sweep"))), ("r", "s")),
    Query("T4", KEYED_ALIGN + " LIMIT 100", _limit_check, ("r", "s")),
]

#: workload -> (queries, the query behind ``secondary_ms``, and the kernel
#: calls one pass makes: (kind, left, right, key attributes)).
WORKLOADS = {
    "analytic_keyed": (KEYED, "K1", [
        ("align", "r", "s", ("cat",)), ("normalize", "r", "s", ("cat",)),
        ("align", "r", "s", ("cat",)), ("align", "s", "r", ("cat",)),
        ("normalize", "r", "r", ("cat",)),
    ]),
    "analytic_theta": (THETA, "T4", [
        ("normalize", "r", "s", ()), ("align", "r", "s", ("cat",)),
    ]),
}


def generate(name: str, seed: int, sizes: Dict[str, int]) -> Dict[str, datagen.Row]:
    """The workload's relations as plain rows, by table name."""
    if name == "analytic_keyed":
        n = sizes["keyed_n"]
        r, s = datagen.drand(n, max(1, n // config.TUPLES_PER_CATEGORY), datagen.stream(seed, name))
        return {"r": r, "s": s}
    n = sizes["theta_n"]
    categories = max(1, n // config.TUPLES_PER_CATEGORY)
    tables = {}
    families = (("", "rand", n), ("d", "disj", n), ("e", "eq", sizes["theta_eq_n"]))
    for suffix, family, size in families:
        rng = datagen.stream(seed, f"{name}-{family}")
        r, s = datagen.FAMILIES[family](size, categories, rng)
        tables["r" + suffix], tables["s" + suffix] = r, s
    return tables


@dataclass
class State:
    relations: Relations
    connection: Connection
    #: query name -> rows of the warm-up pass.
    warm: Dict[str, Rows]


def run(name: str, seed: int, seconds: float, sizes: Dict[str, int],
        recorder: Optional[Recorder]) -> Outcome:
    queries, secondary, kernel_calls = WORKLOADS[name]
    outcome = Outcome()
    shm_before = shm_segments()

    def setup(_attempt: int) -> State:
        relations = {
            table: datagen.to_relation(rows) for table, rows in generate(name, seed, sizes).items()
        }
        connection = Connection(Database())
        for table, relation in relations.items():
            connection.register_relation(table, relation)
        warm = {query.name: connection.execute(query.sql).rows for query in queries}
        return State(relations, connection, warm)

    setup_s, state = timed_setups(setup, lambda _state: None, sizes["setup_repeats"])
    expected = {query.name: checksum(state.warm[query.name]) for query in queries}
    connection = state.connection
    database = connection.database
    analyzer = Analyzer(database)

    plain_passes: List[float] = []
    traced_passes: List[float] = []
    per_query: Dict[str, List[float]] = {query.name: [] for query in queries}
    deadline = perf_counter() + seconds
    while True:
        traced = recorder is not None and len(plain_passes) > len(traced_passes)
        total = 0.0
        for query in queries:
            if traced:
                op = (query.name, len(traced_passes))
                started = perf_counter()
                with recorder.span("client.op", op):
                    with recorder.span("sql.parse", op):
                        statement = parse(query.sql)
                    with recorder.span("sql.analyze", op):
                        logical = analyzer.analyze(statement)
                    with recorder.span("optimizer.plan", op):
                        physical = database.plan(logical)
                    with recorder.span("executor.execute", op):
                        table = database.execute(physical, sql=query.sql)
                elapsed = perf_counter() - started
            else:
                started = perf_counter()
                table = connection.execute(query.sql)
                elapsed = perf_counter() - started
                per_query[query.name].append(elapsed)
            total += elapsed
            outcome.attempted += 1
            if checksum(table.rows) != expected[query.name]:
                outcome.failed += 1
        (traced_passes if traced else plain_passes).append(total)
        done = len(plain_passes) + len(traced_passes)
        if perf_counter() >= deadline and done >= sizes["min_passes"] and not traced:
            break

    for query in queries:
        outcome.gate(f"{query.name}.independent_route",
                     query.check(state.warm[query.name], state.relations))
    shm_after = shm_segments()
    outcome.gate("no_leaked_shm", shm_before is None or shm_after <= shm_before)

    outcome.end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": len(queries) / min(plain_passes),
        "primary_ms": ms(min(plain_passes)),
        "secondary_ms": ms(min(per_query[secondary])),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.samples = {"primary_ms": len(plain_passes), "secondary_ms": len(plain_passes)}
    outcome.notes["query_p50_ms"] = {q: ms(median(v)) for q, v in per_query.items()}
    if recorder is not None:
        _layers(outcome, recorder, state, queries, kernel_calls, plain_passes, traced_passes)
    return outcome


#: Plan nodes whose EXPLAIN line says which adjustment strategy was chosen.
STRATEGY_NODES = ("Adjustment", "IntervalJoin", "Exchange")


def _layers(outcome: Outcome, recorder: Recorder, state: State, queries: Sequence[Query],
            kernel_calls: Sequence[Tuple], plain_passes: Sequence[float],
            traced_passes: Sequence[float]) -> None:
    """Per-layer numbers of one pass, from the spans and from direct probes."""
    layers = outcome.layers
    passes = max(1, len(traced_passes))
    totals = {"client.op": 0.0, "sql.parse": 0.0, "sql.analyze": 0.0,
              "optimizer.plan": 0.0, "executor.execute": 0.0}
    for span in recorder.spans():
        totals[span[NAME]] += span[END] - span[START]
    layers["sql.parse_ms"] = ms(totals["sql.parse"]) / passes
    layers["sql.analyze_ms"] = ms(totals["sql.analyze"]) / passes
    layers["optimizer.plan_ms"] = ms(totals["optimizer.plan"]) / passes
    layers["executor.execute_ms"] = ms(totals["executor.execute"]) / passes
    layers["executor.op_share"] = totals["executor.execute"] / totals["client.op"]
    plain, traced = median(plain_passes), median(traced_passes)
    layers["obs.trace_overhead_share"] = (traced - plain) / plain
    layer_sum = sum(totals[k] for k in totals if k != "client.op") / passes
    layers["obs.layer_sum_gap_share"] = abs(layer_sum - plain) / plain

    connection = state.connection
    database = connection.database
    rows_out = rows_in = 0
    qerror = 1.0
    strategies = {}
    columnar = row = 0
    for query in queries:
        physical = database.plan(connection.logical_plan(query.sql))
        actual = max(1, len(state.warm[query.name]))
        rows_out += len(state.warm[query.name])
        rows_in += sum(len(state.relations[table]) for table in query.reads)
        estimate = max(1.0, physical.estimated_rows)
        qerror = max(qerror, estimate / actual, actual / estimate)
        labels = strategy_labels(physical, STRATEGY_NODES)
        strategies[query.name] = labels
        columnar += sum(label.startswith("ColumnarAdjustment") for label in labels)
        row += sum(label.startswith("Adjustment") for label in labels)
    layers["optimizer.qerror_root"] = qerror
    layers["optimizer.columnar_adjustments"] = columnar
    layers["optimizer.row_adjustments"] = row
    layers["executor.rows_out"] = rows_out
    layers["executor.rows_in_per_row_out"] = rows_in / max(1, rows_out)
    outcome.notes["optimizer.strategy"] = strategies

    def fresh(table: str) -> TemporalRelation:
        relation = state.relations[table]
        return TemporalRelation(relation.schema, relation.tuples())

    def timed(call: Callable[..., Any], copies: Sequence[str] = (), repeats: int = 3) -> float:
        """Median time of ``call`` on fresh copies (no cached encoding or
        index) of the named relations."""
        times = []
        for _ in range(repeats):
            arguments = [fresh(table) for table in copies]
            started = perf_counter()
            call(*arguments)
            times.append(perf_counter() - started)
        return median(times)

    layers["columnar.encode_ms"] = ms(timed(
        lambda r, s: (encode_relation(r, ("cat",)), encode_relation(s, ("cat",))), ("r", "s")))
    kernel = sum(
        kernel_seconds(kind, state.relations[left], state.relations[right], attributes)
        for kind, left, right, attributes in kernel_calls
    )
    layers["columnar.kernel_ms"] = ms(kernel)
    layers["columnar.kernel_share"] = ms(kernel) / layers["executor.execute_ms"]
    layers["core.align_ms"] = ms(timed(
        lambda r, s: align_relation(r, s, equi_attributes=["cat"]), ("r", "s")))
    layers["core.normalize_ms"] = ms(timed(lambda r, s: normalize(r, s, ["cat"]), ("r", "s")))
