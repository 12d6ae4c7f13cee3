"""Execution of the temporal DML and materialized-view statements.

The SELECT pipeline (parse → analyze → plan → execute) does not fit
mutations: a DML statement targets exactly one registered temporal relation
and evaluates its scalar expressions against single tuples, not joined rows.
This module is that second, much smaller pipeline.  Each executor returns a
one-row status table (``operation``, ``target``, ``rows``), mirroring the
command tags a PostgreSQL client sees.

Sequenced semantics are inherited from
:class:`~repro.relation.relation.TemporalRelation`: ``FOR PERIOD [a, b)``
restricts the mutation to the period and splits affected tuples at its
boundaries; ``INSERT ... VALID PERIOD [a, b)`` supplies the valid-time
interval of the inserted rows.

``CREATE MATERIALIZED VIEW`` performs shape analysis on the SELECT: a single
``ALIGN``/``NORMALIZE`` FROM item over base relations (optionally with WHERE
and a plain-column select list) becomes an *incrementally maintained* view in
the database's :class:`~repro.views.catalog.ViewCatalog`; any other SELECT
still materializes, as a recompute-maintained view.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.expressions import Column, Expression
from repro.engine.table import Table
from repro.relation.errors import QueryError
from repro.relation.relation import TemporalRelation
from repro.relation.tuple import TemporalTuple
from repro.sql import ast
from repro.temporal.interval import Interval


def _status(operation: str, target: str, rows: int) -> Table:
    return Table("result", ("operation", "target", "rows"), [(operation, target, rows)])


def _constant(expression: Expression, what: str) -> Any:
    """Evaluate a scalar expression that may not reference any column."""
    try:
        return expression.bind([])(())
    except QueryError as error:
        raise QueryError(f"{what} must be a constant expression: {error}") from None


def _period(literal: Optional[ast.PeriodLiteral]) -> Optional[Interval]:
    if literal is None:
        return None
    start = _constant(literal.start, "period start")
    end = _constant(literal.end, "period end")
    if not isinstance(start, int) or not isinstance(end, int):
        raise QueryError(f"period bounds must be integers, got [{start!r}, {end!r})")
    if end <= start:
        raise QueryError(f"empty or inverted period [{start}, {end})")
    return Interval(start, end)


def _tuple_columns(table_name: str, relation: TemporalRelation) -> List[str]:
    """The row layout DML expressions are bound against: attrs then ts/te."""
    return [f"{table_name}.{a}" for a in relation.schema.attribute_names] + [
        f"{table_name}.ts",
        f"{table_name}.te",
    ]


def _tuple_predicate(
    where: Optional[Expression], columns: Sequence[str]
) -> Optional[Callable[[TemporalTuple], bool]]:
    if where is None:
        return None
    bound = where.bind(list(columns))

    def predicate(t: TemporalTuple) -> bool:
        return bool(bound(t.values + (t.start, t.end)))

    return predicate


def execute_statement(database: Database, statement: ast.Statement) -> Table:
    """Run one non-SELECT statement and return its status table."""
    from repro.sql.explain import execute_observability

    observability = execute_observability(database, statement)
    if observability is not None:
        return observability
    if isinstance(statement, ast.InsertStatement):
        return _execute_insert(database, statement)
    if isinstance(statement, ast.UpdateStatement):
        return _execute_update(database, statement)
    if isinstance(statement, ast.DeleteStatement):
        return _execute_delete(database, statement)
    if isinstance(statement, ast.CreateViewStatement):
        return _execute_create_view(database, statement)
    if isinstance(statement, ast.DropViewStatement):
        database.views.drop(statement.name)
        return _status("DROP MATERIALIZED VIEW", statement.name, 0)
    if isinstance(statement, ast.RefreshViewStatement):
        view = database.views.get(statement.name)
        # An explicit REFRESH is the escape hatch for untracked dependencies
        # (plain tables): rebuild unconditionally instead of trusting the
        # staleness signal.
        outcome = view.refresh(force=True)
        return _status(f"REFRESH MATERIALIZED VIEW ({outcome})", statement.name, 0)
    if isinstance(statement, ast.CheckpointStatement):
        outcome = database.checkpoint()
        target = database.storage.path if database.storage is not None else ""
        return _status(f"CHECKPOINT ({outcome})", target, 0)
    if isinstance(
        statement, (ast.BeginStatement, ast.CommitStatement, ast.RollbackStatement)
    ):
        raise QueryError(
            "transaction statements require a session; use Database.session() "
            "(or the network client) instead of a bare Connection"
        )
    raise QueryError(f"unsupported statement {type(statement).__name__}")


# -- DML --------------------------------------------------------------------------------
#
# Each statement compiles to the plain arguments of the relation-level
# mutation API.  The compile step is separate from execution because two
# callers share it: auto-commit statements below apply the mutation to the
# live relation, while a session with an open transaction feeds the same
# compiled arguments to its deferred workspace
# (:meth:`repro.engine.transactions.Transaction`) — identical statements must
# mutate identically on both paths or commit-order replay would diverge.


def compile_insert(
    relation: TemporalRelation, statement: ast.InsertStatement
) -> List[Tuple[Tuple[Any, ...], Interval]]:
    """Validate an INSERT and return its ``(values, interval)`` rows."""
    attributes = list(relation.schema.attribute_names)
    columns = statement.columns if statement.columns is not None else attributes
    unknown = [c for c in columns if c not in attributes]
    if unknown:
        raise QueryError(
            f"unknown column(s) {unknown} in INSERT INTO {statement.table}; "
            f"nontemporal columns are {attributes}"
        )
    if sorted(columns) != sorted(attributes):
        missing = [a for a in attributes if a not in columns]
        raise QueryError(
            f"INSERT INTO {statement.table} must cover all nontemporal columns; "
            f"missing {missing} (the timestamp comes from VALID PERIOD)"
        )
    interval = _period(statement.period)
    assert interval is not None  # the grammar makes VALID PERIOD mandatory

    rows: List[Tuple[Tuple[Any, ...], Interval]] = []
    for value_list in statement.rows:
        if len(value_list) != len(columns):
            raise QueryError(
                f"INSERT row has {len(value_list)} values for {len(columns)} columns"
            )
        by_name = {
            name: _constant(expression, "INSERT value")
            for name, expression in zip(columns, value_list)
        }
        rows.append((tuple(by_name[a] for a in attributes), interval))
    return rows


def compile_update(
    relation: TemporalRelation, statement: ast.UpdateStatement
) -> Tuple[
    dict,
    Optional[Callable[[TemporalTuple], bool]],
    Optional[Interval],
]:
    """Compile an UPDATE to ``(assignments, predicate, period)``."""
    columns = _tuple_columns(statement.table, relation)
    attributes = relation.schema.attribute_names
    assignments = {}
    for name, expression in statement.assignments:
        if name not in attributes:
            raise QueryError(
                f"cannot SET unknown column {name!r}; nontemporal columns are "
                f"{list(attributes)}"
            )
        bound = expression.bind(columns)
        assignments[name] = (
            lambda t, evaluate=bound: evaluate(t.values + (t.start, t.end))
        )
    return (
        assignments,
        _tuple_predicate(statement.where, columns),
        _period(statement.period),
    )


def compile_delete(
    relation: TemporalRelation, statement: ast.DeleteStatement
) -> Tuple[Optional[Callable[[TemporalTuple], bool]], Optional[Interval]]:
    """Compile a DELETE to ``(predicate, period)``."""
    columns = _tuple_columns(statement.table, relation)
    return (
        _tuple_predicate(statement.where, columns),
        _period(statement.period),
    )


def _execute_insert(database: Database, statement: ast.InsertStatement) -> Table:
    relation = database.get_relation(statement.table)
    rows = compile_insert(relation, statement)
    database.insert_rows(statement.table, rows)
    return _status("INSERT", statement.table, len(rows))


def _execute_update(database: Database, statement: ast.UpdateStatement) -> Table:
    relation = database.get_relation(statement.table)
    assignments, predicate, period = compile_update(relation, statement)
    deltas = database.update_rows(
        statement.table, assignments, predicate=predicate, period=period
    )
    touched = sum(1 for d in deltas if d.sign == "-")
    return _status("UPDATE", statement.table, touched)


def _execute_delete(database: Database, statement: ast.DeleteStatement) -> Table:
    relation = database.get_relation(statement.table)
    predicate, period = compile_delete(relation, statement)
    deltas = database.delete_rows(
        statement.table, predicate=predicate, period=period
    )
    touched = sum(1 for d in deltas if d.sign == "-")
    return _status("DELETE", statement.table, touched)


# -- CREATE MATERIALIZED VIEW -----------------------------------------------------------


def _execute_create_view(database: Database, statement: ast.CreateViewStatement) -> Table:
    view = _try_incremental_view(database, statement.name, statement.query)
    if view is None:
        from repro.sql.analyzer import Analyzer

        plan = Analyzer(database).analyze(statement.query)
        view = database.views.create_recompute_view(statement.name, plan)
        kind = "recompute"
    else:
        kind = view.kind
    return _status(
        f"CREATE MATERIALIZED VIEW ({kind})",
        statement.name,
        sum(1 for _ in view.iter_rows()),
    )


def _try_incremental_view(
    database: Database, name: str, query: ast.SelectStatement
):
    """Build an incrementally maintained view when the SELECT's shape allows.

    Supported shape: ``SELECT <* | plain columns> FROM (a ALIGN b ON θ |
    a NORMALIZE b USING(...)) alias [WHERE σ]`` over registered base
    relations.  WHERE becomes a per-fragment filter and a column select list
    becomes a per-fragment projection — both maintained incrementally.
    Returns ``None`` (→ recompute view) for every other shape.
    """
    if (
        query.ctes
        or query.set_operation
        or query.order_by
        or query.limit is not None
        or query.group_by
        or query.having is not None
        or query.distinct
        or query.absorb
        or len(query.from_items) != 1
    ):
        return None
    item = query.from_items[0]
    if not isinstance(item, (ast.AlignRef, ast.NormalizeRef)):
        return None
    if not isinstance(item.left, ast.TableName) or not isinstance(item.right, ast.TableName):
        return None
    left_name, right_name = item.left.name, item.right.name
    if left_name not in database.relations or right_name not in database.relations:
        return None
    base = database.relations[left_name]

    # Downstream operators are handed over as *serializable specs* (the
    # expression plus the column layout it binds against) — the view compiles
    # them to per-fragment closures and keeps the spec for persistence.
    downstream: List[Tuple[Any, ...]] = []
    if query.where is not None:
        alias = item.alias
        columns = [f"{alias}.{a}" for a in base.schema.attribute_names] + [
            f"{alias}.ts",
            f"{alias}.te",
        ]
        downstream.append(("filter", query.where, tuple(columns)))

    projection = _projection_attributes(query.items, base)
    if projection is False:
        return None  # select list too complex for fragment-level maintenance
    if projection is not None:
        downstream.append(("project", projection))

    if isinstance(item, ast.AlignRef):
        return database.views.create_align_view(
            name,
            left_name,
            right_name,
            condition=item.condition,
            downstream=downstream,
            base_alias=item.left.alias,
            reference_alias=item.right.alias,
        )
    using = [a for a in item.using]
    if any(a not in base.schema.attribute_names for a in using):
        return None
    return database.views.create_normalize_view(
        name, left_name, right_name, attributes=using, downstream=downstream
    )


def _projection_attributes(items: Sequence[ast.SelectItem], base: TemporalRelation):
    """Projection attribute list implied by a select list.

    ``None`` means "no projection" (``SELECT *``); ``False`` means the list
    is not a plain attribute selection and fragment-level maintenance cannot
    represent it.
    """
    if len(items) == 1 and items[0].wildcard is not None:
        return None
    attributes: List[str] = []
    for item in items:
        if item.wildcard is not None or not isinstance(item.expression, Column):
            return False
        if item.alias is not None:
            return False
        base_name = item.expression.name.rsplit(".", 1)[-1]
        if base_name in ("ts", "te"):
            continue  # the timestamp is implicit in the materialized relation
        if base_name not in base.schema.attribute_names:
            return False
        attributes.append(base_name)
    if not attributes:
        return False
    return tuple(attributes)
