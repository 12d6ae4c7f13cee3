"""Analyzer: SQL syntax trees → logical plans.

The analyzer resolves FROM items (base tables, CTEs, derived tables and the
temporal ``ALIGN``/``NORMALIZE`` items), rewrites ``[NOT] EXISTS`` sub-queries
into semi/anti joins, splits select lists into grouping and aggregation, and
stacks projection, duplicate elimination (``DISTINCT``/``ABSORB``), ordering
and limits on top — producing a tree of :mod:`repro.engine.plan` nodes that
the planner can cost and execute.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import plan as logical
from repro.engine.database import Database
from repro.engine.expressions import And, Column, Expression, conjunction
from repro.engine.plan import AggregateCall
from repro.relation.errors import QueryError
from repro.sql import ast


def base_name(column: str) -> str:
    """Unqualified part of a column name (``r.ts`` → ``ts``)."""
    return column.rsplit(".", 1)[-1]


class Analyzer:
    """Translate parsed statements into logical plans against a database."""

    def __init__(self, database: Database):
        self.database = database

    # -- public entry point ------------------------------------------------------------

    def analyze(self, statement: ast.SelectStatement,
                outer_ctes: Optional[Dict[str, logical.LogicalPlan]] = None) -> logical.LogicalPlan:
        ctes: Dict[str, logical.LogicalPlan] = dict(outer_ctes or {})
        for cte in statement.ctes:
            ctes[cte.name] = self.analyze(cte.query, ctes)

        plan = self._analyze_core(statement, ctes)

        if statement.set_operation is not None:
            kind, rhs = statement.set_operation
            plan = logical.SetOp(kind, plan, self.analyze(rhs, ctes))

        if statement.order_by:
            keys = [(item.expression, item.ascending) for item in statement.order_by]
            plan = logical.Sort(plan, keys)
        if statement.limit is not None:
            plan = logical.Limit(plan, statement.limit)
        return plan

    # -- SELECT core --------------------------------------------------------------------

    def _analyze_core(self, statement: ast.SelectStatement,
                      ctes: Dict[str, logical.LogicalPlan]) -> logical.LogicalPlan:
        if not statement.from_items:
            raise QueryError("SELECT without FROM is not supported")

        plan = self._from_plan(statement.from_items[0], ctes)
        for item in statement.from_items[1:]:
            plan = logical.Join(plan, self._from_plan(item, ctes), kind="cross", condition=None)

        if statement.where is not None:
            plan = self._apply_where(plan, statement.where, ctes)

        has_aggregates = bool(statement.group_by) or any(
            isinstance(item.expression, ast.AggregateExpression) for item in statement.items
        )
        if has_aggregates:
            plan = self._apply_aggregation(plan, statement)
        else:
            plan = self._apply_projection(plan, statement.items)

        if statement.having is not None:
            plan = logical.Filter(plan, statement.having)

        if statement.distinct:
            plan = logical.Distinct(plan)
        if statement.absorb:
            plan = self._apply_absorb(plan)
        return plan

    # -- FROM resolution -----------------------------------------------------------------

    def _from_plan(self, item: ast.FromItem,
                   ctes: Dict[str, logical.LogicalPlan]) -> logical.LogicalPlan:
        if isinstance(item, ast.TableName):
            if item.name in ctes:
                child = ctes[item.name]
                return self._aliased(child, item.alias or item.name)
            columns = self.database.columns_of(item.name)
            return logical.Scan(item.name, columns, alias=item.alias or item.name)

        if isinstance(item, ast.SubqueryRef):
            child = self.analyze(item.query, ctes)
            return self._aliased(child, item.alias)

        if isinstance(item, ast.AlignRef):
            left = self._from_plan(item.left, ctes)
            right = self._from_plan(item.right, ctes)
            aligned = logical.Align(left, right, item.condition)
            return self._aliased(aligned, item.alias)

        if isinstance(item, ast.NormalizeRef):
            left = self._from_plan(item.left, ctes)
            right = self._from_plan(item.right, ctes)
            using = [(name, name) for name in item.using]
            normalized = logical.Normalize(left, right, using)
            return self._aliased(normalized, item.alias)

        if isinstance(item, ast.JoinRef):
            left = self._from_plan(item.left, ctes)
            right = self._from_plan(item.right, ctes)
            return logical.Join(left, right, kind=item.kind, condition=item.condition)

        raise QueryError(f"unsupported FROM item {item!r}")

    def _aliased(self, child: logical.LogicalPlan, alias: str) -> logical.LogicalPlan:
        names: List[str] = []
        taken: set = set()
        for column in child.columns:
            name = f"{alias}.{base_name(column)}"
            suffix = 2
            while name in taken:
                name = f"{alias}.{base_name(column)}_{suffix}"
                suffix += 1
            taken.add(name)
            names.append(name)
        return logical.Rename(child, names)

    # -- WHERE (with EXISTS rewriting) ------------------------------------------------------

    def _apply_where(self, plan: logical.LogicalPlan, where: Expression,
                     ctes: Dict[str, logical.LogicalPlan]) -> logical.LogicalPlan:
        conjuncts = _split_conjuncts(where)
        plain: List[Expression] = []
        exists_items: List[Tuple[ast.ExistsExpression, bool]] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.ExistsExpression):
                exists_items.append((conjunct, conjunct.negated))
            elif isinstance(conjunct, logical.Filter):  # pragma: no cover - defensive
                plain.append(conjunct)
            elif _is_negated_exists(conjunct):
                exists_items.append((conjunct.operand, True))  # type: ignore[attr-defined]
            else:
                plain.append(conjunct)

        residual = conjunction(plain)
        if residual is not None:
            plan = logical.Filter(plan, residual)

        for exists, negated in exists_items:
            plan = self._rewrite_exists(plan, exists, negated, ctes)
        return plan

    def _rewrite_exists(self, outer: logical.LogicalPlan, exists: ast.ExistsExpression,
                        negated: bool, ctes: Dict[str, logical.LogicalPlan]) -> logical.LogicalPlan:
        """Rewrite ``[NOT] EXISTS (SELECT ... FROM inner WHERE cond)`` into a
        semi/anti join whose condition is the sub-query's WHERE clause.

        Correlated references to the outer query resolve naturally because
        the join condition is bound against the concatenated column lists of
        the outer plan and the sub-query's FROM clause.
        """
        query = exists.query
        if query.group_by or query.having or query.set_operation or query.order_by:
            raise QueryError("EXISTS sub-queries must be simple SELECT ... FROM ... WHERE ...")
        if not query.from_items:
            raise QueryError("EXISTS sub-query needs a FROM clause")

        inner = self._from_plan(query.from_items[0], ctes)
        for item in query.from_items[1:]:
            inner = logical.Join(inner, self._from_plan(item, ctes), kind="cross", condition=None)

        kind = "anti" if negated else "semi"
        return logical.Join(outer, inner, kind=kind, condition=query.where)

    # -- projection and aggregation -----------------------------------------------------------

    def _expand_items(self, plan: logical.LogicalPlan,
                      items: Sequence[ast.SelectItem]) -> List[Tuple[Expression, str]]:
        expressions: List[Tuple[Expression, str]] = []
        taken: set = set()

        def output_name(preferred: str) -> str:
            name = preferred
            suffix = 2
            while name in taken:
                name = f"{preferred}_{suffix}"
                suffix += 1
            taken.add(name)
            return name

        for item in items:
            if item.wildcard is not None:
                prefix = f"{item.wildcard}." if item.wildcard else ""
                for column in plan.columns:
                    if prefix and not column.startswith(prefix):
                        continue
                    expressions.append((Column(column), output_name(base_name(column))))
                continue
            assert item.expression is not None
            if item.alias:
                preferred = item.alias
            elif isinstance(item.expression, Column):
                preferred = base_name(item.expression.name)
            else:
                preferred = f"col{len(expressions) + 1}"
            expressions.append((item.expression, output_name(preferred)))
        return expressions

    def _apply_projection(self, plan: logical.LogicalPlan,
                          items: Sequence[ast.SelectItem]) -> logical.LogicalPlan:
        return logical.Project(plan, self._expand_items(plan, items))

    def _apply_aggregation(self, plan: logical.LogicalPlan,
                           statement: ast.SelectStatement) -> logical.LogicalPlan:
        group_by: List[Tuple[Expression, str]] = []
        group_reprs: Dict[str, str] = {}
        for index, expression in enumerate(statement.group_by):
            if isinstance(expression, Column):
                name = base_name(expression.name)
            else:
                name = f"__g{index}"
            group_by.append((expression, name))
            group_reprs[repr(expression)] = name

        aggregates: List[AggregateCall] = []
        output: List[Tuple[Expression, str]] = []
        for index, item in enumerate(statement.items):
            if item.wildcard is not None:
                raise QueryError("SELECT * cannot be combined with aggregation")
            expression = item.expression
            assert expression is not None
            if isinstance(expression, ast.AggregateExpression):
                name = item.alias or f"{expression.function.lower()}_{index + 1}"
                aggregates.append(AggregateCall(expression.function, expression.argument, name))
                output.append((Column(name), name))
                continue
            key = repr(expression)
            if key in group_reprs:
                name = item.alias or group_reprs[key]
                output.append((Column(group_reprs[key]), name))
                continue
            if isinstance(expression, Column):
                # Allow selecting a grouping column referenced by (qualified) name.
                matching = [n for e, n in group_by
                            if isinstance(e, Column) and base_name(e.name) == base_name(expression.name)]
                if matching:
                    output.append((Column(matching[0]), item.alias or base_name(expression.name)))
                    continue
            raise QueryError(
                f"select item {expression!r} is neither an aggregate nor in GROUP BY"
            )

        aggregated = logical.Aggregate(plan, group_by, aggregates)
        return logical.Project(aggregated, output)

    # -- ABSORB ------------------------------------------------------------------------------

    def _apply_absorb(self, plan: logical.LogicalPlan) -> logical.LogicalPlan:
        start = _find_column(plan.columns, "ts")
        end = _find_column(plan.columns, "te")
        return logical.Absorb(plan, start=start, end=end)


def _split_conjuncts(expression: Expression) -> List[Expression]:
    if isinstance(expression, And):
        result: List[Expression] = []
        for operand in expression.operands:
            result.extend(_split_conjuncts(operand))
        return result
    return [expression]


def _is_negated_exists(expression: Expression) -> bool:
    from repro.engine.expressions import Not

    return isinstance(expression, Not) and isinstance(expression.operand, ast.ExistsExpression)


def _find_column(columns: Sequence[str], base: str) -> str:
    for column in columns:
        if base_name(column) == base:
            return column
    raise QueryError(
        f"ABSORB requires {base!r} among the output columns; got {list(columns)}"
    )
