"""The materialized view classes and their maintenance algorithms.

Two incremental view kinds cover the adjustment primitives:

* :class:`AlignView` — ``base Φθ reference`` (Def. 11).  Fragments are kept
  per base *rowid*; a base delta re-aligns one tuple against the overlap
  group probed from the reference's interval index, a reference delta
  re-aligns only the base tuples whose group gains or loses the changed
  tuple (overlap ∧ θ — the same membership test as the group construction).
* :class:`NormalizeView` — ``N_B(base; reference)`` (Def. 9).  The view owns
  a per-key endpoint multiset; a reference delta changes split points only
  for its ``B``-key, and only base tuples of that key whose interval strictly
  contains a changed point are re-split.

Both run each refresh through the optimizer's
:func:`~repro.engine.optimizer.cost.maintenance_strategy`: when the pending
delta batch is large relative to the relation sizes, a full recompute is
cheaper than delta chasing and the view rebuilds from scratch.

:class:`RecomputeView` is the fallback kind for arbitrary SELECTs (e.g.
aggregation on top of adjustment): it stores the result table and re-executes
its plan when a dependency's version moved — still a materialized view, just
maintained by recomputation only.

Downstream operators (σ/π) are folded into the incremental kinds per
fragment: a maintained fragment passes the filter predicates and projections
before it reaches the result, so σ/π-on-top-of-adjustment views stay
incremental too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.primitives import align_tuple
from repro.core.sweep import ThetaPredicate
from repro.engine.optimizer import cost
from repro.engine.optimizer.settings import Settings
from repro.engine.table import Table
from repro.obs import metrics as obs_metrics
from repro.relation.changelog import ChangeLogTruncatedError, Delta
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.relation.tuple import TemporalTuple

#: A downstream operator folded into fragment maintenance, in *serializable*
#: form: ``("filter", where_expression, bound_columns)`` — an engine
#: :class:`~repro.engine.expressions.Expression` plus the column layout it
#: binds against — or ``("project", attribute_names)``.  Specs (not compiled
#: closures) are what views carry so their definitions survive in snapshots
#: and the write-ahead log.
DownstreamOp = Tuple[Any, ...]

_REFRESH_COUNTER = obs_metrics.counter("view.refresh", label_name="outcome")


def _count_refresh(outcome: str) -> str:
    """Count a non-trivial refresh on ``view.refresh{incremental|recompute}``."""
    _REFRESH_COUNTER.inc(
        label="recompute" if outcome == "recomputed" else "incremental"
    )
    return outcome


def compile_downstream(spec: Sequence[DownstreamOp]) -> List[Tuple[str, Any, str]]:
    """Compile downstream specs into the executable per-fragment form.

    ``("filter", expression, columns)`` becomes a tuple predicate bound to
    ``columns`` (the alias-qualified engine layout ``attrs…, ts, te``);
    ``("project", attrs)`` stays a projection.  The compiled triples carry a
    label for EXPLAIN/debugging.
    """
    compiled: List[Tuple[str, Any, str]] = []
    for entry in spec:
        kind = entry[0]
        if kind == "filter":
            _, expression, columns = entry
            bound = expression.bind(list(columns))

            def predicate(t: TemporalTuple, _bound=bound) -> bool:
                return bool(_bound(t.values + (t.start, t.end)))

            compiled.append(("filter", predicate, repr(expression)))
        elif kind == "project":
            attrs = tuple(entry[1])
            compiled.append(("project", attrs, ",".join(attrs)))
        else:
            raise ValueError(f"unknown downstream view operator {kind!r}")
    return compiled


class _AdjustedView:
    """Shared machinery of the two incremental view kinds."""

    kind: str = "adjusted"

    def __init__(
        self,
        name: str,
        base: TemporalRelation,
        reference: TemporalRelation,
        settings: Optional[Settings] = None,
        downstream: Sequence[DownstreamOp] = (),
        fingerprint: Optional[str] = None,
        base_name: str = "",
        reference_name: str = "",
    ) -> None:
        if not base.tracks_changes or not reference.tracks_changes:
            raise ValueError(
                "materialized views require change tracking on both relations "
                "(call enable_change_tracking, or register them in a Database)"
            )
        self.name = name
        self.base = base
        self.reference = reference
        self.base_name = base_name
        self.reference_name = reference_name
        self.settings = settings if settings is not None else Settings()
        #: Serializable downstream spec (what snapshots persist) …
        self.downstream_spec: Tuple[DownstreamOp, ...] = tuple(downstream)
        #: … and its compiled per-fragment form (what maintenance runs).
        self.downstream: List[Tuple[str, Any, str]] = compile_downstream(downstream)
        self.fingerprint = fingerprint
        #: Serializable definition record set by the catalog; ``None`` marks a
        #: view that cannot be persisted (opaque θ callable).
        self.definition: Optional[Dict[str, Any]] = None
        #: Maintenance statistics (inspected by tests and ``perf/``'s
        #: ``views_resume_incrementally`` gate).
        self.stats: Dict[str, int] = {"incremental": 0, "recomputed": 0, "deltas": 0}

        self._left_items: Dict[int, TemporalTuple] = {}
        self._fragments: Dict[int, List[TemporalTuple]] = {}
        self._base_cursor = -1  # forces the initial build through recompute
        self._ref_cursor = -1
        self._result_cache: Optional[TemporalRelation] = None
        self._table_cache: Optional[Table] = None
        self._cache_key: Optional[Tuple[int, int]] = None

    # -- kind-specific hooks --------------------------------------------------

    def _rebuild_reference_state(self) -> None:
        raise NotImplementedError

    def _warm_reference_state(self) -> None:
        """Rebuild any lazily cached reference-side structure eagerly."""

    def _apply_reference_delta(self, delta: Delta, affected: Set[int]) -> None:
        """Fold one reference-side delta into the view state, collecting the
        base rowids whose fragments must be recomputed."""
        raise NotImplementedError

    def _fragments_for(self, t: TemporalTuple) -> List[TemporalTuple]:
        """Adjusted fragments of one base tuple against the current reference."""
        raise NotImplementedError

    def _left_key_attrs(self) -> Tuple[str, ...]:
        """Base-side attributes the membership map is keyed by (may be empty)."""
        raise NotImplementedError

    # -- refresh protocol -----------------------------------------------------

    def _pull(self, relation: TemporalRelation, cursor: int) -> Optional[List[Delta]]:
        """Deltas newer than ``cursor``, or ``None`` when the log was trimmed
        past it (incremental catch-up impossible)."""
        if cursor < 0:
            return None
        try:
            return relation.changes_since(cursor)
        except ChangeLogTruncatedError:
            return None

    def pending(self) -> int:
        """Number of unapplied base/reference deltas (large when truncated)."""
        base_deltas = self._pull(self.base, self._base_cursor)
        if base_deltas is None:
            return len(self.base) + len(self.reference) + 1
        if self.reference is self.base:
            return len(base_deltas)
        ref_deltas = self._pull(self.reference, self._ref_cursor)
        if ref_deltas is None:
            return len(self.base) + len(self.reference) + 1
        return len(base_deltas) + len(ref_deltas)

    def status(self) -> str:
        """``"fresh"`` with no pending deltas, ``"maintained"`` otherwise."""
        return "fresh" if self.pending() == 0 else "maintained"

    def refresh(self, force: bool = False) -> str:
        """Bring the view up to date; returns ``fresh`` | ``incremental`` |
        ``recomputed`` describing what the refresh did.

        ``force`` skips the delta path and rebuilds unconditionally (the
        ``REFRESH MATERIALIZED VIEW`` escape hatch).
        """
        if force:
            self.recompute()
            return _count_refresh("recomputed")
        base_deltas = self._pull(self.base, self._base_cursor)
        ref_deltas = (
            base_deltas
            if self.reference is self.base
            else self._pull(self.reference, self._ref_cursor)
        )
        if base_deltas is None or ref_deltas is None:
            self.recompute()
            return _count_refresh("recomputed")
        if not base_deltas and not ref_deltas:
            return "fresh"

        pending = len(base_deltas)
        if self.reference is not self.base:
            pending += len(ref_deltas)
        strategy = cost.maintenance_strategy(
            self.settings, pending, len(self.base), len(self.reference)
        )
        if strategy == "recompute":
            self.recompute()
            return _count_refresh("recomputed")

        self._maintain(base_deltas, ref_deltas)
        self.stats["incremental"] += 1
        self.stats["deltas"] += pending
        return _count_refresh("incremental")

    def _maintain(self, base_deltas: List[Delta], ref_deltas: List[Delta]) -> None:
        affected: Set[int] = set()
        # Reference side first: membership tests run against the pre-delta
        # base items, which is sound because every collected rowid is
        # recomputed against the *final* reference state below, deleted base
        # rowids are discarded again, and inserted ones are marked anyway.
        for delta in ref_deltas:
            self._apply_reference_delta(delta, affected)
        for delta in base_deltas:
            if delta.sign == "-":
                self._left_items.pop(delta.rowid, None)
                self._fragments.pop(delta.rowid, None)
                self._remove_from_key_map(delta.rowid, delta.tuple)
                affected.discard(delta.rowid)
            else:
                self._left_items[delta.rowid] = delta.tuple
                self._add_to_key_map(delta.rowid, delta.tuple)
                affected.add(delta.rowid)
        for rowid in affected:
            self._fragments[rowid] = self._fragments_for(self._left_items[rowid])
        if ref_deltas:
            # Leave the view ready to serve: any rebuild of supporting index
            # structures belongs to the mutation batch that invalidated them,
            # not to the next (possibly single-delta) refresh.
            self._warm_reference_state()
        self._advance_cursors()
        self._invalidate_result()

    def recompute(self) -> None:
        """Rebuild the whole view from the current relation states."""
        self._left_items = dict(self.base.rows_with_ids())
        self._rebuild_key_map()
        self._rebuild_reference_state()
        self._fragments = {
            rowid: self._fragments_for(t) for rowid, t in self._left_items.items()
        }
        self._advance_cursors()
        self._invalidate_result()
        self.stats["recomputed"] += 1

    def _advance_cursors(self) -> None:
        self._base_cursor = self.base.version
        self._ref_cursor = self.reference.version

    # -- base-side key map ----------------------------------------------------

    def _rebuild_key_map(self) -> None:
        self._left_by_key: Dict[Tuple[Any, ...], Dict[int, TemporalTuple]] = {}
        attrs = self._left_key_attrs()
        if not attrs:
            return
        for rowid, t in self._left_items.items():
            self._left_by_key.setdefault(t.values_of(attrs), {})[rowid] = t

    def _add_to_key_map(self, rowid: int, t: TemporalTuple) -> None:
        attrs = self._left_key_attrs()
        if attrs:
            self._left_by_key.setdefault(t.values_of(attrs), {})[rowid] = t

    def _remove_from_key_map(self, rowid: int, t: TemporalTuple) -> None:
        attrs = self._left_key_attrs()
        if attrs:
            bucket = self._left_by_key.get(t.values_of(attrs))
            if bucket is not None:
                bucket.pop(rowid, None)

    def _base_candidates(self, key: Optional[Tuple[Any, ...]]) -> Dict[int, TemporalTuple]:
        if key is None or not self._left_key_attrs():
            return self._left_items
        return self._left_by_key.get(key, {})

    # -- results --------------------------------------------------------------

    def output_schema(self) -> Schema:
        schema = self.base.schema
        for op, payload, _label in self.downstream:
            if op == "project":
                schema = schema.project(list(payload))
        return schema

    def output_columns(self) -> List[str]:
        return list(self.output_schema().attribute_names) + ["ts", "te"]

    def _apply_downstream(self, t: TemporalTuple) -> Optional[TemporalTuple]:
        for op, payload, _label in self.downstream:
            if op == "filter":
                if not payload(t):
                    return None
            elif op == "project":
                t = t.project(list(payload))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown downstream view operator {op!r}")
        return t

    def estimated_rows(self) -> float:
        """Stored fragment count (pre-downstream) — the planner's row estimate."""
        return float(sum(len(f) for f in self._fragments.values()))

    def result(self, refresh: bool = True) -> TemporalRelation:
        """The maintained view contents as a relation (refreshes first).

        Fragments are emitted in base-rowid order, so the result is
        byte-identical between an incrementally maintained view and a freshly
        recomputed one — the equality ``tests/views/test_view_maintenance.py``
        asserts.
        """
        if refresh:
            self.refresh()
        # Keyed by the *cursor* state: the materialization matches what has
        # been applied, not what is pending in the change logs.
        key = (self._base_cursor, self._ref_cursor)
        if self._result_cache is not None and self._cache_key == key:
            return self._result_cache
        schema = self.output_schema()
        relation = TemporalRelation(schema)
        for rowid in sorted(self._fragments):
            for fragment in self._fragments[rowid]:
                out = self._apply_downstream(fragment)
                if out is not None:
                    relation.add(out)
        self._result_cache = relation
        self._table_cache = None
        self._cache_key = key
        return relation

    def snapshot_table(self, refresh: bool = True) -> Table:
        """The view contents as an engine table (``ts``/``te`` columns)."""
        relation = self.result(refresh=refresh)
        if self._table_cache is None:
            self._table_cache = Table.from_relation(self.name, relation)
        return self._table_cache

    def peek_table(self) -> Table:
        """The last materialized contents, *without* maintenance.

        Used where only the shape (or the as-of-last-refresh contents) is
        needed — e.g. column resolution during analysis and ``EXPLAIN``,
        which must not silently refresh the view it is explaining.
        """
        return self.snapshot_table(refresh=False)

    def iter_rows(self):
        """Stream the (refreshed) contents as engine rows — the ViewScan path.

        Serving pays only the per-row yield on top of the (O(delta))
        maintenance: no intermediate relation or table copy is built.  Rows
        come out in base-rowid order, identical to :meth:`snapshot_table`.
        """
        self.refresh()
        for rowid in sorted(self._fragments):
            for fragment in self._fragments[rowid]:
                out = self._apply_downstream(fragment)
                if out is not None:
                    yield out.values + (out.start, out.end)

    def content_token(self):
        """Opaque token that changes whenever the view's contents may change.

        Dependent recompute views compare tokens to detect staleness; the
        *live* relation versions are used (not the cursors), so pending
        deltas already flip the token.
        """
        return (self.base.version, self.reference.version)

    def _invalidate_result(self) -> None:
        self._result_cache = None
        self._table_cache = None
        self._cache_key = None

    # -- durability support ---------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """The maintained state a snapshot persists: fragment store, lineage
        (base tuples by rowid), change-log cursors and statistics.

        Restoring this state (instead of recomputing) is what lets a view
        resume *incremental* maintenance after a restart: the cursors say
        exactly which change-log suffix is still unapplied.
        """
        return {
            "left_items": list(self._left_items.items()),
            "fragments": [(rowid, list(f)) for rowid, f in self._fragments.items()],
            "base_cursor": self._base_cursor,
            "ref_cursor": self._ref_cursor,
            "stats": dict(self.stats),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install persisted state on a view built with ``build=False``.

        Must run while the base/reference relations hold exactly the state
        the cursors refer to (i.e. after the snapshot restored the relations
        and *before* the WAL suffix is replayed): the reference-side support
        structure is rebuilt from the live relation and has to agree with
        the cursor position, or delta folding would double-apply changes.
        """
        self._left_items = dict(state["left_items"])
        self._fragments = {rowid: list(f) for rowid, f in state["fragments"]}
        self._base_cursor = state["base_cursor"]
        self._ref_cursor = state["ref_cursor"]
        self.stats = dict(state["stats"])
        self._rebuild_key_map()
        self._rebuild_reference_state()
        self._invalidate_result()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, {self.status()})"


class AlignView(_AdjustedView):
    """Materialized ``base Φθ reference`` with per-rowid fragment lineage."""

    kind = "align"

    def __init__(
        self,
        name: str,
        base: TemporalRelation,
        reference: TemporalRelation,
        theta: Optional[ThetaPredicate] = None,
        equi_attributes: Sequence[str] = (),
        reference_equi_attributes: Optional[Sequence[str]] = None,
        build: bool = True,
        **kwargs: Any,
    ) -> None:
        self.theta = theta
        self.equi_attributes = tuple(equi_attributes)
        self.reference_equi_attributes = (
            tuple(reference_equi_attributes)
            if reference_equi_attributes is not None
            else self.equi_attributes
        )
        super().__init__(name, base, reference, **kwargs)
        if build:  # recovery constructs unbuilt views and installs snapshot state
            self.recompute()

    def _left_key_attrs(self) -> Tuple[str, ...]:
        return self.equi_attributes

    def _rebuild_reference_state(self) -> None:
        # The reference's own cached interval index *is* the state; it is
        # invalidated by the relation on mutation and rebuilt on first probe.
        pass

    def _warm_reference_state(self) -> None:
        self.reference.interval_index(self.reference_equi_attributes)

    def _group_of(self, t: TemporalTuple) -> List[TemporalTuple]:
        """Overlap group of one base tuple, probed from the reference index."""
        if t.interval.is_empty():
            return []
        index = self.reference.interval_index(self.reference_equi_attributes)
        if self.equi_attributes:
            members = index.probe(t.values_of(self.equi_attributes), t.start, t.end)
        else:
            members = index.probe(t.start, t.end)
        if self.theta is not None:
            theta = self.theta
            members = [s for s in members if theta(t, s)]
        return members

    def _fragments_for(self, t: TemporalTuple) -> List[TemporalTuple]:
        group = self._group_of(t)
        return [
            t.with_interval(piece)
            for piece in align_tuple(t.interval, [g.interval for g in group])
        ]

    def _apply_reference_delta(self, delta: Delta, affected: Set[int]) -> None:
        y = delta.tuple
        if y.interval.is_empty():
            return
        key = (
            y.values_of(self.reference_equi_attributes) if self.equi_attributes else None
        )
        theta = self.theta
        for rowid, x in self._base_candidates(key).items():
            if x.interval.overlaps(y.interval) and (theta is None or theta(x, y)):
                affected.add(rowid)


class NormalizeView(_AdjustedView):
    """Materialized ``N_B(base; reference)`` with a per-key endpoint multiset."""

    kind = "normalize"

    def __init__(
        self,
        name: str,
        base: TemporalRelation,
        reference: TemporalRelation,
        attributes: Sequence[str] = (),
        build: bool = True,
        **kwargs: Any,
    ) -> None:
        self.attributes = tuple(attributes)
        super().__init__(name, base, reference, **kwargs)
        if build:
            self.recompute()

    def _left_key_attrs(self) -> Tuple[str, ...]:
        return self.attributes

    def _rebuild_reference_state(self) -> None:
        # Endpoint multiset per B-key: the count tracks how many reference
        # tuples contribute each point, so deleting one of two tuples sharing
        # an endpoint does not drop the split point.
        self._endpoints: Dict[Tuple[Any, ...], Dict[int, int]] = {}
        self._sorted_points: Dict[Tuple[Any, ...], List[int]] = {}
        for s in self.reference:
            if s.interval.is_empty():
                continue
            key = s.values_of(self.attributes) if self.attributes else ()
            counts = self._endpoints.setdefault(key, {})
            for point in (s.start, s.end):
                counts[point] = counts.get(point, 0) + 1

    def _points_for(self, key: Tuple[Any, ...]) -> List[int]:
        points = self._sorted_points.get(key)
        if points is None:
            points = sorted(self._endpoints.get(key, ()))
            self._sorted_points[key] = points
        return points

    def _fragments_for(self, t: TemporalTuple) -> List[TemporalTuple]:
        key = t.values_of(self.attributes) if self.attributes else ()
        return [
            t.with_interval(piece)
            for piece in t.interval.split_at(self._points_for(key))
        ]

    def _apply_reference_delta(self, delta: Delta, affected: Set[int]) -> None:
        s = delta.tuple
        if s.interval.is_empty():
            return
        key = s.values_of(self.attributes) if self.attributes else ()
        counts = self._endpoints.setdefault(key, {})
        changed: List[int] = []
        for point in (s.interval.start, s.interval.end):
            count = counts.get(point, 0)
            if delta.sign == "+":
                counts[point] = count + 1
                if count == 0:
                    changed.append(point)
            else:
                if count <= 1:
                    counts.pop(point, None)
                    changed.append(point)
                else:
                    counts[point] = count - 1
        if not changed:
            return
        self._sorted_points.pop(key, None)
        key_lookup = key if self.attributes else None
        for rowid, x in self._base_candidates(key_lookup).items():
            if any(x.start < point < x.end for point in changed):
                affected.add(rowid)


class RecomputeView:
    """Materialized result of an arbitrary plan, maintained by re-execution.

    The fallback kind for view definitions the incremental algorithms do not
    cover (aggregation, joins of adjusted results, …): the result table is
    stored and rebuilt whenever a tracked dependency's version moved.  The
    optimizer's maintenance-strategy choice is trivial here — recompute is
    the only strategy — but the freshness protocol (``pending``/``status``/
    ``refresh``/``snapshot_table``) matches the incremental kinds, so the
    planner and executor treat all view kinds uniformly.
    """

    kind = "recompute"
    fingerprint: Optional[str] = None

    def __init__(
        self, name: str, database, plan, sql_text: Optional[str] = None, build: bool = True
    ) -> None:
        self.name = name
        self.database = database
        self.plan = plan
        self.sql_text = sql_text
        self.definition: Optional[Dict[str, Any]] = None
        self.stats: Dict[str, int] = {"incremental": 0, "recomputed": 0, "deltas": 0}
        #: Names of every base table the stored plan scans.  Registered
        #: relations and other materialized views are observable (their
        #: versions/tokens drive staleness); plain tables are not — a view
        #: over one needs ``REFRESH MATERIALIZED VIEW`` (``force``).
        self.dependencies: List[str] = sorted(_scan_names(plan))
        self._tokens: Dict[str, Any] = {}
        self._table: Optional[Table] = None
        if build:
            self.refresh()

    # -- durability support ---------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Persistable state: the materialized rows plus dependency tokens."""
        table = self._table
        return {
            "columns": list(table.columns) if table is not None else None,
            "rows": list(table.rows) if table is not None else [],
            "tokens": dict(self._tokens),
            "stats": dict(self.stats),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        if state["columns"] is not None:
            self._table = Table(self.name, state["columns"], state["rows"])
        self._tokens = dict(state["tokens"])
        self.stats = dict(state["stats"])

    def _current_tokens(self) -> Dict[str, Any]:
        tokens: Dict[str, Any] = {}
        for name in self.dependencies:
            relation = self.database.relations.get(name)
            if relation is not None:
                tokens[name] = relation.version
                continue
            if name in self.database.views:
                dependency = self.database.views.get(name)
                if dependency is not self:  # pragma: no branch - cycle guard
                    tokens[name] = dependency.content_token()
        return tokens

    def content_token(self):
        return tuple(sorted(self._current_tokens().items()))

    def pending(self) -> int:
        """Number of dependencies whose observable state moved."""
        return sum(
            1 for name, token in self._current_tokens().items()
            if self._tokens.get(name) != token
        )

    def status(self) -> str:
        return "fresh" if self._table is not None and self.pending() == 0 else "maintained"

    def output_columns(self) -> List[str]:
        return list(self.plan.columns)

    def estimated_rows(self) -> float:
        return float(len(self._table)) if self._table is not None else 1.0

    def refresh(self, force: bool = False) -> str:
        if not force and self._table is not None and self.pending() == 0:
            return "fresh"
        self._table = self.database.execute(self.plan, result_name=self.name)
        self._tokens = self._current_tokens()
        self.stats["recomputed"] += 1
        return _count_refresh("recomputed")

    def snapshot_table(self) -> Table:
        self.refresh()
        assert self._table is not None
        return self._table

    def peek_table(self) -> Table:
        """Last materialized contents without re-executing the plan."""
        assert self._table is not None  # built eagerly at creation
        return self._table

    def iter_rows(self):
        """Stream the (refreshed) contents — the ViewScan path."""
        return iter(self.snapshot_table().rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecomputeView({self.name!r}, {self.status()})"


def _scan_names(plan) -> Set[str]:
    """Base-table names referenced by a logical plan (its Scan leaves)."""
    from repro.engine.plan import Scan

    names: Set[str] = set()

    def walk(node) -> None:
        if isinstance(node, Scan):
            names.add(node.table_name)
        for child in node.children():
            walk(child)

    walk(plan)
    return names
