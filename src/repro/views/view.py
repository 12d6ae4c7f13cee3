"""The materialized view classes and their maintenance algorithms.

ALIGN and NORMALIZE only split a tuple's interval, so an incremental view is
fully described by its fragments per base *rowid* — the lineage of Def. 6.
That fragment store is the only state such a view owns, and a query reads it
only through a ``ViewScan``:

* :class:`AlignView` — ``base Φθ reference`` (Def. 11);
* :class:`NormalizeView` — ``N_B(base; reference)`` (Def. 9).

Both compute fragments the way a query does: one call of the columnar
kernels (:mod:`repro.columnar.kernels`) over a batch of base tuples, with
their keys encoded into the dictionary of the reference's cached frame
(:meth:`_AdjustedView._fragment`).  Either way the kernel gets only the
reference rows that share a key with the batch: a recompute's batch is the
whole base, a refresh's only the re-fragmented base tuples.

A base delta re-fragments its own tuple.  One rule covers a reference delta
for both kinds: every base tuple with the changed tuple's key and an
overlapping interval is re-fragmented, found in one pass over the lineage.
Each refresh asks :func:`~repro.engine.optimizer.cost.maintenance_strategy`
first: when the pending batch is large relative to the relations, the view
recomputes from scratch instead.

:class:`RecomputeView` is the fallback kind for arbitrary SELECTs (e.g.
aggregation on top of adjustment): it stores the result table and re-executes
its plan when a dependency's version moved.

Downstream operators (σ/π) are folded into the incremental kinds: each
fragment passes the filter predicates and projections on its way out, so
σ/π-on-top-of-adjustment views stay incremental too.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.columnar import kernels
from repro.columnar.encoding import encode_keys, encode_relation, positions_with_codes
from repro.core.sweep import ThetaPredicate
from repro.engine.optimizer import cost
from repro.engine.table import Table
from repro.obs import metrics as obs_metrics
from repro.relation.changelog import ChangeLogTruncatedError, Delta
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.relation.tuple import TemporalTuple
from repro.storage.wal import WalCorruptionError
from repro.temporal.interval import Interval

#: A downstream operator folded into fragment maintenance, in *serializable*
#: form: ``("filter", where_expression, bound_columns)`` — an engine
#: :class:`~repro.engine.expressions.Expression` plus the column layout it
#: binds against — or ``("project", attribute_names)``.  Specs (not compiled
#: closures) are what views carry so their definitions survive in snapshots
#: and the write-ahead log.
DownstreamOp = Tuple[Any, ...]

_REFRESH_COUNTER = obs_metrics.counter("view.refresh", label_name="outcome")

#: The keys of an incremental view's persisted state (:meth:`_AdjustedView.export_state`).
_ADJUSTED_STATE_KEYS = {"fragments", "base_cursor", "ref_cursor", "stats"}


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
    """Shared machinery of the two incremental view kinds: fragments and
    lineage per base rowid, plus the two change-log cursors."""

    kind: str = "adjusted"
    #: θ beyond the key codes, over one tuple of each side (ALIGN only).
    theta: Optional[ThetaPredicate] = None

    def __init__(
        self,
        name: str,
        base: TemporalRelation,
        reference: TemporalRelation,
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

    # -- kind-specific hooks --------------------------------------------------

    def _key_attributes(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Base- and reference-side attributes a group requires equal (may be empty)."""
        raise NotImplementedError

    # -- refresh protocol -----------------------------------------------------

    def _pull(self, relation: TemporalRelation, cursor: int) -> Optional[List[Delta]]:
        if cursor < 0:
            return None
        try:
            return relation.changes_since(cursor)
        except ChangeLogTruncatedError:
            return None

    def _unapplied(self) -> Optional[Tuple[List[Delta], List[Delta], int]]:
        """Unapplied ``(base deltas, reference deltas, count)``, or ``None``
        when a change log was trimmed past its cursor (incremental catch-up
        impossible).  A self-adjustment's deltas count once."""
        base_deltas = self._pull(self.base, self._base_cursor)
        if self.reference is self.base:
            return None if base_deltas is None else (base_deltas, base_deltas, len(base_deltas))
        ref_deltas = self._pull(self.reference, self._ref_cursor)
        if base_deltas is None or ref_deltas is None:
            return None
        return base_deltas, ref_deltas, len(base_deltas) + len(ref_deltas)

    def pending(self) -> int:
        """Number of unapplied base/reference deltas (large when truncated)."""
        unapplied = self._unapplied()
        if unapplied is None:
            return len(self.base) + len(self.reference) + 1
        return unapplied[2]

    def status(self) -> str:
        """``"fresh"`` with no pending deltas, ``"maintained"`` otherwise."""
        return "fresh" if self.pending() == 0 else "maintained"

    def refresh(self, force: bool = False) -> str:
        """Bring the view up to date; returns ``fresh`` | ``incremental`` |
        ``recomputed`` describing what the refresh did.

        ``force`` skips the delta path and rebuilds unconditionally (the
        ``REFRESH MATERIALIZED VIEW`` escape hatch).
        """
        unapplied = None if force else self._unapplied()
        if unapplied is not None:
            base_deltas, ref_deltas, pending = unapplied
            if pending == 0:
                return "fresh"
            strategy = cost.maintenance_strategy(pending, len(self.base), len(self.reference))
            if strategy == "incremental":
                self._maintain(base_deltas, ref_deltas)
                self.stats["incremental"] += 1
                self.stats["deltas"] += pending
                return _count_refresh("incremental")
        self.recompute()
        return _count_refresh("recomputed")

    def _maintain(self, base_deltas: List[Delta], ref_deltas: List[Delta]) -> None:
        affected: Set[int] = set()
        for delta in base_deltas:
            if delta.sign == "-":
                self._left_items.pop(delta.rowid, None)
                self._fragments.pop(delta.rowid, None)
                affected.discard(delta.rowid)
            else:
                self._left_items[delta.rowid] = delta.tuple
                affected.add(delta.rowid)
        if ref_deltas:
            affected.update(self._touched_by(ref_deltas))
        if affected:
            items = [(rowid, self._left_items[rowid]) for rowid in affected]
            self._fragments.update(self._fragment(items))
        self._advance_cursors()

    def _touched_by(self, ref_deltas: List[Delta]) -> Set[int]:
        """Base rowids whose tuple shares a key and overlaps a changed
        reference tuple: one pass over the (post-delta) lineage.

        A superset of ALIGN's group membership (overlap ∧ θ) and of
        NORMALIZE's strict endpoint containment; re-fragmenting a tuple the
        batch did not affect gives back the same fragments.  Per key the
        changed intervals are sorted by start with a running maximum of
        their ends: ``x`` overlaps one of them iff the largest end among
        those starting before ``x.end`` exceeds ``x.start`` — one bisection
        per base tuple instead of a test against every changed interval.
        """
        base_key, reference_key = self._key_attributes()
        reference_key_of = self.reference.schema.key_getter(reference_key)
        changed: Dict[Tuple[Any, ...], List[Interval]] = {}
        for delta in ref_deltas:
            interval = delta.tuple.interval
            if not interval.is_empty():
                changed.setdefault(reference_key_of(delta.tuple.values), []).append(interval)
        if not changed:
            return set()
        #: key -> (sorted starts, prefix maximum of the ends in that order).
        reach: Dict[Tuple[Any, ...], Tuple[List[int], List[int]]] = {}
        for key, intervals in changed.items():
            intervals.sort()
            reach[key] = (
                [interval.start for interval in intervals],
                list(accumulate((interval.end for interval in intervals), max)),
            )
        base_key_of = self.base.schema.key_getter(base_key)
        touched: Set[int] = set()
        for rowid, x in self._left_items.items():
            probe = reach.get(base_key_of(x.values))
            if probe is not None:
                before = bisect_left(probe[0], x.end)
                if before and probe[1][before - 1] > x.start:
                    touched.add(rowid)
        return touched

    def recompute(self) -> None:
        """Rebuild the whole view from the current relation states."""
        items = self.base.rows_with_ids()
        self._left_items = dict(items)
        self._fragments = self._fragment(items)
        self._advance_cursors()
        self.stats["recomputed"] += 1

    def _fragment(
        self, items: Sequence[Tuple[int, TemporalTuple]]
    ) -> Dict[int, List[TemporalTuple]]:
        """The fragments of each ``(rowid, tuple)`` item against the current
        reference, from one kernel call.

        The items' bounds and keys are encoded straight into the dictionary
        of the reference's cached frame, and only the reference rows
        carrying one of their key codes go in
        (:func:`~repro.columnar.encoding.positions_with_codes`).  A key
        containing ``ω`` matches nothing, as in a query, and an ALIGN view's
        θ beyond its key codes filters the candidate pairs, as in core's
        ``align_relation``.  An empty interval has no fragments (the sweep's
        rule); an unsplit fragment is the base tuple itself.
        """
        base_keys, reference_keys = self._key_attributes()
        right = encode_relation(self.reference, reference_keys)
        key_of = self.base.schema.key_getter(base_keys)
        starts = [t.start for _, t in items]
        ends = [t.end for _, t in items]
        codes, _ = encode_keys([key_of(t.values) for _, t in items], right.key_index)
        kept = positions_with_codes(self.reference, reference_keys, codes)
        reference = [right.starts, right.ends, right.codes]
        if kept is not None:
            reference = [_take(column, kept) for column in reference]
        if self.kind == "normalize":
            pieces = kernels.normalize_pieces_from_intervals(starts, ends, codes, *reference)
        else:
            pair_filter: Optional[kernels.PairFilter] = None
            theta = self.theta
            if theta is not None:
                rows = self.reference
                references = rows.tuples() if kept is None else rows.tuples_at(kept)

                def keep(li: Any, ri: Any) -> Tuple[Any, Any]:
                    return kernels.keep_pairs(
                        li, ri, lambda i, j: theta(items[i][1], references[j])
                    )

                pair_filter = keep
            pieces = kernels.align_pieces(starts, ends, codes, *reference, pair_filter=pair_filter)
        fragments: Dict[int, List[TemporalTuple]] = {rowid: [] for rowid, _ in items}
        for i, start, end in zip(*pieces):
            rowid, t = items[i]
            if start != t.start or end != t.end:
                t = t.with_interval(Interval(start, end))
            fragments[rowid].append(t)
        return fragments

    def _advance_cursors(self) -> None:
        self._base_cursor = self.base.version
        self._ref_cursor = self.reference.version

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
            else:
                t = t.project(list(payload))
        return t

    def estimated_rows(self) -> float:
        """Stored fragment count (pre-downstream) — the planner's row estimate."""
        return float(sum(len(f) for f in self._fragments.values()))

    def _output(self) -> Iterator[TemporalTuple]:
        """The refreshed contents: every fragment past the downstream operators.

        Fragments come out in base-rowid order, so an incrementally maintained
        view and a freshly recomputed one emit the same sequence.
        """
        self.refresh()
        for rowid in sorted(self._fragments):
            for fragment in self._fragments[rowid]:
                out = self._apply_downstream(fragment)
                if out is not None:
                    yield out

    def iter_rows(self) -> Iterator[Tuple[Any, ...]]:
        """Stream the (refreshed) contents as engine rows — the ViewScan path.

        A read pays only the per-row yield on top of the (O(delta))
        maintenance: no intermediate relation or table copy is built.
        """
        for out in self._output():
            yield out.values + (out.start, out.end)

    def result(self) -> TemporalRelation:
        """The (refreshed) contents as a new relation, in :meth:`iter_rows` order."""
        relation = TemporalRelation(self.output_schema())
        for out in self._output():
            relation.add(out)
        return relation

    def content_token(self):
        """Opaque token that changes whenever the view's contents may change.

        Dependent recompute views compare tokens to detect staleness; the
        *live* relation versions are used (not the cursors), so pending
        deltas already flip the token.
        """
        return (self.base.version, self.reference.version)

    # -- durability support ---------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """The maintained state a snapshot persists: per-rowid fragment
        endpoints, change-log cursors and statistics.

        ALIGN and NORMALIZE never change a tuple's nontemporal values, they
        only split its interval — so a fragment is fully described by its
        base rowid and two endpoints, ``(rowid, (s0, e0, s1, e1, …))``.  The
        lineage (base tuples by rowid) is not persisted: it is the base
        relation itself, which the snapshot already holds.

        Restoring this state (instead of recomputing) is what lets a view
        resume *incremental* maintenance after a restart: the cursors say
        exactly which change-log suffix is still unapplied.
        """
        return {
            "fragments": [
                (rowid, tuple(point for f in fragments for point in (f.start, f.end)))
                for rowid, fragments in self._fragments.items()
            ],
            "base_cursor": self._base_cursor,
            "ref_cursor": self._ref_cursor,
            "stats": dict(self.stats),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install persisted state on a view built with ``build=False``.

        Must run while the base/reference relations hold exactly the state
        the cursors refer to (i.e. after the snapshot restored the relations
        and *before* the WAL suffix is replayed).  Checkpoints refresh every
        view before serializing, so the cursors must equal the relation
        versions; a mismatch — or a state of another layout, or a fragment
        whose rowid the base does not hold — is a bad snapshot and raises
        :class:`~repro.storage.wal.WalCorruptionError` naming the view.
        Only fragments, lineage and cursors are installed: the lineage is
        the restored base relation (its tuple objects are shared), and every
        fragment is that tuple over a persisted interval.  The lineage's
        order differs from a maintained one's and does not matter: every
        consumer sorts by rowid or collects into a set.
        """
        if set(state) != _ADJUSTED_STATE_KEYS:
            raise WalCorruptionError(
                f"snapshot state of view {self.name!r} has keys {sorted(state)}, "
                f"expected {sorted(_ADJUSTED_STATE_KEYS)}"
            )
        cursors = (state["base_cursor"], state["ref_cursor"])
        if cursors != (self.base.version, self.reference.version):
            raise WalCorruptionError(
                f"snapshot view {self.name!r} has cursors {cursors} but its relations "
                f"are at versions {(self.base.version, self.reference.version)}"
            )
        left = dict(self.base.rows_with_ids())
        fragments: Dict[int, List[TemporalTuple]] = {}
        for rowid, points in state["fragments"]:
            source = left.get(rowid)
            if source is None:
                raise WalCorruptionError(
                    f"snapshot view {self.name!r} has fragments of rowid {rowid}, "
                    "which its base relation does not hold"
                )
            if points == (source.start, source.end):
                fragments[rowid] = [source]  # unsplit: the fragment *is* the tuple
                continue
            ends = iter(points)
            fragments[rowid] = [source.with_interval(Interval(s, e)) for s, e in zip(ends, ends)]
        if len(fragments) != len(left):
            raise WalCorruptionError(
                f"snapshot view {self.name!r} has fragments of {len(fragments)} rowids "
                f"but its base relation holds {len(left)}"
            )
        self._left_items = left
        self._fragments = fragments
        self._base_cursor, self._ref_cursor = cursors
        self.stats = dict(state["stats"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, {self.status()})"


class AlignView(_AdjustedView):
    """Materialized ``base Φθ reference`` with per-rowid fragment lineage.

    θ is the equality of ``equi_attributes`` with
    ``reference_equi_attributes`` (the key codes) and ``theta``, a predicate
    over one tuple of each side that the kernel's candidate pairs must also
    pass (``None`` when the keys are all of θ).
    """

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

    def _key_attributes(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return self.equi_attributes, self.reference_equi_attributes


class NormalizeView(_AdjustedView):
    """Materialized ``N_B(base; reference)``: ``B = attributes`` are the key codes."""

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

    def _key_attributes(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return self.attributes, self.attributes


class RecomputeView:
    """Materialized result of an arbitrary plan, maintained by re-execution.

    The fallback kind for view definitions the incremental algorithms do not
    cover (aggregation, joins of adjusted results, …): the result table is
    stored and rebuilt whenever a tracked dependency's version moved.  The
    optimizer's maintenance-strategy choice is trivial here — recompute is
    the only strategy — but the freshness protocol (``pending``/``status``/
    ``refresh``/``iter_rows``) matches the incremental kinds, so the
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

    def iter_rows(self) -> Iterator[Tuple[Any, ...]]:
        """Stream the (refreshed) contents — the ViewScan path."""
        self.refresh()
        assert self._table is not None
        return iter(self._table.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecomputeView({self.name!r}, {self.status()})"


def _take(column: Any, positions: Any) -> Any:
    """``column`` at ``positions`` (a list, or a NumPy array and index array)."""
    return [column[j] for j in positions] if isinstance(column, list) else column[positions]


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
