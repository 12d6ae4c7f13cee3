"""The view catalog: named views, plan fingerprints, planner matching.

A :class:`ViewCatalog` belongs to one
:class:`~repro.engine.database.Database`.  It owns every materialized view,
addresses the incremental ones by *plan fingerprint* — a canonical string
identifying the adjustment a view materializes (input tables plus an
alias-normalized condition) — and answers the planner's "is there a view for
this Align/Normalize node?" lookups.  Matching is structural/syntactic, like
most production materialized-view matching: a query aligns the same base
tables under the same (alias-renamed) θ iff the fingerprints are equal.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.expressions import (
    Expression,
    QueryError,
    conjunction,
    conjuncts_of,
    equijoin_keys,
    resolve_column,
)
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.relation.tuple import TemporalTuple
from repro.views.view import AlignView, DownstreamOp, NormalizeView, RecomputeView


class ViewError(SchemaError):
    """A view definition or lookup failed."""


_COLUMN_RE = re.compile(r"Column\('([^']*)'\)")


def condition_fingerprint(
    condition: Optional[Expression],
    left_columns: Sequence[str],
    right_columns: Sequence[str],
) -> Optional[str]:
    """Alias-normalized fingerprint of a θ condition, or ``None``.

    Every ``Column('alias.name')`` in the condition's repr is rewritten to
    ``l.name`` / ``r.name`` according to which input it resolves into, so the
    same θ written under different aliases fingerprints identically.
    ``None`` (no fingerprint, view not plan-matchable) is returned for
    conditions that cannot be canonicalized: ambiguous/unresolvable columns
    or opaque predicates (:class:`~repro.engine.expressions.PythonPredicate`).
    """
    if condition is None:
        return "true"
    text = repr(condition)
    if "PythonPredicate" in text or " at 0x" in text:
        return None
    failed = False

    def canonical(match: re.Match[str]) -> str:
        nonlocal failed
        name = match.group(1)
        for side, columns in (("l", left_columns), ("r", right_columns)):
            try:
                index = resolve_column(name, columns)
            except QueryError:
                continue
            base = columns[index].rsplit(".", 1)[-1]
            return f"Column('{side}.{base}')"
        failed = True
        return match.group(0)

    canonicalized = _COLUMN_RE.sub(canonical, text)
    return None if failed else canonicalized


def align_fingerprint(
    left_table: str, right_table: str, condition_part: Optional[str]
) -> Optional[str]:
    if condition_part is None:
        return None
    return f"align({left_table}; {right_table}; {condition_part})"


def normalize_fingerprint(
    left_table: str, right_table: str, using: Sequence[Tuple[str, str]]
) -> str:
    pairs = ",".join(f"{left}={right}" for left, right in using)
    return f"normalize({left_table}; {right_table}; B=[{pairs}])"


def theta_from_condition(
    condition: Expression,
    left_columns: Sequence[str],
    right_columns: Sequence[str],
) -> Callable[[TemporalTuple, TemporalTuple], bool]:
    """Compile a θ :class:`Expression` into a tuple-level predicate.

    The bound row layout is the concatenation of both inputs' engine columns
    (``attrs…, ts, te`` each) — exactly the row the group-construction join
    would evaluate the condition over.
    """
    bound = condition.bind(list(left_columns) + list(right_columns))

    def theta(x: TemporalTuple, y: TemporalTuple) -> bool:
        return bool(bound(x.values + (x.start, x.end) + y.values + (y.start, y.end)))

    return theta


def _attribute_pairs(
    condition: Optional[Expression],
    left_columns: Sequence[str],
    right_columns: Sequence[str],
) -> List[Tuple[str, str]]:
    """θ's cross-side equalities as plain attribute-name pairs, base side first."""
    return [
        (left_name.rsplit(".", 1)[-1], right_name.rsplit(".", 1)[-1])
        for left_name, right_name in equijoin_keys(condition, left_columns, right_columns)
    ]


def equi_attributes_from_condition(
    condition: Optional[Expression],
    left_columns: Sequence[str],
    right_columns: Sequence[str],
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Equality-key attribute pairs of θ, as plain schema attribute names.

    Pairs touching the interval boundary columns are skipped (they are not
    nontemporal attributes): such a conjunct stays in θ's residual
    (:func:`residual_condition`), which the view evaluates per pair.
    """
    pairs = [
        pair
        for pair in _attribute_pairs(condition, left_columns, right_columns)
        if not set(pair) & {"ts", "te"}
    ]
    return tuple(left for left, _ in pairs), tuple(right for _, right in pairs)


def residual_condition(
    condition: Expression,
    left_columns: Sequence[str],
    right_columns: Sequence[str],
    key_pairs: Sequence[Tuple[str, str]],
) -> Optional[Expression]:
    """θ without exactly the conjuncts the key codes decide: the cross-side
    equalities of ``key_pairs`` (as :func:`_attribute_pairs` names them).
    ``None`` when nothing is left."""
    return conjunction(
        [
            conjunct
            for conjunct in conjuncts_of(condition)
            if not set(_attribute_pairs(conjunct, left_columns, right_columns)) & set(key_pairs)
        ]
    )


class ViewCatalog:
    """Named materialized views of one database, indexed by fingerprint."""

    def __init__(self, database) -> None:
        self.database = database
        self._views: Dict[str, Any] = {}
        self._by_fingerprint: Dict[str, Any] = {}

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> List[str]:
        return sorted(self._views)

    def in_creation_order(self) -> List[Any]:
        """The views in creation order — the order persistence must restore
        them in, so views over views find their dependencies."""
        return list(self._views.values())

    def get(self, name: str):
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(
                f"unknown materialized view {name!r}; defined: {self.names()}"
            ) from None

    def match(self, fingerprint: Optional[str]):
        """The view materializing ``fingerprint``, or ``None``."""
        if fingerprint is None:
            return None
        return self._by_fingerprint.get(fingerprint)

    def drop(self, name: str) -> None:
        view = self._views.pop(name, None)
        if view is not None and getattr(view, "fingerprint", None) is not None:
            self._by_fingerprint.pop(view.fingerprint, None)
        if view is not None and self.database.storage is not None:
            self.database.storage.on_drop_view(name)

    def drop_dependents(self, table_name: str) -> List[str]:
        """Cascade-drop every view that (transitively) depends on a table.

        Called by ``Database.drop_table``: a view must never outlive its
        inputs and silently serve data from a dropped relation (or match a
        *different* relation later registered under the same name).
        Returns the dropped view names.
        """
        dropped: List[str] = []
        names_gone = {table_name}
        changed = True
        while changed:  # views over dropped views cascade too
            changed = False
            for name in self.names():
                view = self._views[name]
                if self._depends_on(view, names_gone):
                    self.drop(name)
                    dropped.append(name)
                    names_gone.add(name)
                    changed = True
        return dropped

    @staticmethod
    def _depends_on(view, names: set) -> bool:
        if view.kind == "recompute":
            return any(dependency in names for dependency in view.dependencies)
        return view.base_name in names or view.reference_name in names

    def refresh_all(self) -> Dict[str, str]:
        """Refresh every view; returns ``{name: refresh outcome}``."""
        return {name: self._views[name].refresh() for name in self.names()}

    # -- creation -------------------------------------------------------------

    def _register(self, view) -> Any:
        if view.name in self._views:
            raise ViewError(f"materialized view {view.name!r} already exists")
        if view.name in self.database.tables or view.name in self.database.relations:
            raise ViewError(f"{view.name!r} already names a table")
        fingerprint = getattr(view, "fingerprint", None)
        if fingerprint is not None and fingerprint in self._by_fingerprint:
            raise ViewError(
                f"a view for this plan already exists: "
                f"{self._by_fingerprint[fingerprint].name!r}"
            )
        self._views[view.name] = view
        if fingerprint is not None:
            self._by_fingerprint[fingerprint] = view
        if self.database.storage is not None:
            self.database.storage.on_create_view(view)
        return view

    def _relation(self, name: str) -> TemporalRelation:
        try:
            return self.database.relations[name]
        except KeyError:
            raise ViewError(
                f"{name!r} is not a registered temporal relation; materialized "
                "adjustment views require Database.register_relation"
            ) from None

    def _engine_columns(self, table_name: str, alias: Optional[str] = None) -> List[str]:
        qualifier = alias or table_name
        relation = self._relation(table_name)
        return [f"{qualifier}.{a}" for a in relation.schema.attribute_names] + [
            f"{qualifier}.ts",
            f"{qualifier}.te",
        ]

    def create_align_view(
        self,
        name: str,
        base_name: str,
        reference_name: str,
        condition: Optional[Expression] = None,
        theta: Optional[Callable[[TemporalTuple, TemporalTuple], bool]] = None,
        equi_attributes: Sequence[str] = (),
        reference_equi_attributes: Optional[Sequence[str]] = None,
        downstream: Sequence[DownstreamOp] = (),
        base_alias: Optional[str] = None,
        reference_alias: Optional[str] = None,
        fingerprint: Optional[str] = None,
        build: bool = True,
    ) -> AlignView:
        """Materialize ``base Φθ reference``.

        θ can be given either as an engine :class:`Expression` (``condition``
        — mined for equality keys, its residual compiled to a tuple
        predicate, and fingerprinted so the planner can substitute the view
        into matching plans) or as a raw callable (``theta`` — opaque, run
        per candidate pair: pass an explicit ``fingerprint`` to opt into plan
        matching; such a view cannot be persisted by the storage engine).
        ``build=False`` skips the initial materialization — the recovery
        path, which installs snapshot state instead.
        """
        base = self._relation(base_name)
        reference = self._relation(reference_name)
        opaque_theta = theta is not None
        equi = tuple(equi_attributes)
        ref_equi = (
            tuple(reference_equi_attributes)
            if reference_equi_attributes is not None
            else equi
        )
        if condition is not None:
            if theta is not None:
                raise ViewError("give either condition (Expression) or theta (callable)")
            left_columns = self._engine_columns(base_name, base_alias)
            right_columns = self._engine_columns(reference_name, reference_alias)
            if not equi:
                equi, ref_equi = equi_attributes_from_condition(
                    condition, left_columns, right_columns
                )
            residual = residual_condition(
                condition, left_columns, right_columns, list(zip(equi, ref_equi))
            )
            if residual is not None:
                theta = theta_from_condition(residual, left_columns, right_columns)
            if fingerprint is None and not downstream:
                fingerprint = align_fingerprint(
                    base_name,
                    reference_name,
                    condition_fingerprint(condition, left_columns, right_columns),
                )
        view = AlignView(
            name,
            base,
            reference,
            theta=theta,
            equi_attributes=equi,
            reference_equi_attributes=ref_equi,
            downstream=downstream,
            fingerprint=fingerprint,
            base_name=base_name,
            reference_name=reference_name,
            build=build,
        )
        if not opaque_theta:  # an opaque θ callable cannot be serialized
            view.definition = {
                "kind": "align",
                "name": name,
                "base": base_name,
                "reference": reference_name,
                "condition": condition,
                "equi": list(view.equi_attributes),
                "ref_equi": list(view.reference_equi_attributes),
                "base_alias": base_alias,
                "reference_alias": reference_alias,
                "fingerprint": view.fingerprint,
                "downstream": list(view.downstream_spec),
            }
        return self._register(view)

    def create_normalize_view(
        self,
        name: str,
        base_name: str,
        reference_name: str,
        attributes: Sequence[str] = (),
        downstream: Sequence[DownstreamOp] = (),
        fingerprint: Optional[str] = None,
        build: bool = True,
    ) -> NormalizeView:
        """Materialize ``N_B(base; reference)`` for ``B = attributes``."""
        base = self._relation(base_name)
        reference = self._relation(reference_name)
        attrs = tuple(attributes)
        missing = [a for a in attrs if a not in base.schema.attribute_names]
        if missing:
            raise ViewError(f"normalization attributes {missing} missing from {base_name!r}")
        if fingerprint is None and not downstream:
            fingerprint = normalize_fingerprint(
                base_name, reference_name, [(a, a) for a in attrs]
            )
        view = NormalizeView(
            name,
            base,
            reference,
            attributes=attrs,
            downstream=downstream,
            fingerprint=fingerprint,
            base_name=base_name,
            reference_name=reference_name,
            build=build,
        )
        view.definition = {
            "kind": "normalize",
            "name": name,
            "base": base_name,
            "reference": reference_name,
            "attributes": list(attrs),
            "fingerprint": view.fingerprint,
            "downstream": list(view.downstream_spec),
        }
        return self._register(view)

    def create_recompute_view(
        self, name: str, plan, sql_text: Optional[str] = None, build: bool = True
    ):
        """Materialize an arbitrary plan, maintained by re-execution."""
        view = RecomputeView(name, self.database, plan, sql_text, build=build)
        view.definition = {
            "kind": "recompute",
            "name": name,
            "plan": plan,
            "sql_text": sql_text,
        }
        return self._register(view)

    # -- persistence ------------------------------------------------------------

    def create_from_definition(self, definition: Dict[str, Any], build: bool = True):
        """Re-create a view from a persisted definition record.

        ``build=True`` materializes eagerly (the WAL-replay path, where the
        relations hold exactly the state they held when the view was
        originally created); ``build=False`` constructs the view empty so the
        snapshot loader can install the persisted state instead.
        """
        kind = definition["kind"]
        if kind == "align":
            return self.create_align_view(
                definition["name"],
                definition["base"],
                definition["reference"],
                condition=definition["condition"],
                equi_attributes=definition["equi"],
                reference_equi_attributes=definition["ref_equi"],
                downstream=definition["downstream"],
                base_alias=definition["base_alias"],
                reference_alias=definition["reference_alias"],
                fingerprint=definition["fingerprint"],
                build=build,
            )
        if kind == "normalize":
            return self.create_normalize_view(
                definition["name"],
                definition["base"],
                definition["reference"],
                attributes=definition["attributes"],
                downstream=definition["downstream"],
                fingerprint=definition["fingerprint"],
                build=build,
            )
        if kind == "recompute":
            return self.create_recompute_view(
                definition["name"], definition["plan"], definition["sql_text"], build=build
            )
        raise ViewError(f"unknown persisted view kind {kind!r}")
