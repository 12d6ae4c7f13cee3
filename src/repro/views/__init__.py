"""Materialized, incrementally maintained adjustment views.

The reduction rules make every temporal operator a nontemporal plan over
ALIGN/NORMALIZE, so the expensive part of any repeated temporal query is the
adjustment itself.  This package materializes adjusted results and keeps them
consistent under the sequenced mutations of
:class:`~repro.relation.relation.TemporalRelation` by propagating per-tuple
deltas *through* the adjustment.  Both primitives only split a tuple's
interval, so a view is its fragments per base rowid — the lineage of the
change-preservation property (Def. 6/7) — and that fragment store is all the
state it owns:

* a deleted base tuple removes exactly its lineage-derived fragments;
* one rule covers a reference-side delta for both kinds: the base tuples
  with its key and an overlapping interval are re-adjusted, found in one
  pass over the lineage;
* the inserted and re-adjusted base tuples are fragmented the way a query
  does, by one call of the columnar kernels against the reference rows that
  share their keys.

Past a staleness threshold decided by the optimizer's cost model
(:func:`repro.engine.optimizer.cost.maintenance_strategy`) maintenance falls
back to a full recompute.  A view is read only through a
``ViewScan(name, fresh|maintained)`` node, for a scan of its name and for
matching query subtrees the planner substitutes.
"""

from repro.views.catalog import ViewCatalog, ViewError
from repro.views.view import AlignView, NormalizeView, RecomputeView

__all__ = [
    "ViewCatalog",
    "ViewError",
    "AlignView",
    "NormalizeView",
    "RecomputeView",
]
