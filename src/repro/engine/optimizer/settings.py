"""Planner settings (the engine's ``SET enable_... = false`` switches).

The paper's kernel-integration experiment (Fig. 13) toggles PostgreSQL's
``enable_mergejoin`` and ``enable_hashjoin`` switches to show that the
group-construction join inside normalization/alignment is planned like any
other join.  The same two switches exist here and are honoured by the
planner; a nested loop needs no switch, it is what a join falls back to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass
class Settings:
    """Optimizer switches; the cost constants live in :mod:`repro.engine.optimizer.cost`.

    The two join switches span the space of Fig. 13 for every join, the
    group-construction join of the ALIGN/NORMALIZE reference plan included:
    a keyed join is a hash join, a merge join with hash joins off, a nested
    loop with both off; an unkeyed join is always a nested loop.
    ``enable_columnar`` picks between that plan and the kernels.
    """

    #: Allow hash joins for equality conditions.
    enable_hashjoin: bool = True
    #: Allow sort-merge joins for equality conditions.
    enable_mergejoin: bool = True

    #: Plan every ALIGN/NORMALIZE as one ``ColumnarAdjustment`` node, at any
    #: input size and for any θ — what its key equalities leave over filters
    #: the candidate pairs.  NumPy is a kernel detail: without it the node
    #: runs the pure-Python kernels.  Off plans the Fig. 12(b) row pipeline
    #: (join → project → sort → sweep), the paper's reference plan.
    enable_columnar: bool = True

    #: Per-statement execution timeout in milliseconds; 0 disables.  Enforced
    #: cooperatively: the executor checks a thread-local deadline every few
    #: hundred produced rows (:mod:`repro.engine.deadline`), so a statement
    #: stuck inside one long vectorized kernel call overshoots — the knob
    #: bounds runaway row-at-a-time queries, it is not a hard preemption.
    statement_timeout_ms: float = 0.0

    def copy(self, **overrides: object) -> Settings:
        """Copy with some fields replaced (handy in benchmarks and tests)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line summary of the plan switches (used in benchmark output)."""
        return ", ".join(
            f"{field.name[len('enable_'):]}={'on' if getattr(self, field.name) else 'off'}"
            for field in fields(self)
            if field.name.startswith("enable_")
        )
