"""The built-in rule set — importing this package registers every rule.

One module per contract; the rule ids, in catalog order:

========================  =====================================================
``mutation-funnel``       R1 — relation state mutates only via the funnel
``trace-only-annotations``  R2 — executors annotate traces, not node state
``no-blocking-in-async``  R5 — no blocking calls on the event loop
``metrics-discipline``    R6 — literal, module-scope metric registration
``settings-knob``         R7 — every Settings read names a declared field
``swallowed-error``       R8 — no silent except in storage/server code
``fault-site-registered``  R9 — faults.fire() names a site declared in SITES
========================  =====================================================

The catalog with each contract's *why* lives in ``docs/static-analysis.md``.
"""

from repro.analysis.rules import (  # noqa: F401 - registration side effects
    async_blocking,
    error_swallow,
    fault_sites,
    metrics_discipline,
    mutation_funnel,
    settings_knobs,
    trace_annotations,
)
