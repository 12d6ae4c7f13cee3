"""Machine-readable benchmark harness (see ``docs/benchmarking.md``).

:mod:`repro.bench.runner` measures the columnar adjustment plans against
the row pipeline, asserts result equality (hard, always), and writes
``BENCH_<name>.json`` reports that CI uploads as artifacts — the durable
perf trajectory the ROADMAP's north star asks for.  It can also wrap the
pytest-based figure harnesses under ``benchmarks/`` to capture their
wall-clock in the same report format.
"""

from repro.bench.runner import (
    BenchmarkError,
    main,
    run_legacy_suite,
    write_report,
)

__all__ = [
    "BenchmarkError",
    "main",
    "run_legacy_suite",
    "write_report",
]
