"""The repository's one benchmark: four workloads, end-to-end and per-layer.

Run it through ``python3 perf/run.py`` (see ``perf/README.md``); the contract
the driver checks lives in ``BENCHMARK.json`` at the repository root.
"""
