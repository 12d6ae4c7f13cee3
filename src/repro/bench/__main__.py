"""``python -m repro.bench`` — run the benchmark scenarios (see runner.py)."""

from repro.bench.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
