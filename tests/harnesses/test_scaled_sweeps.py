"""``benchmarks._util.scaled``: the size scaler of the figure harnesses.

``REPRO_BENCH_SCALE`` shrinks every sweep; a small scale must not collapse
sweep points onto the floor and benchmark one size several times.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks import _util  # noqa: E402


def test_full_scale_leaves_sweeps_unchanged(monkeypatch):
    # The nightly full-scale run must measure exactly the declared sizes.
    monkeypatch.setattr(_util, "SCALE", 1.0)
    assert _util.scaled([250, 500, 1000]) == [250, 500, 1000]
    assert _util.scaled([4000]) == [4000]


def test_tiny_scale_floors_sizes_and_keeps_the_sweep_increasing(monkeypatch):
    monkeypatch.setattr(_util, "SCALE", 0.001)
    assert _util.scaled([1000, 2000, 4000]) == [10, 11, 12]
    assert _util.scaled([10, 20, 4000]) == [10, 11, 12]
    monkeypatch.setattr(_util, "SCALE", 0.5)
    assert _util.scaled([1000, 2000]) == [500, 1000]


def test_collapsing_sweeps_dedupe_at_ci_scale(monkeypatch):
    # Regression: at REPRO_BENCH_SCALE=0.2 a closely spaced sweep collapses
    # onto the MIN_SIZE floor; every point must stay unique and increasing.
    monkeypatch.setattr(_util, "SCALE", 0.2)
    sizes = _util.scaled([40, 45, 50, 55])
    assert sizes == [10, 11, 12, 13]
    assert len(set(sizes)) == len(sizes)
    assert sizes == sorted(sizes)
    # Duplicate *input* sizes must not survive as duplicate points either.
    assert _util.scaled([1000, 1000, 1000]) == [200, 201, 202]
