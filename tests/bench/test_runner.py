"""The machine-readable benchmark runner of :mod:`repro.bench`."""

from __future__ import annotations

import json

from repro.bench import runner


def test_scaled_sizes_keep_deterministic_minimum_and_monotonicity():
    # A tiny scale floors every size at 10 — the sweep must stay strictly
    # increasing instead of collapsing into repeated identical points.
    assert runner.scaled_sizes([1000, 2000, 4000], scale=0.001) == [10, 11, 12]
    assert runner.scaled_sizes([1000, 2000], scale=0.5) == [500, 1000]
    assert runner.scaled_sizes([1000, 2000], scale=0.001) == runner.scaled_sizes(
        [1000, 2000], scale=0.001
    )


def test_view_maintenance_scenarios_enforce_equality(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_STRICT", "0")  # timings are noise at n=40
    scenarios = runner.run_view_maintenance(sizes=[40], repeats=1)
    assert len(scenarios) == len(runner.FAMILIES)
    for scenario in scenarios:
        assert scenario["identical"] is True
        assert scenario["mutations"] >= 4
        assert scenario["maintenance"]["incremental"] >= 1
        assert scenario["single_mutation_speedup"] > 0

    path = runner.write_report("test_views", scenarios, str(tmp_path))
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scenarios"][0]["scenario"] == "view_maintenance"


def test_columnar_adjustment_scenarios_and_gates(tmp_path, monkeypatch):
    import pytest

    from repro.columnar.runtime import numpy_available

    if not numpy_available():
        pytest.skip("NumPy not installed; the scenario records a skip marker")
    monkeypatch.setenv("REPRO_BENCH_STRICT", "0")  # timings are noise at n=60
    scenarios = runner.run_columnar_adjustment(sizes=[60], repeats=1)
    note, *measured = scenarios
    assert note["scenario"] == "row_mode_micro_opt_note"
    assert len(measured) == len(runner.FAMILIES)
    for scenario in measured:
        assert scenario["identical"] is True
        assert "ColumnarAdjustment" in scenario["columnar_plan"]
        assert "ColumnarAdjustment" not in scenario["row_plan"]

    path = runner.write_report("test_columnar", scenarios, str(tmp_path))
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scenarios"][1]["scenario"] == "columnar_adjustment"


def test_columnar_adjustment_skips_without_numpy(monkeypatch):
    from repro.columnar.runtime import forced_python

    with forced_python():
        scenarios = runner.run_columnar_adjustment(sizes=[40], repeats=1)
    assert scenarios[-1] == {
        "scenario": "columnar_adjustment",
        "skipped": "numpy unavailable",
    }


def test_profile_flag_dumps_cumulative_hot_paths(tmp_path, capsys):
    code = runner.main(
        [
            "--scenario",
            "columnar_adjustment",
            "--sizes",
            "40",
            "--repeats",
            "1",
            "--profile",
            "5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "[profile] columnar_adjustment: top 5 by cumulative time" in output
    assert "cumulative" in output
    assert (tmp_path / "BENCH_columnar_adjustment.json").exists()


def test_main_writes_reports(tmp_path):
    code = runner.main(
        [
            "--scenario",
            "columnar_adjustment",
            "--sizes",
            "40",
            "--repeats",
            "1",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "BENCH_columnar_adjustment.json").exists()


def test_scaled_sizes_dedupe_collapsing_sweeps_at_ci_scale():
    # Regression: at REPRO_BENCH_SCALE=0.2 a closely spaced sweep collapses
    # onto the MIN_SIZE floor; the report must not double-count a size —
    # every point stays unique and strictly increasing.
    sizes = runner.scaled_sizes([40, 45, 50, 55], scale=0.2)
    assert sizes == [10, 11, 12, 13]
    assert len(set(sizes)) == len(sizes)
    assert sizes == sorted(sizes)
    # Duplicate *input* sizes must not survive as duplicate points either.
    assert runner.scaled_sizes([1000, 1000, 1000], scale=0.2) == [200, 201, 202]
    # And the helper agrees with benchmarks/_util.scaled's contract.
    assert runner.scaled_sizes([10, 20, 4000], scale=0.001) == [10, 11, 12]


def test_durability_scenario_gates_and_report(tmp_path):
    scenarios = runner.run_durability(sizes=[40], repeats=1)
    assert len(scenarios) == len(runner.FAMILIES)
    for scenario in scenarios:
        assert scenario["identical"] is True
        assert scenario["post_recovery_refresh"] == "incremental"
        assert scenario["wal_bytes"] > 0
        assert scenario["snapshot_bytes"] > 0
        assert scenario["recovery_seconds"] > 0

    path = runner.write_report("test_durability", scenarios, str(tmp_path))
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["scenarios"][0]["scenario"] == "durability"
