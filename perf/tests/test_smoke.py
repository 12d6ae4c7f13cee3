"""Smoke test of the benchmark itself, at toy size (tier-1 collects it).

It asserts structure, never speed: every workload produces every declared
metric with a finite value and green gates, the same seed generates the same
inputs, the span arithmetic is right, and ``BENCHMARK.json`` declares what
``run.py`` prints.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf import analytic, common, config, datagen, trace  # noqa: E402
from perf import run as perf_run  # noqa: E402


def test_benchmark_json_declares_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared["command"] == ["python3", "perf/run.py"]
    assert declared["paths"] == ["perf"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == config.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]
    } == config.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == config.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert set(config.SLOTS) == set(config.WORKLOADS)
    assert {metric for _workload, metric in config.EXACT} <= set(config.PER_LAYER)


def _inputs(seed: int) -> bytes:
    sizes = config.SIZES["toy"]
    parts = [analytic.generate(name, seed, sizes) for name in analytic.WORKLOADS]
    parts.append(datagen.served_tables(sizes["served_keys"], datagen.stream(seed, "served-tables")))
    for client in range(config.CLIENTS):
        ops = datagen.served_ops(seed, client, sizes["served_keys"])
        parts.append(list(itertools.islice(ops, 200)))
    parts.append(list(itertools.islice(datagen.mutations(seed, 3), 200)))
    return repr(parts).encode()


def test_same_seed_same_inputs_and_statement_streams():
    assert _inputs(1) == _inputs(1)
    assert _inputs(2) == _inputs(2)
    assert _inputs(1) != _inputs(2)


def test_generated_relations_are_duplicate_free():
    for family in datagen.FAMILIES.values():
        for rows in family(200, 2, datagen.stream(1, "dup")):
            values = [row[0] for row in rows]
            assert len(set(values)) == len(values) == 200


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["op", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],  # overlaps a: [3, 4) is counted once
        ["c", 9.0, 12.0, 0, 1],  # clipped to the parent's end
        ["a.inner", 2.0, 3.0, 1, 1],
    ]
    assert trace.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])
    summary = trace.summarize(spans)
    assert summary["op"] == {"count": 1, "total_ms": 10_000.0, "self_ms": 4_000.0}


def test_recorder_nests_per_thread_and_merges():
    recorder = trace.Recorder()

    def work(op_id):
        with recorder.span("outer", op_id):
            with recorder.span("inner", op_id):
                pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    work("main")
    spans = recorder.spans()
    assert len(spans) == 8
    for index, span in enumerate(spans):
        if span[trace.NAME] == "inner":
            parent = spans[span[trace.PARENT]]
            assert span[trace.PARENT] == index - 1
            assert parent[trace.NAME] == "outer" and parent[trace.OP] == span[trace.OP]
            assert parent[trace.START] <= span[trace.START] <= span[trace.END] <= parent[trace.END]
        else:
            assert span[trace.PARENT] == -1


def _run(name, seed, traced, out_dir):
    outcome = perf_run.run_workload(name, seed, 0.2, "toy", traced, str(out_dir))
    line = perf_run.result_line(outcome, traced)
    assert outcome.gates and all(outcome.gates.values()), outcome.gates
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    json.dumps(line)
    return outcome, line["metrics"]


@pytest.mark.parametrize("name", list(config.WORKLOADS))
def test_every_workload_reports_every_declared_metric(name, tmp_path):
    _outcome, end_to_end = _run(name, 2, False, tmp_path)
    assert {m: e["unit"] for m, e in end_to_end.items()} == {
        m: unit for m, (unit, _better) in config.END_TO_END.items()
    }
    assert all(math.isfinite(e["value"]) and e["value"] > 0 for e in end_to_end.values())

    outcome, layers = _run(name, 1, True, tmp_path)
    assert list(layers) == list(config.PER_LAYER)
    assert all(math.isfinite(e["value"]) for e in layers.values())
    assert set(outcome.layers) <= set(config.PER_LAYER)
    assert "obs.trace_overhead_share" in outcome.layers
    with open(tmp_path / f"trace-{name}.json", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["meta"]["facts"]["nproc"] == os.cpu_count()
    assert document["spans"] and set(document["summary"]) == {s[0] for s in document["spans"]}


def test_scratch_is_removed_even_when_the_run_fails():
    with pytest.raises(RuntimeError):
        with common.scratch() as path:
            open(os.path.join(path, "left-behind"), "w").close()
            raise RuntimeError("gate failure")
    assert not os.path.exists(path)


def test_run_completes_and_is_labelled_without_numpy(tmp_path, capsys):
    from repro.columnar.runtime import forced_python

    with forced_python():
        outcome, _metrics = _run("analytic_theta", 1, False, tmp_path)
        assert common.machine_facts()["numpy"] is None
        perf_run.report("analytic_theta", outcome, False)
    assert "NO NUMPY" in capsys.readouterr().out
