"""One command for every number: ``python3 perf/run.py``.

``--workload W --seed N --seconds S --trace 0|1`` (what the driver calls) runs
one workload in this process and prints, as the last line of standard output,
one JSON object: the end-to-end metrics of an untraced run or the per-layer
metrics of a traced one.  Without ``--workload`` every workload runs, untraced
and traced, each in a fresh child process; ``--check-repeat`` does that twice
and compares the two sets against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import repro  # noqa: E402,F401  (fails here, before any output, where src/ is absent)

from perf import config  # noqa: E402
from perf.common import ROOT, Outcome, machine_facts, scratch  # noqa: E402
from perf.trace import Recorder, write as write_trace  # noqa: E402

DEFAULT_OUT = os.path.join(ROOT, ".perf_out")


def run_workload(name: str, seed: int, seconds: float, scale: str, traced: bool,
                 out_dir: str) -> Outcome:
    """Run one workload in this process and return what it found."""
    from perf import analytic, durable, served

    sizes = config.SIZES[scale]
    recorder = Recorder() if traced else None
    os.makedirs(out_dir, exist_ok=True)
    with scratch() as work:
        if name in analytic.WORKLOADS:
            outcome = analytic.run(name, seed, seconds, sizes, recorder)
        elif name == "served_mixed":
            outcome = served.run(seed, seconds, sizes, recorder, work, out_dir)
        else:
            outcome = durable.run(seed, seconds, sizes, recorder, work)
    if recorder is not None:
        meta = {"workload": name, "seed": seed, "seconds": seconds, "scale": scale,
                "facts": machine_facts(), "notes": outcome.notes}
        write_trace(os.path.join(out_dir, f"trace-{name}.json"), recorder.spans(), meta)
    return outcome


def result_line(outcome: Outcome, traced: bool) -> Dict[str, Any]:
    """The driver's result object for one run."""
    if traced:
        declared, measured = config.PER_LAYER, outcome.layers
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
                   for name, (unit, _better) in declared.items()}
    else:
        metrics = {name: {"value": outcome.end_to_end[name], "unit": unit}
                   for name, (unit, _better) in config.END_TO_END.items()}
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"metric {name} is not finite: {entry['value']}")
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def report(name: str, outcome: Outcome, traced: bool) -> None:
    facts = machine_facts()
    label = "" if facts["numpy"] else "  [NO NUMPY: pure-Python kernels]"
    print(f"# {name}  traced={int(traced)}  {facts}{label}")
    primary, secondary = config.SLOTS[name]
    print(f"#   primary_ms = {primary}; secondary_ms = {secondary}")
    for metric, (unit, _better) in config.END_TO_END.items():
        count = outcome.samples.get(metric)
        print(f"{name} {metric} = {outcome.end_to_end[metric]:.6g} {unit}"
              + (f"  (n={count})" if count else ""))
    for metric, value in outcome.layers.items():
        print(f"{name} {metric} = {value:.6g} {config.PER_LAYER[metric][0]}")
    for note, value in outcome.notes.items():
        print(f"#   {note}: {value}")
    for gate, passed in outcome.gates.items():
        print(f"#   gate {gate}: {'ok' if passed else 'FAILED'}")
    print(f"#   attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_share={outcome.failed / max(1, outcome.attempted):.6g}")


# -- every workload, each in a child process ------------------------------------


def run_child(name: str, seed: int, seconds: float, scale: str, traced: bool,
              out_dir: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
               "--scale", scale, "--out", out_dir]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(f"{name} (traced={int(traced)}) exited with {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_all(seed: int, seconds: float, scale: str, out_dir: str) -> Dict[Tuple[str, str], float]:
    """(workload, metric) -> value over every workload, untraced then traced."""
    values: Dict[Tuple[str, str], float] = {}
    for name in config.WORKLOADS:
        for traced in (False, True):
            result = run_child(name, seed, seconds, scale, traced, out_dir)
            for metric, entry in result["metrics"].items():
                values[name, metric] = entry["value"]
    return values


def check_repeat(seed: int, seconds: float, scale: str, out_dir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    first = run_all(seed, seconds, scale, out_dir)
    second = run_all(seed, seconds, scale, out_dir)
    broken = 0
    print(f"{'workload':16} {'metric':32} {'first':>12} {'second':>12} {'diff':>8} {'bound':>6}")
    for (name, metric), a in sorted(first.items()):
        b = second[name, metric]
        if a == b == 0:
            continue  # a layer this workload does not exercise
        difference = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
        if (name, metric) in config.EXACT:
            bound: Optional[float] = 0.0
        else:
            bound = bounds.get(metric)
        verdict = ""
        if bound is not None and difference > bound:
            broken += 1
            verdict = "  <-- differs by more than the bound"
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:16} {metric:32} {a:12.6g} {b:12.6g} {difference:8.4f} {shown:>6}{verdict}")
    print(f"check-repeat: {broken} metric(s) outside their bound")
    return 1 if broken else 0


def pin_hashing() -> None:
    """Restart the interpreter with string hashing fixed.

    Hash randomisation changes dict and set order from process to process,
    and with it the engine's speed by several per cent; the server subprocess
    inherits the setting.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  environment)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(config.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(config.SIZES), default="full")
    parser.add_argument("--out", default=DEFAULT_OUT, help="where trace-<workload>.json goes")
    parser.add_argument("--check-repeat", action="store_true")
    arguments = parser.parse_args(argv)
    if arguments.check_repeat:
        return check_repeat(arguments.seed, arguments.seconds, arguments.scale, arguments.out)
    if arguments.workload is None:
        run_all(arguments.seed, arguments.seconds, arguments.scale, arguments.out)
        return 0
    traced = bool(arguments.trace)
    outcome = run_workload(arguments.workload, arguments.seed, arguments.seconds,
                           arguments.scale, traced, arguments.out)
    report(arguments.workload, outcome, traced)
    print(json.dumps(result_line(outcome, traced)))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    pin_hashing()
    sys.exit(main())
