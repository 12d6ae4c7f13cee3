"""Figure 13 — database system integration of the normalization primitive.

The paper runs ``N_{ssn}`` over the Incumben dataset three times, each time
disabling one more join method (all enabled → merge join disabled → merge and
hash disabled), and shows that (a) the runtime follows whichever join
strategy the optimizer is allowed to pick for the group-construction join and
(b) the output cardinality is identical in all settings.

This harness executes the same normalization through the query engine under
the same three settings.  Benchmark names encode ``setting`` and input size;
``extra_info`` records the chosen join strategy and the output cardinality
(Fig. 13(b)).
"""

from __future__ import annotations

import pytest

from benchmarks._util import scaled
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import KernelTemporalAlgebra

SIZES = scaled([250, 500, 1000])

# The experiment reads the *join strategy* off the plan, so the row pipeline
# is pinned: with the columnar switch on, every input takes the
# ColumnarAdjustment batch and there is no group-construction join to observe
# (``perf/``'s ``analytic_keyed`` times that path).  The
# switch is part of ``Settings.describe()``, the recorded setting label.
SETTINGS = {
    "merge_hash_nestloop": Settings(enable_columnar=False),
    "hash_nestloop": Settings(enable_mergejoin=False, enable_columnar=False),
    "nestloop_only": Settings(
        enable_mergejoin=False, enable_hashjoin=False, enable_columnar=False
    ),
}


def _chosen_join(algebra: KernelTemporalAlgebra, relation) -> str:
    """Name of the join operator the planner picked for the group construction."""
    from repro.engine.temporal_plans import normalize_plan, scan

    algebra.database.register_relation("__probe", relation)
    plan = normalize_plan(
        scan(algebra.database, "__probe", "__probe"),
        scan(algebra.database, "__probe", "__probe"),
        ["ssn"],
    )
    explain = algebra.database.plan(plan).explain()
    for line in explain.splitlines():
        if "Join" in line:
            return line.strip().split("(")[0]
    return "unknown"


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_fig13_normalization_join_strategies(benchmark, incumben_large, setting, size):
    """Fig. 13(a): runtime of N_{ssn} under the three join-method settings."""
    relation = incumben_large.limit(size)
    settings = SETTINGS[setting]

    def run():
        algebra = KernelTemporalAlgebra(settings=settings)
        return algebra.normalize(relation, relation, ["ssn"])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    algebra = KernelTemporalAlgebra(settings=settings)
    benchmark.extra_info["setting"] = settings.describe()
    benchmark.extra_info["chosen_join"] = _chosen_join(algebra, relation)
    benchmark.extra_info["input_tuples"] = size
    benchmark.extra_info["output_tuples"] = len(result)  # Fig. 13(b)


@pytest.mark.parametrize("size", SIZES)
def test_fig13b_output_cardinality_invariant(benchmark, incumben_large, size):
    """Fig. 13(b): the output cardinality does not depend on the join strategy."""
    relation = incumben_large.limit(size)

    def run():
        return {
            name: len(KernelTemporalAlgebra(settings=settings).normalize(relation, relation, ["ssn"]))
            for name, settings in SETTINGS.items()
            if name != "nestloop_only" or size <= SIZES[0]
        }

    cardinalities = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(set(cardinalities.values())) == 1
    benchmark.extra_info["output_tuples"] = next(iter(cardinalities.values()))
