"""Every library strategy of ALIGN and NORMALIZE computes the same relation.

``align_relation`` offers ``auto|sweep|index|columnar`` and ``normalize``
offers ``auto|sweep|columnar``; all run in the calling process.  The
per-group plane sweep is the reference: on each synthetic family of the
paper's evaluation, unkeyed, keyed and keyed with a residual θ, every other
strategy — the columnar one with NumPy and with its pure-Python kernels —
must return exactly its relation.
"""

from __future__ import annotations

import pytest

from repro.columnar.runtime import forced_python
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}


def _shorter_than_reference_maximum(left, right):
    return left.value("min_dur") < right.value("max_dur")


#: condition -> (θ, equality attributes)
ALIGN_CONDITIONS = {
    "unkeyed": (None, None),
    "keyed": (None, ["cat"]),
    "keyed-residual": (_shorter_than_reference_maximum, ["cat"]),
}


def _pair(family):
    return FAMILIES[family](config=SyntheticConfig(size=120, categories=8, seed=9))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("condition", list(ALIGN_CONDITIONS))
@pytest.mark.parametrize("strategy", ["index", "columnar", "auto"])
def test_alignment_strategy_matches_sweep(strategy, condition, family):
    left, right = _pair(family)
    theta, equi = ALIGN_CONDITIONS[condition]
    expected = align_relation(left, right, theta, equi_attributes=equi, strategy="sweep")
    assert len(expected) >= len(left)
    actual = align_relation(left, right, theta, equi_attributes=equi, strategy=strategy)
    assert actual == expected
    with forced_python():
        assert align_relation(left, right, theta, equi_attributes=equi, strategy=strategy) == expected


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("attributes", [(), ("cat",)], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("strategy", ["columnar", "auto"])
def test_normalization_strategy_matches_sweep(strategy, attributes, family):
    left, right = _pair(family)
    expected = normalize(left, right, attributes, strategy="sweep")
    assert len(expected) >= len(left)
    assert normalize(left, right, attributes, strategy=strategy) == expected
    with forced_python():
        assert normalize(left, right, attributes, strategy=strategy) == expected
