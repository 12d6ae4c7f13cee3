"""Both library strategies of ALIGN and NORMALIZE compute the same relation.

``align_relation`` and ``normalize`` offer ``sweep|columnar``; both run in
the calling process.  The per-group plane sweep is the oracle: on each
synthetic family of the paper's evaluation, unkeyed, keyed and keyed with a
residual θ, and at the small sizes where the default ``"columnar"`` pays its
encoding, the kernels — NumPy and their pure-Python twins — must return
exactly its relation.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.columnar.runtime import forced_python, numpy_available
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

#: Kernel backends under test: the pure-Python twins always, NumPy if present.
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def _shorter_than_reference_maximum(left, right):
    return left.value("min_dur") < right.value("max_dur")


#: condition -> (θ, equality attributes)
ALIGN_CONDITIONS = {
    "unkeyed": (None, None),
    "keyed": (None, ["cat"]),
    "keyed-residual": (_shorter_than_reference_maximum, ["cat"]),
}


def _pair(family, size=120):
    return FAMILIES[family](config=SyntheticConfig(size=size, categories=8, seed=9))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("condition", list(ALIGN_CONDITIONS))
@pytest.mark.parametrize("strategy", ["columnar"])
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
@pytest.mark.parametrize("strategy", ["columnar"])
def test_normalization_strategy_matches_sweep(strategy, attributes, family):
    left, right = _pair(family)
    expected = normalize(left, right, attributes, strategy="sweep")
    assert len(expected) >= len(left)
    assert normalize(left, right, attributes, strategy=strategy) == expected
    with forced_python():
        assert normalize(left, right, attributes, strategy=strategy) == expected


@pytest.mark.parametrize("operator", ["align", "normalize"])
def test_columnar_is_the_default(operator):
    # Observable through the relations' caches: only the kernels encode frames.
    left, right = _pair("random")
    if operator == "align":
        align_relation(left, right, equi_attributes=["cat"])
    else:
        normalize(left, right, ("cat",))
    backend = "np" if numpy_available() else "py"
    for relation in (left, right):
        assert relation.peek_derived(("columnar", "endpoints", backend)) is not None


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [0, 1, 8, 64])
def test_columnar_matches_sweep_at_small_sizes(size, backend):
    # The sizes the retired 512-tuple crossover kept on the sweep.
    left, right = _pair("random", size)
    with forced_python() if backend == "python" else nullcontext():
        for theta, equi in ALIGN_CONDITIONS.values():
            assert align_relation(
                left, right, theta, equi_attributes=equi, strategy="columnar"
            ) == align_relation(left, right, theta, equi_attributes=equi, strategy="sweep")
        for attributes in ((), ("cat",)):
            assert normalize(left, right, attributes, strategy="columnar") == normalize(
                left, right, attributes, strategy="sweep"
            )

