"""Unit tests of the columnar layer: encoding, kernels, caching, fallback."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interval, Schema, TemporalRelation
from repro.columnar import (
    align_pieces,
    encode_keys,
    encode_relation,
    normalize_pieces,
    normalize_pieces_from_intervals,
    remap_codes,
)
from repro.columnar.encoding import NO_MATCH, without_null_keys
from repro.columnar.kernels import keep_pairs
from repro.columnar.runtime import forced_python, numpy_available, resolve_use_numpy


def relation(rows, attributes=("cat",)):
    result = TemporalRelation(Schema(list(attributes)))
    for values, start, end in rows:
        result.insert(values, Interval(start, end))
    return result


def _cached_endpoints(rel):
    """Whether an endpoint encoding of ``rel`` is cached, on either backend."""
    return any(
        rel.peek_derived(("columnar", "endpoints", backend)) is not None
        for backend in ("np", "py")
    )


BACKENDS = [False] + ([True] if numpy_available() else [])


class TestRuntime:
    def test_forced_python_hides_numpy(self):
        with forced_python():
            assert not numpy_available()
            with pytest.raises(RuntimeError):
                resolve_use_numpy(True)

    def test_resolve_defaults_to_availability(self):
        assert resolve_use_numpy(None) == numpy_available()
        assert resolve_use_numpy(False) is False


class TestEncoding:
    def test_frame_shape_and_dictionary(self):
        rel = relation([(("a",), 0, 5), (("b",), 3, 9), (("a",), 7, 8)])
        frame = encode_relation(rel, ("cat",))
        assert list(frame.starts) == [0, 3, 7]
        assert list(frame.ends) == [5, 9, 8]
        assert list(frame.codes) == [0, 1, 0]
        assert frame.key_index == {("a",): 0, ("b",): 1}

    def test_no_key_encodes_one_shared_code(self):
        rel = relation([(("a",), 0, 5), (("b",), 3, 9)])
        frame = encode_relation(rel, ())
        assert list(frame.codes) == [0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from("pq"), st.integers(0, 1)),
            max_size=12,
        ),
        st.sampled_from(
            [p for n in (1, 2, 3) for p in itertools.permutations(("x", "y", "z"), n)]
        ),
    )
    def test_key_codes_equal_the_per_tuple_values_of_encoding(self, rows, attrs):
        # The frame keys every tuple through Schema.key_getter; its codes and
        # dictionary must be the ones TemporalTuple.values_of would give.
        rel = relation([(values, i, i + 2) for i, values in enumerate(rows)], ("x", "y", "z"))
        frame = encode_relation(rel, attrs)
        codes, key_index = encode_keys([t.values_of(attrs) for t in rel])
        assert list(frame.codes) == list(codes)
        assert frame.key_index == key_index

    def test_encoding_is_cached_until_mutation(self):
        rel = relation([(("a",), 0, 5)])
        first = encode_relation(rel, ("cat",))
        second = encode_relation(rel, ("cat",))
        assert first.starts is second.starts and first.codes is second.codes
        assert _cached_endpoints(rel)
        rel.insert(("b",), Interval(9, 12))  # _after_mutation drops the caches
        assert not _cached_endpoints(rel)
        rebuilt = encode_relation(rel, ("cat",))
        assert len(rebuilt) == 2

    def test_remap_translates_into_reference_dictionary(self):
        left = relation([(("a",), 0, 1), (("x",), 2, 3)])
        right = relation([(("b",), 0, 1), (("a",), 2, 3)])
        left_frame = encode_relation(left, ("cat",))
        right_frame = encode_relation(right, ("cat",))
        remapped = remap_codes(left_frame, right_frame)
        # "a" is code 1 on the reference side; "x" matches nothing.
        assert list(remapped) == [1, -1]

    def test_remap_shared_dictionary_is_identity(self):
        rel = relation([(("a",), 0, 1)])
        frame = encode_relation(rel, ("cat",))
        assert remap_codes(frame, frame) is frame.codes

    @pytest.mark.parametrize("as_list", [True, False] if numpy_available() else [True])
    def test_keys_containing_null_match_nothing(self, as_list):
        key_index = {("a", 1): 0, ("a", None): 1, (None, 2): 2}
        left, right = [2, 0, -1, 1], [1, 2, 0]
        if not as_list:
            import numpy

            left, right = numpy.asarray(left), numpy.asarray(right)
        left, right = without_null_keys(key_index, left, right)
        assert list(left) == [NO_MATCH, 0, NO_MATCH, NO_MATCH]
        assert list(right) == [NO_MATCH, NO_MATCH, 0]
        assert isinstance(left, list) == as_list

    def test_without_null_keys_passes_arrays_through(self):
        codes = [0, 1]
        assert without_null_keys({("a",): 0, ("b",): 1}, codes)[0] is codes


@pytest.mark.parametrize("use_numpy", BACKENDS)
class TestKernels:
    """Both backends against hand-checked examples (the paper's Fig. 9/11)."""

    def test_align_paper_example(self, use_numpy):
        # r1 = [1,7) meets s1 = [2,5) and s2 = [3,4): intersections [2,5),
        # [3,4) plus gaps [1,2) and [5,7) — Fig. 11's group g1.
        rows, starts, ends = align_pieces(
            [1], [7], [0], [2, 3], [5, 4], [0, 0], use_numpy=use_numpy
        )
        assert list(zip(rows, starts, ends)) == [
            (0, 1, 2), (0, 2, 5), (0, 3, 4), (0, 5, 7)
        ]

    def test_align_dangling_row_keeps_interval(self, use_numpy):
        rows, starts, ends = align_pieces([8], [10], [0], [0], [5], [1], use_numpy=use_numpy)
        assert list(zip(rows, starts, ends)) == [(0, 8, 10)]

    def test_align_duplicate_intersections_deduplicate(self, use_numpy):
        rows, starts, ends = align_pieces(
            [1], [7], [0], [2, 2], [5, 5], [0, 0], use_numpy=use_numpy
        )
        assert list(zip(rows, starts, ends)) == [(0, 1, 2), (0, 2, 5), (0, 5, 7)]

    def test_align_skips_empty_left_rows(self, use_numpy):
        rows, starts, ends = align_pieces(
            [4, 1], [4, 3], [0, 0], [0], [9], [0], use_numpy=use_numpy
        )
        assert list(zip(rows, starts, ends)) == [(1, 1, 3)]

    def test_align_include_empty_reproduces_engine_degenerates(self, use_numpy):
        # The engine's join admits an empty reference row whose point falls
        # strictly inside the argument interval; the sweep then emits the
        # degenerate intersection and splits the gap around it.
        rows, starts, ends = align_pieces(
            [1], [7], [0], [3], [3], [0], use_numpy=use_numpy, include_empty=True
        )
        assert list(zip(rows, starts, ends)) == [(0, 1, 3), (0, 3, 3), (0, 3, 7)]

    def test_align_include_empty_passes_unmatched_degenerate_rows_through(self, use_numpy):
        # Engine mode: a dangling outer-join row reaches the sweep with its
        # bounds as GREATEST/LEAST-filled p1/p2, so an unmatched empty row
        # is emitted unchanged; relation-level mode drops it (Def. 10 yields
        # no pieces for an empty argument interval).
        rows, starts, ends = align_pieces(
            [5], [5], [0], [], [], [], use_numpy=use_numpy, include_empty=True
        )
        assert list(zip(rows, starts, ends)) == [(0, 5, 5)]
        assert align_pieces(
            [5], [5], [0], [], [], [], use_numpy=use_numpy, include_empty=False
        ) == ([], [], [])

    def test_candidate_pairs_respect_keys_and_touching_intervals(self, use_numpy):
        seen = []

        def record(li, ri):
            seen.extend(zip(list(li), list(ri)))
            return li, ri

        align_pieces(
            [0, 0], [5, 5], [0, 1], [5, 3], [9, 4], [0, 0],
            use_numpy=use_numpy, pair_filter=record,
        )
        # [0,5) touches [5,9) only at the boundary (no overlap) and key 1
        # matches nothing; only ([0,5), [3,4)) overlaps.
        assert sorted(seen) == [(0, 1)]

    def test_normalize_splits_at_interior_points_only(self, use_numpy):
        rows, starts, ends = normalize_pieces(
            [1, 0], [7, 4], [0, 0], [3, 5, 1, 7, 0], [0, 0, 0, 0, 0],
            use_numpy=use_numpy,
        )
        assert list(zip(rows, starts, ends)) == [
            (0, 1, 3), (0, 3, 5), (0, 5, 7), (1, 0, 1), (1, 1, 3), (1, 3, 4)
        ]

    def test_normalize_from_intervals_skips_empty_references(self, use_numpy):
        rows, starts, ends = normalize_pieces_from_intervals(
            [0], [10], [0], [4, 6], [4, 9], [0, 0], use_numpy=use_numpy
        )
        # The empty reference [4,4) contributes no split point (Def. 9);
        # [6,9) splits at 6 and 9.
        assert list(zip(rows, starts, ends)) == [(0, 0, 6), (0, 6, 9), (0, 9, 10)]

    def test_negative_codes_never_match(self, use_numpy):
        rows, starts, ends = align_pieces(
            [0], [9], [-1], [1], [5], [0], use_numpy=use_numpy
        )
        assert list(zip(rows, starts, ends)) == [(0, 0, 9)]
        rows, starts, ends = normalize_pieces(
            [0], [9], [0], [4], [-1], use_numpy=use_numpy
        )
        assert list(zip(rows, starts, ends)) == [(0, 0, 9)]

    def test_empty_inputs(self, use_numpy):
        assert align_pieces([], [], [], [], [], [], use_numpy=use_numpy) == ([], [], [])
        assert normalize_pieces([], [], [], [], [], use_numpy=use_numpy) == ([], [], [])

    def test_filtered_pairs_equal_masking_their_reference_rows(self, use_numpy):
        # Randomised: a pair filter that drops every pair of some reference
        # rows yields the pieces of the same input with those rows' codes
        # set to no-match, and the filter sees the backend's own arrays.
        import random

        rng = random.Random(7)
        seen = []

        def drop_every_third_reference(li, ri):
            seen.append(isinstance(li, list))
            return keep_pairs(li, ri, lambda i, j: j % 3)

        for _ in range(20):
            n, m = rng.randrange(0, 25), rng.randrange(0, 25)
            ls = [rng.randrange(0, 40) for _ in range(n)]
            le = [s + rng.randrange(0, 6) for s in ls]
            rs = [rng.randrange(0, 40) for _ in range(m)]
            re = [s + rng.randrange(0, 6) for s in rs]
            lc = [rng.randrange(-1, 3) for _ in range(n)]
            rc = [rng.randrange(-1, 3) for _ in range(m)]
            masked = [code if j % 3 else -1 for j, code in enumerate(rc)]
            for include_empty in (False, True):
                options = dict(use_numpy=use_numpy, include_empty=include_empty)
                assert align_pieces(
                    ls, le, lc, rs, re, rc, pair_filter=drop_every_third_reference, **options
                ) == align_pieces(ls, le, lc, rs, re, masked, **options)
        assert seen and all(on_lists != use_numpy for on_lists in seen)


@pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")
class TestBackendParity:
    """NumPy and pure-Python kernels emit identical pieces in the same order."""

    def test_randomised_parity(self):
        import random

        rng = random.Random(99)
        for _ in range(25):
            n, m = rng.randrange(0, 30), rng.randrange(0, 30)
            def column(count):
                starts = [rng.randrange(0, 40) for _ in range(count)]
                ends = [s + rng.randrange(0, 6) for s in starts]
                codes = [rng.randrange(-1, 3) for _ in range(count)]
                return starts, ends, codes
            ls, le, lc = column(n)
            rs, re, rc = column(m)
            for include_empty in (False, True):
                assert align_pieces(
                    ls, le, lc, rs, re, rc, use_numpy=True, include_empty=include_empty
                ) == align_pieces(
                    ls, le, lc, rs, re, rc, use_numpy=False, include_empty=include_empty
                )
            points = rs + re
            pcodes = rc + rc
            assert normalize_pieces(
                ls, le, lc, points, pcodes, use_numpy=True
            ) == normalize_pieces(ls, le, lc, points, pcodes, use_numpy=False)

    def test_normalize_from_intervals_parity(self):
        # The NumPy route derives the point column with a mask + stack, the
        # pure-Python route with its append loop; negative codes and empty
        # reference intervals are where the two could drift apart.
        import random

        import numpy as np

        rng = random.Random(7)
        for _ in range(40):
            n, m = rng.randrange(0, 25), rng.randrange(0, 25)
            ls = [rng.randrange(0, 30) for _ in range(n)]
            le = [s + rng.randrange(0, 8) for s in ls]
            lc = [rng.randrange(-1, 3) for _ in range(n)]
            rs = [rng.randrange(0, 30) for _ in range(m)]
            re = [s + rng.randrange(0, 4) for s in rs]  # a quarter are empty
            rc = [rng.randrange(-1, 3) for _ in range(m)]
            for include_empty in (False, True):
                expected = normalize_pieces_from_intervals(
                    ls, le, lc, rs, re, rc, use_numpy=False, include_empty=include_empty
                )
                assert expected == normalize_pieces_from_intervals(
                    ls, le, lc, rs, re, rc, use_numpy=True, include_empty=include_empty
                )
                # Array arguments (what cached frames hand over) as well.
                assert expected == normalize_pieces_from_intervals(
                    *(np.asarray(c, dtype=np.int64) for c in (ls, le, lc, rs, re, rc)),
                    include_empty=include_empty,
                )
                # And both agree with the explicit point column.
                keep = [
                    j for j in range(m) if rc[j] >= 0 and (include_empty or re[j] > rs[j])
                ]
                points = [p for j in keep for p in (rs[j], re[j])]
                codes = [rc[j] for j in keep for _ in (0, 1)]
                assert expected == normalize_pieces(ls, le, lc, points, codes, use_numpy=False)
