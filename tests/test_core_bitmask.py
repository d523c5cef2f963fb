"""Bitmask tests, including hypothesis property tests against the
boolean-array reference semantics, and the packed-word batch kernels
against looped scalar Bitmask operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmask import (
    WORD_BITS,
    Bitmask,
    batch_and_popcount,
    batch_containment,
    batch_jaccard,
    batch_or,
    batch_popcount,
    pack_bool_matrix,
    segment_popcount,
    unpack_word_matrix,
    words_for_bits,
)


class TestBasics:
    def test_empty(self):
        mask = Bitmask(10)
        assert mask.popcount() == 0
        assert mask.length == 10

    def test_from_positions(self):
        mask = Bitmask.from_positions(10, [0, 3, 9])
        assert mask.popcount() == 3
        assert mask.get(0) and mask.get(3) and mask.get(9)
        assert not mask.get(1)

    def test_positions_round_trip(self):
        pos = [1, 5, 7, 12]
        mask = Bitmask.from_positions(16, pos)
        assert mask.positions().tolist() == pos

    def test_out_of_range_position(self):
        with pytest.raises(IndexError):
            Bitmask.from_positions(4, [4])

    def test_tail_bits_are_masked(self):
        """Buffer bits beyond `length` must never leak into popcount."""
        mask = Bitmask(3, np.array([0xFF], dtype=np.uint8))
        assert mask.popcount() == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Bitmask(8) | Bitmask(9)

    def test_get_bounds(self):
        with pytest.raises(IndexError):
            Bitmask(4).get(4)


bool_arrays = st.integers(1, 200).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n, max_size=n)
)


class TestProperties:
    @given(bool_arrays)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, flags):
        flags = np.array(flags)
        assert np.array_equal(Bitmask.from_bool(flags).to_bool(), flags)

    @given(bool_arrays, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_or_and_match_numpy(self, flags, rnd):
        a = np.array(flags)
        b = np.array([rnd.random() < 0.5 for _ in flags])
        ma, mb = Bitmask.from_bool(a), Bitmask.from_bool(b)
        assert np.array_equal((ma | mb).to_bool(), a | b)
        assert np.array_equal((ma & mb).to_bool(), a & b)
        assert np.array_equal((ma ^ mb).to_bool(), a ^ b)
        assert ma.intersection_count(mb) == int((a & b).sum())

    @given(bool_arrays)
    @settings(max_examples=60, deadline=None)
    def test_or_identity_and_idempotence(self, flags):
        a = Bitmask.from_bool(np.array(flags))
        zero = Bitmask(a.length)
        assert (a | zero) == a
        assert (a | a) == a

    @given(bool_arrays)
    @settings(max_examples=60, deadline=None)
    def test_ior_matches_or(self, flags):
        a = np.array(flags)
        b = np.roll(a, 1)
        mask = Bitmask.from_bool(a)
        mask.ior(Bitmask.from_bool(b))
        assert np.array_equal(mask.to_bool(), a | b)

    @given(bool_arrays)
    @settings(max_examples=40, deadline=None)
    def test_copy_is_independent(self, flags):
        a = Bitmask.from_bool(np.array(flags))
        c = a.copy()
        c.ior(Bitmask.from_bool(np.ones(a.length, dtype=bool)))
        assert a.popcount() == int(np.array(flags).sum())


class TestWordRepresentation:
    def test_words_for_bits(self):
        assert words_for_bits(0) == 0
        assert words_for_bits(1) == 1
        assert words_for_bits(WORD_BITS) == 1
        assert words_for_bits(WORD_BITS + 1) == 2

    def test_word_boundary_lengths(self):
        for length in (63, 64, 65, 127, 128, 129):
            flags = np.zeros(length, dtype=bool)
            flags[0] = flags[-1] = True
            mask = Bitmask.from_bool(flags)
            assert mask.words.size == words_for_bits(length)
            assert mask.popcount() == 2
            assert mask.get(length - 1)

    def test_from_words_masks_tail(self):
        words = np.full(2, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        mask = Bitmask.from_words(70, words)
        assert mask.popcount() == 70

    def test_words_view_is_read_only(self):
        mask = Bitmask(10)
        with pytest.raises(ValueError):
            mask.words[0] = 1

    def test_legacy_byte_buffer_constructor(self):
        # big-endian-within-byte packbits order, as the original
        # 8-bit-packed implementation stored it
        mask = Bitmask(10, np.array([0b10100000, 0b01000000], dtype=np.uint8))
        assert mask.positions().tolist() == [0, 2, 9]

    def test_ior_words(self):
        mask = Bitmask(70)
        row = np.zeros(2, dtype=np.uint64)
        row[1] = np.uint64(1) << np.uint64(5)  # bit 69
        mask.ior_words(row)
        assert mask.positions().tolist() == [69]
        with pytest.raises(ValueError):
            mask.ior_words(np.zeros(3, dtype=np.uint64))


bool_matrices = st.tuples(
    st.integers(1, 6), st.integers(1, 200), st.integers(0, 2**32 - 1)
)


def _segment_layouts(n_words):
    """Tap offsets in both segment_popcount paths: strictly increasing
    (reduceat) and with a zero-length middle segment (prefix sums)."""
    half = n_words // 2
    return (np.arange(0, n_words, 2, dtype=np.intp),
            np.array([0, half, half], dtype=np.intp))


def _segment_reference(flags, offsets, n_words):
    ends = list(offsets[1:]) + [n_words]
    return np.stack(
        [flags[:, w0 * WORD_BITS:w1 * WORD_BITS].sum(axis=1)
         for w0, w1 in zip(offsets, ends)],
        axis=1,
    )


def _ratio(num, den, empty):
    return np.array([h / d if d else empty for h, d in zip(num, den)])


def _segments_case(flags, words):
    n_words = words.shape[1]
    got, expected = [], []
    for offsets in _segment_layouts(n_words):
        got.append(segment_popcount(words, offsets))
        expected.append(_segment_reference(flags, offsets, n_words))
    return got, expected


#: Each batch kernel against the boolean-array reference: a case maps
#: ``(a, b, packed a, packed b)`` to parallel lists of results and
#: expected values.
KERNEL_CASES = {
    "or": lambda a, b, wa, wb: (
        [batch_or(wa)], [pack_bool_matrix(a.any(axis=0)[None])[0]]
    ),
    "popcount": lambda a, b, wa, wb: (
        [batch_popcount(wa)], [a.sum(axis=1)]
    ),
    "and_popcount": lambda a, b, wa, wb: (
        [batch_and_popcount(wa, wb)], [(a & b).sum(axis=1)]
    ),
    "containment": lambda a, b, wa, wb: (
        [batch_containment(wa, wb)],
        [_ratio((a & b).sum(axis=1), a.sum(axis=1), 0.0)],
    ),
    "jaccard": lambda a, b, wa, wb: (
        [batch_jaccard(wa, wb)],
        [_ratio((a & b).sum(axis=1), (a | b).sum(axis=1), 1.0)],
    ),
    "segment_popcount": lambda a, b, wa, wb: _segments_case(a, wa),
    # per-tap hits of the score path: segment popcount of the AND
    # against the canary
    "segment_and_popcount": lambda a, b, wa, wb: _segments_case(
        a & b, wa & wb
    ),
}

#: ``(rows, n, bits)``: odd bit lengths (tail mask active), an exact
#: word boundary and batch sizes 1, 7, 64 and 1000, plus a batch with
#: empty and all-ones rows.
KERNEL_SHAPES = [
    ("random", n, bits)
    for bits in (37, 128, 777)
    for n in (1, 7, 64, 1000)
] + [("empty_and_ones", 8, 130)]


class TestBatchKernels:
    """Batch kernels must equal looping the scalar Bitmask ops."""

    @given(bool_matrices)
    @settings(max_examples=40, deadline=None)
    def test_pack_round_trip(self, shape):
        n, length, seed = shape
        flags = np.random.default_rng(seed).random((n, length)) < 0.4
        words = pack_bool_matrix(flags)
        assert words.shape == (n, words_for_bits(length))
        assert np.array_equal(unpack_word_matrix(words, length), flags)
        for i in range(n):
            assert np.array_equal(
                words[i], Bitmask.from_bool(flags[i]).words
            )

    @given(bool_matrices)
    @settings(max_examples=40, deadline=None)
    def test_popcount_and_or(self, shape):
        n, length, seed = shape
        rng = np.random.default_rng(seed)
        flags = rng.random((n, length)) < 0.4
        words = pack_bool_matrix(flags)
        assert np.array_equal(
            batch_popcount(words), flags.sum(axis=1)
        )
        reduced = batch_or(words)
        assert np.array_equal(
            reduced, Bitmask.from_bool(flags.any(axis=0)).words
        )

    @pytest.mark.parametrize("rows", ["random", "empty_and_ones"])
    @given(bool_matrices)
    @settings(max_examples=40, deadline=None)
    def test_similarity_kernels(self, rows, shape):
        n, length, seed = shape
        rng = np.random.default_rng(seed)
        a = rng.random((n, length)) < 0.4
        if rows == "empty_and_ones":
            a[0] = False
            a[-1] = True
        b = rng.random(length) < 0.5
        wa, wb = pack_bool_matrix(a), pack_bool_matrix(b[None])[0]
        inter = (a & b).sum(axis=1)
        assert np.array_equal(batch_and_popcount(wa, wb), inter)
        # per-tap hits of the score path: segment popcount of the AND
        # against the canary, with a zero-length middle segment
        half = wa.shape[1] // 2
        offsets = np.array([0, half, half], dtype=np.intp)
        bounds = [(0, half), (half, half), (half, wa.shape[1])]
        expected_hits = np.stack(
            [(a & b)[:, w0 * WORD_BITS:w1 * WORD_BITS].sum(axis=1)
             for w0, w1 in bounds],
            axis=1,
        )
        assert np.array_equal(
            segment_popcount(wa & wb, offsets), expected_hits
        )
        masks_a = [Bitmask.from_bool(row) for row in a]
        mask_b = Bitmask.from_bool(b)
        containment = batch_containment(wa, wb)
        jaccard = batch_jaccard(wa, wb)
        for i, mask in enumerate(masks_a):
            ones = mask.popcount()
            hits = mask.intersection_count(mask_b)
            expected = hits / ones if ones else 0.0
            assert containment[i] == expected
            union = (mask | mask_b).popcount()
            expected_j = hits / union if union else 1.0
            assert jaccard[i] == expected_j

    @pytest.mark.parametrize("shape", KERNEL_SHAPES,
                             ids=lambda shape: "{}-{}x{}".format(*shape))
    @pytest.mark.parametrize("kernel", sorted(KERNEL_CASES))
    def test_kernel_matches_boolean_reference(self, kernel, shape):
        rows, n, bits = shape
        rng = np.random.default_rng(n * 10_000 + bits)
        a = rng.random((n, bits)) < 0.3
        if rows == "empty_and_ones":
            a[:2] = False
            a[2:4] = True
        wa = pack_bool_matrix(a)
        # the canary as one broadcast row and as a per-row matrix
        for b in (rng.random((1, bits)) < 0.4, rng.random((n, bits)) < 0.4):
            got, expected = KERNEL_CASES[kernel](a, b, wa,
                                                 pack_bool_matrix(b))
            for g, e in zip(got, expected):
                # exact, not to a tolerance: the float scores are the
                # same int counts followed by the same IEEE division
                assert g.shape == e.shape
                assert np.array_equal(g, e)

    def test_segment_popcount(self):
        rng = np.random.default_rng(0)
        lengths = [70, 3, 129]
        flags = [rng.random((4, size)) < 0.5 for size in lengths]
        words = np.hstack([pack_bool_matrix(f) for f in flags])
        offsets = np.cumsum(
            [0] + [words_for_bits(size) for size in lengths[:-1]]
        )
        counts = segment_popcount(words, offsets)
        expected = np.stack(
            [f.sum(axis=1) for f in flags], axis=1
        )
        assert np.array_equal(counts, expected)

    def test_empty_batch(self):
        words = pack_bool_matrix(np.zeros((0, 10), dtype=bool))
        assert words.shape == (0, 1)
        assert batch_popcount(words).shape == (0,)
        assert batch_containment(words, np.zeros(1, np.uint64)).shape == (0,)


class TestSegmentPopcountEdges:
    """Edge cases of the per-segment kernel: empty offset lists,
    zero-length segments, non-contiguous views, and input validation
    (mirroring the checks of the dense batch kernels)."""

    def test_empty_offsets_give_zero_width_result(self):
        words = pack_bool_matrix(np.ones((3, 70), dtype=bool))
        counts = segment_popcount(words, np.zeros(0, dtype=np.intp))
        assert counts.shape == (3, 0)
        assert counts.dtype == np.int64

    def test_zero_length_segments_count_zero(self):
        words = pack_bool_matrix(np.ones((2, 200), dtype=bool))
        n_words = words.shape[1]
        offsets = np.array([0, 1, 1, 1, n_words], dtype=np.intp)
        counts = segment_popcount(words, offsets)
        assert counts.shape == (2, 5)
        # segments 1 and 2 are [1, 1) and the last is [n_words, n_words)
        assert (counts[:, 1] == 0).all()
        assert (counts[:, 2] == 0).all()
        assert (counts[:, 4] == 0).all()
        # the non-empty segments still add up to every set bit
        assert np.array_equal(counts.sum(axis=1), batch_popcount(words))

    def test_leading_offset_need_not_be_zero(self):
        words = pack_bool_matrix(np.ones((1, 64 * 4), dtype=bool))
        counts = segment_popcount(words, np.array([2, 3], dtype=np.intp))
        assert np.array_equal(counts, [[64, 64]])

    def test_non_contiguous_view_matches_contiguous_copy(self):
        rng = np.random.default_rng(5)
        words = pack_bool_matrix(rng.random((8, 300)) < 0.5)
        offsets = np.array([0, 2, 2, 4], dtype=np.intp)
        strided = words[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            segment_popcount(strided, offsets),
            segment_popcount(np.ascontiguousarray(strided), offsets),
        )
        transposed = words.T[:, :4].T  # column-sliced view
        assert np.array_equal(
            segment_popcount(transposed, offsets),
            segment_popcount(np.ascontiguousarray(transposed), offsets),
        )

    def test_single_row_vector_input(self):
        words = pack_bool_matrix(np.ones((1, 70), dtype=bool))[0]
        assert words.ndim == 1
        counts = segment_popcount(words, np.array([0, 1], dtype=np.intp))
        assert counts.shape == (1, 2)
        assert np.array_equal(counts, [[64, 6]])

    def test_validation_rejects_bad_offsets(self):
        words = pack_bool_matrix(np.ones((2, 70), dtype=bool))
        with pytest.raises(ValueError, match="non-decreasing"):
            segment_popcount(words, np.array([1, 0], dtype=np.intp))
        with pytest.raises(ValueError, match="lie in"):
            segment_popcount(words, np.array([0, 99], dtype=np.intp))
        with pytest.raises(ValueError, match="lie in"):
            segment_popcount(words, np.array([-1, 1], dtype=np.intp))
        with pytest.raises(ValueError, match="1-D"):
            segment_popcount(words, np.array([[0], [1]], dtype=np.intp))
