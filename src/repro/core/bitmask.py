"""Packed bit-vectors used to represent activation and class paths.

The paper represents a path as a bitmask where bit ``m(i, j)`` marks
neuron ``j`` of layer ``i`` as important (Sec. III-A).  Bits are packed
64-per-word into ``numpy.uint64`` so class paths for all classes of a
model stay small and every operation the detection algorithm needs —
OR (class-path aggregation), AND + popcount (similarity) — is one or
two SIMD-friendly numpy calls.

Bit ``k`` of a vector lives at bit ``k % 64`` of word ``k // 64``
(little-endian within the word).  Tail bits beyond ``length`` in the
final word are always zero, so popcounts never need re-masking.

Besides the scalar :class:`Bitmask`, this module provides the batched
kernels the runtime engine is built on: whole batches of paths are
``(N, words)`` ``uint64`` matrices, and similarity over a batch is a
handful of vectorized ops instead of N Python-level mask objects.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "Bitmask",
    "WORD_BITS",
    "words_for_bits",
    "pack_bool_matrix",
    "unpack_word_matrix",
    "batch_or",
    "batch_popcount",
    "batch_and_popcount",
    "batch_containment",
    "batch_jaccard",
    "segment_popcount",
    "validate_segment_offsets",
]

#: Bits per storage word.
WORD_BITS = 64


def words_for_bits(length: int) -> int:
    """Number of uint64 words needed to hold ``length`` bits."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return (length + WORD_BITS - 1) // WORD_BITS


def _words_from_bool(flags: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian uint64 words."""
    flags = np.asarray(flags, dtype=bool).ravel()
    nwords = words_for_bits(flags.size)
    packed = np.packbits(flags, bitorder="little")
    buf = np.zeros(nwords * 8, dtype=np.uint8)
    buf[: packed.size] = packed
    return buf.view("<u8").astype(np.uint64, copy=False)


def _bool_from_words(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`_words_from_bool`."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little").astype(bool)


def _tail_mask(length: int) -> np.uint64:
    """Word mask keeping only the valid bits of the final word."""
    used = length % WORD_BITS
    if used == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << used) - 1)


class Bitmask:
    """Fixed-length packed bit vector (64 bits per ``uint64`` word)."""

    __slots__ = ("length", "_words")

    def __init__(self, length: int, bits: np.ndarray | None = None):
        if length < 0:
            raise ValueError("length must be non-negative")
        self.length = length
        nwords = words_for_bits(length)
        if bits is None:
            self._words = np.zeros(nwords, dtype=np.uint64)
            return
        bits = np.asarray(bits)
        if bits.dtype == np.uint64:
            if bits.shape != (nwords,):
                raise ValueError(
                    f"word buffer has shape {bits.shape}, expected ({nwords},)"
                )
            self._words = bits.astype(np.uint64, copy=True)
            self._mask_tail()
        else:
            # Legacy byte buffer: np.packbits big-endian bit order, as
            # produced by the original 8-bit-packed implementation.
            nbytes = (length + 7) // 8
            bits = bits.astype(np.uint8, copy=False)
            if bits.shape != (nbytes,):
                raise ValueError(
                    f"bits buffer has shape {bits.shape}, expected ({nbytes},)"
                )
            flags = np.unpackbits(bits, count=length).astype(bool)
            self._words = _words_from_bool(flags)

    def _mask_tail(self) -> None:
        """Zero any bits beyond ``length`` in the final word."""
        if self._words.size and self.length % WORD_BITS:
            self._words[-1] &= _tail_mask(self.length)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_bool(cls, flags: np.ndarray) -> "Bitmask":
        flags = np.asarray(flags, dtype=bool).ravel()
        mask = cls(flags.size)
        mask._words = _words_from_bool(flags)
        return mask

    @classmethod
    def from_positions(cls, length: int, positions: Iterable[int]) -> "Bitmask":
        flags = np.zeros(length, dtype=bool)
        pos = np.asarray(list(positions), dtype=np.int64)
        if pos.size:
            if pos.min() < 0 or pos.max() >= length:
                raise IndexError("position out of range")
            flags[pos] = True
        return cls.from_bool(flags)

    @classmethod
    def from_words(cls, length: int, words: np.ndarray) -> "Bitmask":
        """Wrap a ``uint64`` word buffer (copied; tail re-masked)."""
        return cls(length, np.asarray(words, dtype=np.uint64))

    # -- queries ----------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        """Read-only view of the packed word buffer."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    def to_bool(self) -> np.ndarray:
        return _bool_from_words(self._words, self.length)

    def positions(self) -> np.ndarray:
        return np.flatnonzero(self.to_bool())

    def popcount(self) -> int:
        """Number of set bits (``||P||_1`` in the paper)."""
        return int(np.bitwise_count(self._words).sum())

    def get(self, index: int) -> bool:
        if not 0 <= index < self.length:
            raise IndexError(index)
        word, offset = divmod(index, WORD_BITS)
        return bool((int(self._words[word]) >> offset) & 1)

    # -- bit algebra --------------------------------------------------------
    def _check(self, other: "Bitmask") -> None:
        if not isinstance(other, Bitmask):
            raise TypeError("expected a Bitmask")
        if other.length != self.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )

    def __or__(self, other: "Bitmask") -> "Bitmask":
        self._check(other)
        return Bitmask(self.length, self._words | other._words)

    def __and__(self, other: "Bitmask") -> "Bitmask":
        self._check(other)
        return Bitmask(self.length, self._words & other._words)

    def __xor__(self, other: "Bitmask") -> "Bitmask":
        self._check(other)
        return Bitmask(self.length, self._words ^ other._words)

    def ior(self, other: "Bitmask") -> "Bitmask":
        """In-place OR (class-path aggregation without reallocating)."""
        self._check(other)
        self._words |= other._words
        return self

    def ior_words(self, words: np.ndarray) -> "Bitmask":
        """In-place OR with a raw word buffer (batched aggregation)."""
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != self._words.shape:
            raise ValueError(
                f"word buffer has shape {words.shape}, "
                f"expected {self._words.shape}"
            )
        self._words |= words
        self._mask_tail()
        return self

    def intersection_count(self, other: "Bitmask") -> int:
        """``||A & B||_1`` without materialising the AND mask."""
        self._check(other)
        return int(np.bitwise_count(self._words & other._words).sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bitmask)
            and other.length == self.length
            and np.array_equal(other._words, self._words)
        )

    def __hash__(self):
        return hash((self.length, self._words.tobytes()))

    def copy(self) -> "Bitmask":
        return Bitmask(self.length, self._words)

    @property
    def nbytes(self) -> int:
        """Logical storage footprint: the paper's canary paths are
        byte-packed off-chip, independent of the in-memory word width."""
        return (self.length + 7) // 8

    def __repr__(self) -> str:
        return f"Bitmask(length={self.length}, ones={self.popcount()})"


# -- batched kernels ---------------------------------------------------------
#
# A batch of N equal-length bit vectors is an (N, words) uint64 matrix
# with the same little-endian bit layout as Bitmask.  These kernels are
# the vectorized counterparts of the scalar operations above and are
# bit-identical to looping Bitmask calls (the equivalence tests assert
# exactly that).


def pack_bool_matrix(flags: np.ndarray) -> np.ndarray:
    """Pack an ``(N, L)`` boolean matrix into ``(N, words)`` uint64."""
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 2:
        raise ValueError(f"expected a 2-D boolean matrix, got {flags.shape}")
    n, length = flags.shape
    nwords = words_for_bits(length)
    packed = np.packbits(flags, axis=1, bitorder="little")
    if packed.shape[1] < nwords * 8:
        pad = np.zeros((n, nwords * 8 - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    packed = np.ascontiguousarray(packed)
    return packed.view("<u8").astype(np.uint64, copy=False).reshape(n, nwords)


def unpack_word_matrix(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix` -> ``(N, length)`` bool."""
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    flags = np.unpackbits(raw, axis=1, bitorder="little")
    return flags[:, :length].astype(bool)


def batch_or(words: np.ndarray) -> np.ndarray:
    """OR-reduce a batch of packed rows into one row (class-path
    aggregation over a whole micro-batch in a single kernel)."""
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    return np.bitwise_or.reduce(words, axis=0)


def batch_popcount(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of an ``(N, words)`` matrix -> ``(N,)`` int64."""
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def batch_and_popcount(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row ``||A_i & B_i||_1``.  ``b`` may be one row (broadcast
    against every row of ``a``) or a matching ``(N, words)`` matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint64))
    b = np.asarray(b, dtype=np.uint64)
    return np.bitwise_count(a & b).sum(axis=1, dtype=np.int64)


def batch_containment(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The paper's similarity ``S = ||A & B||_1 / ||A||_1`` per row,
    0.0 where ``A`` is empty (matching :func:`path_similarity`)."""
    ones = batch_popcount(a)
    hits = batch_and_popcount(a, b)
    out = np.zeros(ones.shape[0], dtype=np.float64)
    nz = ones > 0
    out[nz] = hits[nz] / ones[nz]
    return out


def batch_jaccard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jaccard similarity ``||A & B||_1 / ||A | B||_1`` per row, 1.0
    where the union is empty (matching :func:`symmetric_similarity`)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint64))
    b = np.asarray(b, dtype=np.uint64)
    inter = np.bitwise_count(a & b).sum(axis=1, dtype=np.int64)
    union = np.bitwise_count(a | b).sum(axis=1, dtype=np.int64)
    out = np.ones(a.shape[0], dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def validate_segment_offsets(
    offsets: np.ndarray, n_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(starts, ends)`` word-column bounds for per-segment
    kernels: segment ``k`` covers columns ``[starts[k], ends[k])``.

    Offsets must be 1-D, non-decreasing and within ``[0, n_words]``
    (mirroring the operand checks of :func:`batch_and_popcount`'s
    callers); equal consecutive offsets — and a final offset at the
    matrix edge — describe legitimate zero-length segments.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.ndim != 1:
        raise ValueError(
            f"segment offsets must be 1-D, got shape {offsets.shape}"
        )
    if offsets.size == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    if np.any(np.diff(offsets) < 0):
        raise ValueError("segment offsets must be non-decreasing")
    if offsets[0] < 0 or offsets[-1] > n_words:
        raise ValueError(
            f"segment offsets must lie in [0, {n_words}], "
            f"got [{offsets[0]}, {offsets[-1]}]"
        )
    ends = np.empty_like(offsets)
    ends[:-1] = offsets[1:]
    ends[-1] = n_words
    return offsets, ends


def segment_popcount(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Popcount per word-segment: ``offsets`` are the starting word
    columns of each segment (e.g. one per path tap).  Returns
    ``(N, num_segments)`` int64.  Used for per-tap similarity features
    without slicing the matrix per tap.

    Edge cases are well-defined: empty ``offsets`` yields ``(N, 0)``,
    zero-length segments (equal consecutive offsets, or a final offset
    at the matrix edge) count 0, and non-contiguous word views are
    handled (copied to contiguous storage first).
    """
    words = np.atleast_2d(np.ascontiguousarray(words, dtype=np.uint64))
    starts, ends = validate_segment_offsets(offsets, words.shape[1])
    if starts.size == 0:
        return np.zeros((words.shape[0], 0), dtype=np.int64)
    counts = np.bitwise_count(words).astype(np.int64)
    if bool(np.all(starts < ends)):
        # Strictly increasing offsets with none at the matrix edge —
        # the common tap layout — where reduceat's semantics are
        # exactly the segment sums, one pass cheaper than the prefix
        # scan below.
        return np.add.reduceat(counts, starts, axis=1)
    # General path: prefix sums make zero-length segments naturally 0
    # instead of relying on reduceat's backwards-segment accident.
    csum = np.zeros((words.shape[0], words.shape[1] + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=csum[:, 1:])
    return csum[:, ends] - csum[:, starts]
