"""Activation paths and class paths (Sec. III-A/III-B).

A :class:`PathLayout` names the taps — one per extracted unit — and
their sizes; an :class:`ActivationPath` is one bitmask per tap; a
:class:`ClassPath` is the bitwise-OR aggregate over correctly-predicted
training inputs of a class:  ``P_c = U_{x in x_c} P(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.bitmask import (
    Bitmask,
    batch_containment,
    pack_bool_matrix,
    segment_popcount,
    words_for_bits,
)

__all__ = [
    "PathLayout",
    "ActivationPath",
    "ClassPath",
    "PackedPathBatch",
    "path_similarity",
    "per_tap_similarity",
    "symmetric_similarity",
    "batch_path_similarity",
    "batch_per_tap_similarity",
]


@dataclass(frozen=True)
class PathLayout:
    """Names and sizes of the taps making up a path.

    Tap ``i`` corresponds to extracted unit ``i``; for backward
    extraction its size is the unit's *input* feature-map size, for
    forward extraction the unit's *output* feature-map size.  Offline
    profiling and online detection must share the layout (the paper
    requires matching extraction methods; Fig. 4).
    """

    tap_names: Tuple[str, ...]
    tap_sizes: Tuple[int, ...]

    def __post_init__(self):
        if len(self.tap_names) != len(self.tap_sizes):
            raise ValueError("tap names/sizes length mismatch")
        if any(size <= 0 for size in self.tap_sizes):
            raise ValueError("tap sizes must be positive")

    @property
    def num_taps(self) -> int:
        return len(self.tap_names)

    @property
    def total_bits(self) -> int:
        return int(sum(self.tap_sizes))

    def empty_path(self) -> "ActivationPath":
        return ActivationPath(
            self, [Bitmask(size) for size in self.tap_sizes]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PathLayout)
            and other.tap_names == self.tap_names
            and other.tap_sizes == self.tap_sizes
        )


class ActivationPath:
    """The per-input path: one bitmask per tap."""

    __slots__ = ("layout", "masks")

    def __init__(self, layout: PathLayout, masks: Sequence[Bitmask]):
        if len(masks) != layout.num_taps:
            raise ValueError("one mask per tap required")
        for mask, size in zip(masks, layout.tap_sizes):
            if mask.length != size:
                raise ValueError(
                    f"mask length {mask.length} does not match tap size {size}"
                )
        self.layout = layout
        self.masks = list(masks)

    def popcount(self) -> int:
        return sum(mask.popcount() for mask in self.masks)

    def density(self) -> float:
        """Fraction of bits set — the paper's 'important neuron percentage'."""
        total = self.layout.total_bits
        return self.popcount() / total if total else 0.0

    def union(self, other: "ActivationPath") -> "ActivationPath":
        self._check(other)
        return ActivationPath(
            self.layout, [a | b for a, b in zip(self.masks, other.masks)]
        )

    def union_inplace(self, other: "ActivationPath") -> "ActivationPath":
        self._check(other)
        for mine, theirs in zip(self.masks, other.masks):
            mine.ior(theirs)
        return self

    def _check(self, other: "ActivationPath") -> None:
        if other.layout != self.layout:
            raise ValueError("paths have different layouts")

    def packed_words(self) -> np.ndarray:
        """The path as one word row in :class:`PackedPathBatch` layout
        (each tap padded to a word boundary)."""
        offsets, total_words = _word_geometry(self.layout)
        row = np.zeros(total_words, dtype=np.uint64)
        for off, mask in zip(offsets, self.masks):
            row[off : off + mask.words.size] = mask.words
        return row

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActivationPath)
            and other.layout == self.layout
            and all(a == b for a, b in zip(other.masks, self.masks))
        )

    def __repr__(self) -> str:
        return (
            f"ActivationPath(taps={self.layout.num_taps}, "
            f"ones={self.popcount()}/{self.layout.total_bits})"
        )


class ClassPath(ActivationPath):
    """Aggregated canary path for one inference class."""

    __slots__ = ("class_id", "num_samples")

    def __init__(self, layout: PathLayout, class_id: int):
        super().__init__(layout, [Bitmask(s) for s in layout.tap_sizes])
        self.class_id = class_id
        self.num_samples = 0

    def aggregate(self, path: ActivationPath) -> None:
        """OR a sample's activation path into the canary (Fig. 4,
        incremental aggregation — no re-generation needed)."""
        self.union_inplace(path)
        self.num_samples += 1

    def aggregate_words(self, row: np.ndarray, num_samples: int = 1) -> None:
        """OR a packed word row (or an OR-reduction of several sample
        rows) into the canary without unpacking — the batched
        profiler's aggregation step."""
        offsets, total_words = _word_geometry(self.layout)
        row = np.asarray(row, dtype=np.uint64)
        if row.shape != (total_words,):
            raise ValueError(
                f"packed row has shape {row.shape}, expected ({total_words},)"
            )
        for off, mask in zip(offsets, self.masks):
            mask.ior_words(row[off : off + mask.words.size])
        self.num_samples += num_samples


def _word_geometry(layout: PathLayout) -> Tuple[np.ndarray, int]:
    """Starting word column of each tap segment, and the total word
    count, when a path is packed tap-by-tap (each tap padded to a word
    boundary so segments never share a word)."""
    counts = [words_for_bits(size) for size in layout.tap_sizes]
    offsets = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets, int(sum(counts))


class PackedPathBatch:
    """A batch of N activation paths as one ``(N, words)`` uint64 matrix.

    Tap ``t`` occupies the word columns ``[offset_t, offset_t + W_t)``;
    taps are padded to word boundaries, so per-tap operations are
    column slices and whole-path operations (popcount, AND+popcount
    against a canary row) run over the full matrix in one kernel.
    This is the layout the batched detection engine operates on.
    """

    __slots__ = ("layout", "words", "tap_offsets")

    def __init__(self, layout: PathLayout, words: np.ndarray):
        offsets, total_words = _word_geometry(layout)
        words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
        if words.shape[1] != total_words:
            raise ValueError(
                f"word matrix has {words.shape[1]} columns, "
                f"expected {total_words}"
            )
        self.layout = layout
        self.words = words
        self.tap_offsets = offsets

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_tap_bools(
        cls, layout: PathLayout, tap_flags: Sequence[np.ndarray]
    ) -> "PackedPathBatch":
        """Pack per-tap ``(N, tap_size)`` boolean matrices."""
        if len(tap_flags) != layout.num_taps:
            raise ValueError("one boolean matrix per tap required")
        for flags, size in zip(tap_flags, layout.tap_sizes):
            if flags.ndim != 2 or flags.shape[1] != size:
                raise ValueError(
                    f"tap matrix shape {flags.shape} does not match "
                    f"tap size {size}"
                )
        packed = [pack_bool_matrix(flags) for flags in tap_flags]
        return cls(layout, np.hstack(packed))

    @classmethod
    def from_paths(
        cls, layout: PathLayout, paths: Sequence[ActivationPath]
    ) -> "PackedPathBatch":
        """Pack already-extracted per-sample paths into one matrix."""
        offsets, total_words = _word_geometry(layout)
        words = np.zeros((len(paths), total_words), dtype=np.uint64)
        for row, path in enumerate(paths):
            if path.layout != layout:
                raise ValueError("paths have different layouts")
            for off, mask in zip(offsets, path.masks):
                words[row, off : off + mask.words.size] = mask.words
        return cls(layout, words)

    # -- queries ----------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return self.words.shape[0]

    def __len__(self) -> int:
        return self.batch_size

    def tap_words(self, tap: int) -> np.ndarray:
        """Word columns of one tap (a view, not a copy)."""
        start = self.tap_offsets[tap]
        width = words_for_bits(self.layout.tap_sizes[tap])
        return self.words[:, start : start + width]

    def popcounts(self) -> np.ndarray:
        """``||P(x_i)||_1`` per row."""
        from repro.core.bitmask import batch_popcount

        return batch_popcount(self.words)

    def tap_popcounts(self) -> np.ndarray:
        """Per-tap popcounts, shape ``(N, num_taps)``."""
        return segment_popcount(self.words, self.tap_offsets)

    def densities(self) -> np.ndarray:
        total = self.layout.total_bits
        if total == 0:
            return np.zeros(self.batch_size)
        return self.popcounts() / total

    def to_paths(self) -> List[ActivationPath]:
        """Unpack into per-sample :class:`ActivationPath` objects."""
        paths: List[ActivationPath] = []
        for row in range(self.batch_size):
            masks = []
            for tap, size in enumerate(self.layout.tap_sizes):
                masks.append(
                    Bitmask.from_words(size, self.tap_words(tap)[row])
                )
            paths.append(ActivationPath(self.layout, masks))
        return paths

    def __repr__(self) -> str:
        return (
            f"PackedPathBatch(n={self.batch_size}, "
            f"taps={self.layout.num_taps}, words={self.words.shape[1]})"
        )


def path_similarity(path: ActivationPath, canary: ActivationPath) -> float:
    """The paper's similarity ``S = ||P(x) & P_c||_1 / ||P(x)||_1``."""
    if path.layout != canary.layout:
        raise ValueError("paths have different layouts")
    ones = path.popcount()
    if ones == 0:
        return 0.0
    hits = sum(
        a.intersection_count(b) for a, b in zip(path.masks, canary.masks)
    )
    return hits / ones


def per_tap_similarity(
    path: ActivationPath, canary: ActivationPath
) -> np.ndarray:
    """Per-layer similarity vector (richer classifier features)."""
    if path.layout != canary.layout:
        raise ValueError("paths have different layouts")
    sims = np.empty(path.layout.num_taps)
    for i, (a, b) in enumerate(zip(path.masks, canary.masks)):
        ones = a.popcount()
        sims[i] = a.intersection_count(b) / ones if ones else 0.0
    return sims


def batch_path_similarity(
    batch: PackedPathBatch, canary_words: np.ndarray, kernels=None
) -> np.ndarray:
    """Vectorized :func:`path_similarity`: per-row containment of the
    batch in the (broadcast or per-row) canary word matrix.
    ``kernels`` is ignored (see :attr:`PtolemyDetector.kernels`)."""
    return batch_containment(batch.words, canary_words)


def batch_per_tap_similarity(
    batch: PackedPathBatch, canary_words: np.ndarray, kernels=None
) -> np.ndarray:
    """Vectorized :func:`per_tap_similarity` -> ``(N, num_taps)``.
    ``kernels`` is ignored (see :attr:`PtolemyDetector.kernels`)."""
    canary = np.asarray(canary_words, dtype=np.uint64)
    ones = batch.tap_popcounts()
    hits = segment_popcount(batch.words & canary, batch.tap_offsets)
    out = np.zeros(ones.shape, dtype=np.float64)
    nz = ones > 0
    out[nz] = hits[nz] / ones[nz]
    return out


def symmetric_similarity(a: ActivationPath, b: ActivationPath) -> float:
    """Jaccard-style similarity used for inter-class comparisons (Fig. 5):
    ``||A & B||_1 / ||A | B||_1``."""
    if a.layout != b.layout:
        raise ValueError("paths have different layouts")
    inter = sum(x.intersection_count(y) for x, y in zip(a.masks, b.masks))
    union = sum((x | y).popcount() for x, y in zip(a.masks, b.masks))
    return inter / union if union else 1.0
