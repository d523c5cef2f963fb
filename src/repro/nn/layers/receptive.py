"""Batched partial-sum blocks shared by the extraction units.

Backward path extraction asks an extraction unit (:class:`Conv2d`,
:class:`Linear`) for the partial sums of many important
``(sample, output neuron)`` pairs at once.  The unit answers with
:class:`PartialSumBlock` s: equal-length, C-contiguous ``(M, L)``
matrices whose row ``m`` holds exactly what ``partial_sums`` returns for
pair ``members[m]``, in the same order, so row-wise selection
reproduces the per-neuron selection bit for bit.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["BLOCK_ELEMENTS", "PartialSumBlock", "row_blocks"]

#: Matrix elements per block: bounds the gather and selection
#: temporaries (a few float64/int64 copies of one block) whatever the
#: receptive-field size or the number of important neurons.
BLOCK_ELEMENTS = 1 << 18


class PartialSumBlock(NamedTuple):
    """Partial sums of ``M`` (sample, output) pairs sharing one
    receptive-field shape.

    ``psums[m, l]`` is the contribution of flat input position
    ``input_base[m] + input_offsets[l]`` (within one sample's C*H*W
    input) to the output of pair ``members[m]``.
    """

    members: np.ndarray
    psums: np.ndarray
    input_base: np.ndarray
    input_offsets: np.ndarray


def row_blocks(n_rows: int, row_len: int) -> Iterator[slice]:
    """Consecutive row slices of at most :data:`BLOCK_ELEMENTS` elements
    (at least one row each)."""
    step = max(1, BLOCK_ELEMENTS // max(row_len, 1))
    for start in range(0, n_rows, step):
        yield slice(start, start + step)
