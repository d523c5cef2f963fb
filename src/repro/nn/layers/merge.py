"""Multi-input merge layers (residual add, channel concat).

These are the only layers with more than one input.  They implement
``propagate_back_multi``, which splits an important-position set on the
merged output into per-input position sets:

* ``Add`` — both addends contributed every element, so positions copy
  to both inputs (the conservative superset; the paper does not define
  residual handling explicitly).
* ``Concat`` — positions partition by channel offset.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.module import Module

__all__ = ["Add", "Concat"]


class Add(Module):
    """Element-wise sum of two equally-shaped feature maps."""

    def forward_multi(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if len(inputs) != 2:
            raise ValueError("Add expects exactly two inputs")
        a, b = inputs
        if a.shape != b.shape:
            raise ValueError(f"Add shape mismatch: {a.shape} vs {b.shape}")
        self._cache = {"shape": a.shape}
        return a + b

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise RuntimeError("Add is a multi-input layer; use forward_multi")

    def backward_multi(self, grad_out: np.ndarray) -> List[np.ndarray]:
        return [grad_out, grad_out]

    def propagate_back_multi(
        self, positions: np.ndarray, sample: int = 0
    ) -> List[np.ndarray]:
        return [positions.copy(), positions.copy()]

    def propagate_back_multi_batch(self, flags: np.ndarray) -> List[np.ndarray]:
        """Row-wise :meth:`propagate_back_multi` of an ``(N, size)``
        importance matrix."""
        return [flags, flags]


class Concat(Module):
    """Concatenation along the channel axis of (N, C, H, W) inputs."""

    def forward_multi(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if len(inputs) < 2:
            raise ValueError("Concat expects at least two inputs")
        spatial = inputs[0].shape[2:]
        for tensor in inputs[1:]:
            if tensor.shape[2:] != spatial:
                raise ValueError("Concat spatial shape mismatch")
        self._cache = {
            "channels": [t.shape[1] for t in inputs],
            "spatial": spatial,
        }
        return np.concatenate(inputs, axis=1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise RuntimeError("Concat is a multi-input layer; use forward_multi")

    def backward_multi(self, grad_out: np.ndarray) -> List[np.ndarray]:
        splits = np.cumsum(self._cache["channels"])[:-1]
        return list(np.split(grad_out, splits, axis=1))

    def propagate_back_multi(
        self, positions: np.ndarray, sample: int = 0
    ) -> List[np.ndarray]:
        height, width = self._cache["spatial"]
        spatial = height * width
        channels = self._cache["channels"]
        out: List[np.ndarray] = []
        offset = 0
        for ch in channels:
            size = ch * spatial
            mask = (positions >= offset) & (positions < offset + size)
            out.append(positions[mask] - offset)
            offset += size
        return out

    def propagate_back_multi_batch(self, flags: np.ndarray) -> List[np.ndarray]:
        """Row-wise :meth:`propagate_back_multi` of an ``(N, size)``
        importance matrix: a column split at the channel offsets."""
        height, width = self._cache["spatial"]
        bounds = np.cumsum(self._cache["channels"])[:-1] * (height * width)
        return np.split(flags, bounds, axis=1)
