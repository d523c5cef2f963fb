"""Element-wise and shape-only layers (transparent to path extraction)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "Flatten", "Dropout", "Identity"]


class ReLU(Module):
    """Rectified linear unit.  Positions pass through unchanged."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._cache = {"mask": mask}
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._cache["mask"]

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        """Importance positions are unchanged by an element-wise op."""
        return positions

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        return flags


class Identity(Module):
    """No-op layer; useful as a placeholder shortcut in residual blocks."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        return positions

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        return flags


class Flatten(Module):
    """Reshape (N, C, H, W) -> (N, C*H*W).

    Flat positions are identical before and after, so importance
    propagation is the identity on flat indices.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"shape": x.shape}
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._cache["shape"])

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        return positions

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        return flags


class Dropout(Module):
    """Inverted dropout; identity at inference time."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._cache = {"mask": None}
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        self._cache = {"mask": mask}
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._cache["mask"]
        return grad_out if mask is None else grad_out * mask

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        return positions

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        return flags
