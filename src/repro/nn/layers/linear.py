"""Fully-connected layer with partial-sum introspection."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.layers.receptive import PartialSumBlock, row_blocks
from repro.nn.module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """``y = x @ W.T + b`` over inputs of shape (N, in_features).

    This is an *extraction unit*: Ptolemy decomposes each output neuron
    ``y_j`` into its partial sums ``W[j, i] * x_i`` (the bias is not a
    partial sum, matching the paper's formulation in Fig. 3).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng or np.random.default_rng()
        bound = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, bound, size=(out_features, in_features)), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features

    # -- execution ----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        self._cache = {"x": x}
        if self.training:
            out = x @ self.weight.data.T
        else:
            # einsum (not BLAS matmul): its reduction order is independent
            # of the batch size, so batch-N and batch-1 inference forwards
            # are bit-identical — the invariant the batched detection
            # engine's equivalence guarantee rests on.  Training sticks
            # with the faster BLAS path (like BatchNorm, train and eval
            # modes are allowed different numerics).
            out = np.einsum("nk,ok->no", x, self.weight.data)
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache["x"]
        self.weight.grad += grad_out.T @ x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data

    # -- shape metadata -------------------------------------------------
    @property
    def input_feature_size(self) -> int:
        return self.in_features

    @property
    def output_feature_size(self) -> int:
        return self.out_features

    # -- Ptolemy introspection protocol ----------------------------------
    def receptive_field(self, out_pos: int) -> np.ndarray:
        """Flat input positions feeding output neuron ``out_pos``.

        For a dense layer every input feeds every output.
        """
        if not 0 <= out_pos < self.out_features:
            raise IndexError(f"output position {out_pos} out of range")
        return np.arange(self.in_features)

    def partial_sums(self, out_pos: int, sample: int = 0) -> np.ndarray:
        """Partial sums ``W[out_pos, i] * x_i`` for the cached sample."""
        x = self._cache["x"]
        return self.weight.data[out_pos] * x[sample]

    def partial_sum_rows(
        self, samples: np.ndarray, out_positions: np.ndarray
    ) -> Iterator[PartialSumBlock]:
        """:meth:`partial_sums` of every ``(samples[i], out_positions[i])``
        pair; every output shares the whole input as receptive field."""
        x = self._cache["x"]
        offsets = np.arange(self.in_features)
        pairs = np.arange(samples.size)
        for rows in row_blocks(pairs.size, offsets.size):
            chunk = pairs[rows]
            yield PartialSumBlock(
                chunk,
                self.weight.data[out_positions[chunk]] * x[samples[chunk]],
                np.zeros(chunk.size, dtype=np.int64),
                offsets,
            )

    def nominal_rf_size(self) -> int:
        """Receptive-field size used for hardware cost modelling."""
        return self.in_features

    def mac_count(self) -> int:
        """MACs for one sample (drives the accelerator timing model)."""
        return self.in_features * self.out_features

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"
