"""2-D convolution with partial-sum introspection.

The forward/backward passes use im2col so they are dense GEMMs; the
Ptolemy introspection path recomputes partial sums on demand from the
cached input, which is exactly the ``csps`` recompute strategy the
paper's compiler emits (Sec. IV-B).  Receptive-field addresses come
from a table built once per input shape, the software twin of the
precomputed addresses the paper's path constructor reads.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.layers.receptive import PartialSumBlock, row_blocks
from repro.nn.module import Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Convolution over inputs of shape (N, C, H, W)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid conv geometry")
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        bound = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(
                0.0, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
            ),
            name="weight",
        )
        self.bias = (
            Parameter(np.zeros(out_channels), name="bias") if bias else None
        )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._in_shape: Tuple[int, ...] | None = None
        self._out_hw: Tuple[int, int] | None = None
        self._table: _ReceptiveFieldTable | None = None

    # -- execution ----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        batch, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        cols = im2col(x, self.kernel_size, self.kernel_size, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # One flattened (o,f) @ (f, N*p) GEMM instead of an einsum: BLAS
        # beats c_einsum ~2x at these shapes.  Cross-batch-size
        # bit-identity is an empirical property of the BLAS build (GEMM
        # k-reduction blocking does not depend on the column count on
        # OpenBLAS/MKL; verified bitwise for N in 1..256 here) — it is
        # not guaranteed by the standard, so the batch-equivalence tests
        # and the perf gate's cross-batch score check enforce it on
        # every machine rather than trusting this comment.
        n, f, p = cols.shape
        if n == 1:
            # Identical (o,f) @ (f,p) dgemm to the flattened path at
            # n == 1, minus the transpose copies — keeps per-sample
            # latency low.
            out = (w_mat @ cols[0])[None]
        else:
            flat = cols.transpose(1, 0, 2).reshape(f, n * p)
            out = (
                (w_mat @ flat).reshape(self.out_channels, n, p).transpose(1, 0, 2)
            )
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        out = out.reshape(batch, self.out_channels, out_h, out_w)
        self._cache = {"x": x, "cols": cols}
        self._in_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, cols = self._cache["x"], self._cache["cols"]
        batch = grad_out.shape[0]
        grad_mat = grad_out.reshape(batch, self.out_channels, -1)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        n, f, p = cols.shape
        cols_flat = cols.transpose(1, 0, 2).reshape(f, n * p)
        grad_flat = grad_mat.transpose(1, 0, 2).reshape(self.out_channels, n * p)
        self.weight.grad += (grad_flat @ cols_flat.T).reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=(0, 2))
        grad_cols = (
            (w_mat.T @ grad_flat).reshape(f, n, p).transpose(1, 0, 2)
        )
        return col2im(
            grad_cols,
            x.shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    # -- shape metadata -------------------------------------------------
    @property
    def input_feature_shape(self) -> Tuple[int, int, int]:
        if self._in_shape is None:
            raise RuntimeError("Conv2d.forward has not been called yet")
        return self._in_shape[1:]

    @property
    def output_feature_shape(self) -> Tuple[int, int, int]:
        if self._out_hw is None:
            raise RuntimeError("Conv2d.forward has not been called yet")
        return (self.out_channels, self._out_hw[0], self._out_hw[1])

    @property
    def input_feature_size(self) -> int:
        c, h, w = self.input_feature_shape
        return c * h * w

    @property
    def output_feature_size(self) -> int:
        c, h, w = self.output_feature_shape
        return c * h * w

    # -- Ptolemy introspection protocol ----------------------------------
    def _locate(self, out_pos: int) -> Tuple[int, int]:
        """``(output channel, flat output spatial position)``."""
        if not 0 <= out_pos < self.output_feature_size:
            raise IndexError(f"output position {out_pos} out of range")
        out_h, out_w = self._out_hw
        return divmod(out_pos, out_h * out_w)

    def _rf_table(self) -> _ReceptiveFieldTable:
        """The receptive-field table of the current input shape, built
        on first use and rebuilt only when the input shape changes."""
        shape = self.input_feature_shape
        table = self._table
        if table is None or table.in_shape != shape:
            table = self._table = _ReceptiveFieldTable(self, shape)
        return table

    def receptive_field(self, out_pos: int) -> np.ndarray:
        """Flat input positions (within C*H*W) feeding ``out_pos``.

        Padding positions are excluded: they do not exist in the input
        feature map and contribute zero partial sums.
        """
        _, spatial = self._locate(out_pos)
        table = self._rf_table()
        return table.base[spatial] + table.input_offsets[table.group[spatial]]

    def partial_sums(self, out_pos: int, sample: int = 0) -> np.ndarray:
        """Partial sums ``w * x`` over the receptive field of ``out_pos``,
        aligned with :meth:`receptive_field`."""
        c_out, spatial = self._locate(out_pos)
        table = self._rf_table()
        group = table.group[spatial]
        weights = self.weight.data[c_out].ravel()[table.weight_offsets[group]]
        inputs = self._cache["x"][sample].ravel()[
            table.base[spatial] + table.input_offsets[group]
        ]
        return weights * inputs

    def partial_sum_rows(
        self, samples: np.ndarray, out_positions: np.ndarray
    ) -> Iterator[PartialSumBlock]:
        """:meth:`partial_sums` of every ``(samples[i], out_positions[i])``
        pair, as one block per receptive-field shape (and per
        :data:`~repro.nn.layers.receptive.BLOCK_ELEMENTS` chunk)."""
        table = self._rf_table()
        c_out, spatial = np.divmod(out_positions, table.base.size)
        groups = table.group[spatial]
        weights = self.weight.data.reshape(self.out_channels, -1)
        x = self._cache["x"]
        inputs = x.reshape(-1)
        in_size = x[0].size
        for group in np.unique(groups):
            offsets = table.input_offsets[group]
            if not offsets.size:
                continue  # window entirely in the padding: nothing to sort
            group_weights = weights[:, table.weight_offsets[group]]
            members = np.flatnonzero(groups == group)
            for rows in row_blocks(members.size, offsets.size):
                chunk = members[rows]
                base = table.base[spatial[chunk]]
                gathered = np.take(
                    inputs, (samples[chunk] * in_size + base)[:, None] + offsets
                )
                yield PartialSumBlock(
                    chunk, group_weights[c_out[chunk]] * gathered, base, offsets
                )

    def nominal_rf_size(self) -> int:
        return self.in_channels * self.kernel_size * self.kernel_size

    def mac_count(self) -> int:
        out_c, out_h, out_w = self.output_feature_shape
        return out_c * out_h * out_w * self.nominal_rf_size()

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class _ReceptiveFieldTable:
    """Receptive-field geometry of one conv over one input shape.

    Output spatial positions fall into groups, one per distinct pattern
    of in-bounds kernel offsets (at most 9 for a 3x3 kernel with
    padding 1).  Per group the table holds the weight-index and the
    relative input-offset vectors, channel-major, then ``ky``, then
    ``kx``; per position, the group id and the flat input offset of the
    window origin (negative where the window starts in the padding).
    The receptive field of output position ``p`` is
    ``base[p] + input_offsets[group[p]]``.
    """

    def __init__(self, conv: Conv2d, in_shape: Tuple[int, int, int]):
        channels, height, width = in_shape
        k = conv.kernel_size
        taps = np.arange(k)

        def axis(in_len: int):
            out_len = conv_output_size(in_len, k, conv.stride, conv.padding)
            origin = np.arange(out_len) * conv.stride - conv.padding
            coords = origin[:, None] + taps
            valid = (coords >= 0) & (coords < in_len)
            patterns, ids = np.unique(valid, axis=0, return_inverse=True)
            return origin, patterns, ids.ravel()

        y_origin, y_patterns, y_ids = axis(height)
        x_origin, x_patterns, x_ids = axis(width)
        self.in_shape = in_shape
        self.base = (y_origin[:, None] * width + x_origin).ravel()
        self.group = (y_ids[:, None] * len(x_patterns) + x_ids).ravel()
        channel = np.arange(channels)[:, None]
        self.weight_offsets: List[np.ndarray] = []
        self.input_offsets: List[np.ndarray] = []
        for y_valid in y_patterns:
            for x_valid in x_patterns:
                ky, kx = np.meshgrid(taps[y_valid], taps[x_valid], indexing="ij")
                ky, kx = ky.ravel(), kx.ravel()
                self.weight_offsets.append(
                    (channel * (k * k) + ky * k + kx).ravel()
                )
                self.input_offsets.append(
                    (channel * (height * width) + ky * width + kx).ravel()
                )
