"""Pooling layers with positional importance propagation.

Max pooling caches the argmax of every window so that backward
importance propagation can map an important pooled position to the
exact input element that produced it.  Average pooling maps an output
position to its whole window (every element contributed).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_size, im2col
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class _Pool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._in_shape: Tuple[int, ...] | None = None
        self._out_hw: Tuple[int, int] | None = None

    def _window_cols(self, x: np.ndarray) -> np.ndarray:
        """Per-channel windows: shape (N*C, k*k, out_h*out_w)."""
        batch, channels, height, width = x.shape
        flat = x.reshape(batch * channels, 1, height, width)
        return im2col(flat, self.kernel_size, self.kernel_size, self.stride, 0)

    def _setup_shapes(self, x: np.ndarray) -> Tuple[int, int]:
        _, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, 0)
        out_w = conv_output_size(width, self.kernel_size, self.stride, 0)
        self._in_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out_h, out_w

    def _windows(self, positions: np.ndarray) -> np.ndarray:
        """Flat input positions of each pooled position's window, one
        row of ``k*k`` per position."""
        _, _, height, width = self._in_shape
        c, oy, ox = self._decompose(positions)
        ky, kx = np.divmod(np.arange(self.kernel_size**2), self.kernel_size)
        origin = c * height * width + oy * self.stride * width + ox * self.stride
        return origin[:, None] + ky * width + kx

    def _input_size(self) -> int:
        _, channels, height, width = self._in_shape
        return channels * height * width

    def _decompose(self, positions: np.ndarray):
        out_h, out_w = self._out_hw
        c, rem = np.divmod(positions, out_h * out_w)
        oy, ox = np.divmod(rem, out_w)
        return c, oy, ox


class MaxPool2d(_Pool2d):
    """Max pooling; caches per-window argmax so path extraction can
    propagate importance through the selected element only."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, _, _ = x.shape
        out_h, out_w = self._setup_shapes(x)
        cols = self._window_cols(x)
        argmax = cols.argmax(axis=1)
        out = np.take_along_axis(cols, argmax[:, None, :], axis=1)[:, 0, :]
        self._cache = {"argmax": argmax, "x_shape": x.shape, "cols_shape": cols.shape}
        return out.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        from repro.nn.functional import col2im

        argmax = self._cache["argmax"]
        batch, channels, height, width = self._cache["x_shape"]
        grad_cols = np.zeros(self._cache["cols_shape"])
        flat_grad = grad_out.reshape(batch * channels, -1)
        np.put_along_axis(grad_cols, argmax[:, None, :], flat_grad[:, None, :], axis=1)
        grad = col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.kernel_size,
            self.stride,
            0,
        )
        return grad.reshape(batch, channels, height, width)

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        """Map pooled positions to the argmax element of each window."""
        if positions.size == 0:
            return positions
        return self._argmax_inputs(positions, sample)

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        """:meth:`propagate_back` of every row of an ``(N, out)``
        importance matrix at once."""
        rows, positions = np.nonzero(flags)
        out = np.zeros((flags.shape[0], self._input_size()), dtype=bool)
        out[rows, self._argmax_inputs(positions, rows)] = True
        return out

    def _argmax_inputs(self, positions: np.ndarray, samples) -> np.ndarray:
        """Flat input position of the argmax of each pooled position's
        window in sample ``samples`` (a scalar or one per position)."""
        argmax = self._cache["argmax"]
        _, channels, height, width = self._cache["x_shape"]
        out_w = self._out_hw[1]
        c, oy, ox = self._decompose(positions)
        window_idx = argmax[samples * channels + c, oy * out_w + ox]
        ky, kx = np.divmod(window_idx, self.kernel_size)
        iy = oy * self.stride + ky
        ix = ox * self.stride + kx
        return c * height * width + iy * width + ix


class AvgPool2d(_Pool2d):
    """Average pooling; importance propagates to the whole window."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, _, _ = x.shape
        out_h, out_w = self._setup_shapes(x)
        cols = self._window_cols(x)
        out = cols.mean(axis=1)
        self._cache = {"x_shape": x.shape, "cols_shape": cols.shape}
        return out.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        from repro.nn.functional import col2im

        batch, channels, height, width = self._cache["x_shape"]
        window = self.kernel_size * self.kernel_size
        flat_grad = grad_out.reshape(batch * channels, 1, -1) / window
        grad_cols = np.broadcast_to(
            flat_grad, self._cache["cols_shape"]
        ).copy()
        grad = col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.kernel_size,
            self.stride,
            0,
        )
        return grad.reshape(batch, channels, height, width)

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        """Every element of the window contributed; expand to all of them."""
        if positions.size == 0:
            return positions
        return np.unique(self._windows(positions))

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        """:meth:`propagate_back` of every row of an ``(N, out)``
        importance matrix at once."""
        rows, positions = np.nonzero(flags)
        out = np.zeros((flags.shape[0], self._input_size()), dtype=bool)
        out[rows[:, None], self._windows(positions)] = True
        return out


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"x_shape": x.shape}
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._cache["x_shape"]
        scale = 1.0 / (height * width)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, (batch, channels, height, width)
        ).copy()

    def propagate_back(self, positions: np.ndarray, sample: int = 0) -> np.ndarray:
        if positions.size == 0:
            return positions
        _, _, height, width = self._cache["x_shape"]
        spatial = height * width
        offsets = np.arange(spatial)
        return np.unique(
            (positions[:, None] * spatial + offsets[None, :]).ravel()
        )

    def propagate_back_batch(self, flags: np.ndarray) -> np.ndarray:
        """:meth:`propagate_back` of every row of an ``(N, C)``
        importance matrix at once."""
        _, _, height, width = self._cache["x_shape"]
        return np.repeat(flags, height * width, axis=1)
