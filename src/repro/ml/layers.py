"""Neural-network layers with analytic forward/backward passes.

Every layer follows the same contract: ``forward(x, train=True)``
caches what the backward pass needs; ``backward(grad_out)`` returns
``grad_in`` and fills ``.grads`` (aligned with ``.params``).
``forward(x)`` (``train=False``) is inference: it writes nothing to the
layer, so one model can serve several threads, and it skips the work
only a backward pass needs.  Its outputs equal the training forward's
bit for bit; only a one-filter conv, which NumPy multiplies with a
vector kernel chosen by the columns' strides, agrees to rounding.  All
math is float64 NumPy — the im2col convolution turns the conv into one
stacked matmul, which is where BLAS (and the GIL release the COMPSs
workers rely on) does the heavy lifting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _cached(cache, layer: "Layer"):
    """*cache* as stored by a training forward, or a clear error."""
    if cache is None:
        raise RuntimeError(
            f"{type(layer).__name__}.backward needs a forward(x, train=True) first"
        )
    return cache


class Layer:
    """Base class: subclasses define ``forward(x, train=False)`` and
    ``backward(grad_out)``; stateless layers keep ``params = []``."""

    def __init__(self) -> None:
        self.params: List[np.ndarray] = []
        self.grads: List[np.ndarray] = []


def _im2col_indices(
    c: int, h: int, w: int, kh: int, kw: int, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Index arrays turning (N,C,H,W) into (N, C*kh*kw, out_h*out_w)."""
    out_h = h + 2 * pad - kh + 1
    out_w = w + 2 * pad - kw + 1
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = np.tile(np.arange(out_w), out_h)
    i = i0[:, None] + i1[None, :]
    j = j0[:, None] + j1[None, :]
    k = np.repeat(np.arange(c), kh * kw)[:, None]
    return k, i, j, out_h, out_w


class Conv2D(Layer):
    """2-d convolution, stride 1, symmetric zero padding.

    Weights are He-initialised; shapes: input ``(N, C, H, W)``, kernel
    ``(F, C, kh, kw)``, output ``(N, F, H', W')`` with
    ``H' = H + 2 pad - kh + 1``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        pad: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError("kernel must be a positive odd size")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = kernel // 2 if pad is None else pad
        fan_in = in_channels * kernel * kernel
        self.weight = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                 size=(out_channels, in_channels, kernel, kernel))
        self.bias = np.zeros(out_channels)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        x_pad = np.pad(x, ((0, 0), (0, 0), (self.pad,) * 2, (self.pad,) * 2))
        w_col = self.weight.reshape(self.out_channels, -1)
        if not train:
            # One strided window view, copied once into the columns the
            # index gather below builds, (N, C*k*k, L) but contiguous:
            # the same per-sample products without the gather's strides.
            win = sliding_window_view(x_pad, (self.kernel,) * 2, axis=(2, 3))
            out_h, out_w = win.shape[2:4]
            cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * self.kernel ** 2, -1)
            out = w_col @ cols + self.bias[None, :, None]
            return out.reshape(n, self.out_channels, out_h, out_w)
        k, i, j, out_h, out_w = _im2col_indices(c, h, w, self.kernel, self.kernel, self.pad)
        cols = x_pad[:, k, i, j]                       # (N, C*k*k, L)
        out = w_col @ cols + self.bias[None, :, None]  # (N, F, L)
        self._cache = (x.shape, x_pad.shape, cols, (k, i, j))
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, pad_shape, cols, (k, i, j) = _cached(self._cache, self)
        n = grad_out.shape[0]
        g = grad_out.reshape(n, self.out_channels, -1)   # (N, F, L)

        self.grads[1][...] = g.sum(axis=(0, 2))
        w_grad = np.einsum("nfl,ncl->fc", g, cols)
        self.grads[0][...] = w_grad.reshape(self.weight.shape)

        w_col = self.weight.reshape(self.out_channels, -1)
        grad_cols = np.einsum("fc,nfl->ncl", w_col, g)   # (N, C*k*k, L)
        grad_pad = np.zeros((n,) + pad_shape[1:])
        np.add.at(grad_pad, (slice(None), k, i, j), grad_cols)
        if self.pad:
            return grad_pad[:, :, self.pad:-self.pad, self.pad:-self.pad]
        return grad_pad


class MaxPool2D(Layer):
    """Non-overlapping max pooling; spatial sizes must divide by *pool*."""

    def __init__(self, pool: int = 2) -> None:
        super().__init__()
        if pool < 1:
            raise ValueError("pool must be >= 1")
        self.pool = pool
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.pool
        if h % p or w % p:
            raise ValueError(f"spatial size {h}x{w} not divisible by pool {p}")
        if not train:
            # Fold the p*p strided slices in argmax's scan order; on a tie
            # np.maximum returns its second operand, so the earlier value
            # is kept, as argmax does (this decides -0.0 against 0.0).
            view = x.reshape(n, c, h // p, p, w // p, p)
            out = view[:, :, :, 0, :, 0].copy()
            for di in range(p):
                for dj in range(p):
                    if di or dj:
                        np.maximum(view[:, :, :, di, :, dj], out, out=out)
            return out
        # (n, c, H', W', p*p): one row per pooling block.
        blocks = x.reshape(n, c, h // p, p, w // p, p).transpose(0, 1, 2, 4, 3, 5)
        flat = blocks.reshape(n, c, h // p, w // p, p * p)
        idx = np.argmax(flat, axis=-1)   # first maximum wins ties
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, idx = _cached(self._cache, self)
        n, c, h, w = x_shape
        p = self.pool
        flat_grad = np.zeros((n, c, h // p, w // p, p * p))
        np.put_along_axis(flat_grad, idx[..., None], grad_out[..., None], axis=-1)
        blocks = flat_grad.reshape(n, c, h // p, w // p, p, p)
        return blocks.transpose(0, 1, 2, 4, 3, 5).reshape(x_shape)


class Dense(Layer):
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(
        self, in_features: int, out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weight = rng.normal(0.0, np.sqrt(2.0 / in_features),
                                 size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._x = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"expected (N, {self.weight.shape[0]}), got {x.shape}"
            )
        if train:
            self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.grads[0][...] = _cached(self._x, self).T @ grad_out
        self.grads[1][...] = grad_out.sum(axis=0)
        return grad_out @ self.weight.T


class Flatten(Layer):
    """(N, ...) → (N, prod(...))."""

    def __init__(self) -> None:
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(_cached(self._shape, self))


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * _cached(self._mask, self)
