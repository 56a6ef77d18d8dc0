"""The three grid stencils the science needs, in NumPy alone.

Gaussian smoothing (the ESM's correlated weather noise, the CNN's
training backgrounds) and square minimum/maximum filters (TC candidate
detection) were the program's only use of ``scipy.ndimage``, whose
import cost a cold service job a quarter of a second and ~15 MiB.
These reproduce ``scipy.ndimage`` bit for bit for what the program
calls, with a ``"nearest"`` or ``"wrap"`` boundary per axis:

* :func:`gaussian_filter` builds each axis's kernel the way SciPy's
  ``_gaussian_kernel1d`` does (radius ``int(4 * sigma + 0.5)``) and
  accumulates in the order of SciPy's symmetric ``correlate1d`` loop:
  the centre tap first, then ``(left + right) * w`` from the outermost
  pair inward.  Float64 in, float64 out.
* :func:`minimum_filter` / :func:`maximum_filter` are separable (axis 0,
  then axis 1, ...) and update in place; min and max are exact.  The
  window ``size`` is one per axis or one for all; an axis of size 1 is
  left alone, so a ``(steps, lat, lon)`` stack filtered with
  ``(1, 3, 3)`` is every step filtered on its own.

Inputs must be finite: NaN ordering and the sign of zero are where
NumPy and SciPy's C loops may disagree.  ``tests/test_stencil.py`` holds
the SciPy oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

__all__ = ["gaussian_filter", "maximum_filter", "minimum_filter"]

Modes = Union[str, Sequence[str]]


def _per_axis(value, ndim: int) -> list:
    if isinstance(value, str) or np.ndim(value) == 0:
        return [value] * ndim
    if len(value) != ndim:
        raise ValueError(f"expected {ndim} per-axis values, got {len(value)}")
    return list(value)


def _along(arr: np.ndarray, axis: int) -> np.ndarray:
    """``arr`` as a ``(before, n, after)`` view, so slices stay row-contiguous."""
    return arr.reshape(math.prod(arr.shape[:axis]), arr.shape[axis], -1)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # cached and shared by every caller
    return arr


@lru_cache(maxsize=64)
def _kernel(sigma: float) -> np.ndarray:
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return _frozen(w / w.sum())


@lru_cache(maxsize=64)
def _padded_index(n: int, radius: int, mode: str) -> np.ndarray:
    """Source cell of every cell of an axis padded by *radius* both sides."""
    idx = np.arange(-radius, n + radius)
    if mode == "nearest":
        return _frozen(np.clip(idx, 0, n - 1))
    if mode == "wrap":
        return _frozen(idx % n)
    raise ValueError(f"unsupported boundary mode {mode!r}")


def gaussian_filter(input, sigma, mode: Modes = "nearest") -> np.ndarray:
    """``scipy.ndimage.gaussian_filter`` (order 0, truncate 4), bitwise."""
    out = np.array(input, dtype=np.float64)
    for axis, (s, m) in enumerate(zip(_per_axis(sigma, out.ndim),
                                      _per_axis(mode, out.ndim))):
        if s <= 0:
            continue
        w = _kernel(float(s))
        r, n = len(w) // 2, out.shape[axis]
        view = _along(out, axis)
        padded = view[:, _padded_index(n, r, m)]
        np.multiply(padded[:, r:r + n], w[r], out=view)
        tmp = np.empty_like(view)
        for k in range(r, 0, -1):
            np.add(padded[:, r - k:r - k + n], padded[:, r + k:r + k + n], out=tmp)
            tmp *= w[r - k]
            view += tmp
    return out


def _extremum_filter(input, size, mode: Modes, op) -> np.ndarray:
    src = np.asarray(input)
    out = src.copy()
    first = True
    for axis, (w, m) in enumerate(zip(_per_axis(size, out.ndim),
                                      _per_axis(mode, out.ndim))):
        if m not in ("nearest", "wrap"):
            raise ValueError(f"unsupported boundary mode {m!r}")
        # SciPy's window for cell i spans i - w // 2 ... i + (w - 1) // 2.
        offsets = [d for d in range(-(w // 2), (w + 1) // 2) if d]
        if not offsets:
            continue
        s = _along(src if first else out.copy(), axis)
        v = _along(out, axis)
        first = False
        n = v.shape[1]
        for d in offsets:
            if m == "wrap":
                d %= n
                op(v[:, :n - d], s[:, d:], out=v[:, :n - d])
                op(v[:, n - d:], s[:, :d], out=v[:, n - d:])
            # "nearest": a clamped window holds no value the cut one lacks.
            elif 0 < d < n:
                op(v[:, :n - d], s[:, d:], out=v[:, :n - d])
            elif -n < d < 0:
                op(v[:, -d:], s[:, :n + d], out=v[:, -d:])
    return out


def minimum_filter(input, size, mode: Modes = "nearest") -> np.ndarray:
    """``scipy.ndimage.minimum_filter`` over a box ``size`` wide per axis."""
    return _extremum_filter(input, size, mode, np.minimum)


def maximum_filter(input, size, mode: Modes = "nearest") -> np.ndarray:
    """``scipy.ndimage.maximum_filter`` over a box ``size`` wide per axis."""
    return _extremum_filter(input, size, mode, np.maximum)
