"""Patch tiling, feature scaling and geo-referencing for the ML pipeline.

§5.4's pre/post-processing around CNN inference: multichannel fields are
tiled into non-overlapping square patches, each channel is scaled, the
network predicts per-patch TC presence and an in-patch centre offset,
and predicted offsets are geo-referenced back to global coordinates.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np


def tile_patches(fields: np.ndarray, patch: int) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Split ``(channels, lat, lon)`` into non-overlapping patches.

    Returns ``(patches, origins)`` where *patches* is
    ``(n, channels, patch, patch)`` and ``origins[k]`` is the (row, col)
    of patch *k*'s upper-left cell.  A ``(steps, channels, lat, lon)``
    stack tiles every step the same way, step-major, so patch *k*
    belongs to step ``k // (len(origins) // steps)``.  Both spatial
    sizes must be divisible by *patch* (regrid first — that is exactly
    why the pipeline regrids).
    """
    fields = np.asarray(fields)
    if fields.ndim not in (3, 4):
        raise ValueError(
            f"expected ([steps,] channels, lat, lon), got shape {fields.shape}"
        )
    *lead, n_ch, n_lat, n_lon = fields.shape
    if patch < 1 or n_lat % patch or n_lon % patch:
        raise ValueError(
            f"patch size {patch} must divide the grid {n_lat}x{n_lon}"
        )
    rows, cols = n_lat // patch, n_lon // patch
    blocks = fields.reshape(*lead, n_ch, rows, patch, cols, patch)
    # (..., rows, cols, channels, patch, patch): one patch per (row, col).
    blocks = np.moveaxis(blocks, (-5, -3), (-3, -2))
    patches = blocks.reshape(-1, n_ch, patch, patch)
    origins = [(i * patch, j * patch) for i in range(rows) for j in range(cols)]
    return patches, origins * math.prod(lead)


def scale_features(
    patches: np.ndarray,
    stats: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Per-channel standardisation: ``(x - mean) / std``.

    With *stats* given (from training), applies them; otherwise computes
    them over the batch and returns them for reuse at inference, the
    usual train/infer asymmetry.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 4:
        raise ValueError("expected (n, channels, h, w)")
    if stats is None:
        mean = patches.mean(axis=(0, 2, 3))
        std = patches.std(axis=(0, 2, 3))
        std = np.where(std > 1e-9, std, 1.0)
        stats = {"mean": mean, "std": std}
    mean = np.asarray(stats["mean"])
    std = np.asarray(stats["std"])
    scaled = (patches - mean[None, :, None, None]) / std[None, :, None, None]
    return scaled, stats


def patch_center_latlon(origin, offset_rc, lat: np.ndarray, lon: np.ndarray):
    """Geo-reference an in-patch (row, col) offset to global lat/lon.

    *offset_rc* is the predicted centre in fractional patch-local cell
    units; interpolation between cell centres handles the fraction, with
    periodic longitude.  One ``(row, col)`` *origin* and *offset_rc*
    give a ``(lat, lon)`` pair of floats; ``(n, 2)`` arrays of them give
    a pair of ``(n,)`` arrays, one entry per detection.
    """
    lat = np.asarray(lat)
    lon = np.asarray(lon)
    origin = np.asarray(origin)
    offset_rc = np.asarray(offset_rc, dtype=np.float64)
    row = origin[..., 0] + offset_rc[..., 0]
    col = origin[..., 1] + offset_rc[..., 1]

    r0 = np.clip(np.floor(row), 0, lat.size - 1).astype(int)
    r1 = np.minimum(r0 + 1, lat.size - 1)
    fr = np.clip(row - r0, 0.0, 1.0)
    out_lat = lat[r0] * (1 - fr) + lat[r1] * fr

    c0 = np.floor(col).astype(int) % lon.size
    c1 = (c0 + 1) % lon.size
    fc = np.clip(col - np.floor(col), 0.0, 1.0)
    lon0 = lon[c0]
    lon1 = np.where(lon[c1] >= lon0, lon[c1], lon[c1] + 360.0)
    out_lon = (lon0 * (1 - fc) + lon1 * fc) % 360.0
    if row.ndim == 0:
        return float(out_lat), float(out_lon)
    return out_lat, out_lon
