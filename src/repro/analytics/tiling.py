"""Patch tiling, feature scaling and geo-referencing for the ML pipeline.

§5.4's pre/post-processing around CNN inference: multichannel fields are
tiled into non-overlapping square patches, each channel is scaled, the
network predicts per-patch TC presence and an in-patch centre offset,
and predicted offsets are geo-referenced back to global coordinates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


def tile_patches(fields: np.ndarray, patch: int) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Split ``(channels, lat, lon)`` into non-overlapping patches.

    Returns ``(patches, origins)`` where *patches* is
    ``(n, channels, patch, patch)`` and each origin is the (row, col) of
    the patch's upper-left cell.  Both spatial sizes must be divisible
    by *patch* (regrid first — that is exactly why the pipeline regrids).
    """
    fields = np.asarray(fields)
    if fields.ndim != 3:
        raise ValueError(f"expected (channels, lat, lon), got shape {fields.shape}")
    _, n_lat, n_lon = fields.shape
    if patch < 1 or n_lat % patch or n_lon % patch:
        raise ValueError(
            f"patch size {patch} must divide the grid {n_lat}x{n_lon}"
        )
    patches = []
    origins: List[Tuple[int, int]] = []
    for i0 in range(0, n_lat, patch):
        for j0 in range(0, n_lon, patch):
            patches.append(fields[:, i0:i0 + patch, j0:j0 + patch])
            origins.append((i0, j0))
    return np.stack(patches), origins


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


def patch_center_latlon(
    origin: Tuple[int, int],
    offset_rc: Tuple[float, float],
    lat: np.ndarray,
    lon: np.ndarray,
) -> Tuple[float, float]:
    """Geo-reference an in-patch (row, col) offset to global lat/lon.

    *offset_rc* is the predicted centre in fractional patch-local cell
    units; interpolation between cell centres handles the fraction, with
    periodic longitude.
    """
    lat = np.asarray(lat)
    lon = np.asarray(lon)
    row = origin[0] + float(offset_rc[0])
    col = origin[1] + float(offset_rc[1])

    r0 = int(np.clip(np.floor(row), 0, lat.size - 1))
    r1 = min(r0 + 1, lat.size - 1)
    fr = np.clip(row - r0, 0.0, 1.0)
    out_lat = float(lat[r0] * (1 - fr) + lat[r1] * fr)

    c0 = int(np.floor(col)) % lon.size
    c1 = (c0 + 1) % lon.size
    fc = np.clip(col - np.floor(col), 0.0, 1.0)
    lon0 = lon[c0]
    lon1 = lon[c1] if lon[c1] >= lon[c0] else lon[c1] + 360.0
    out_lon = float((lon0 * (1 - fc) + lon1 * fc) % 360.0)
    return out_lat, out_lon
