"""Bilinear regridding between regular lat-lon grids.

The TC pipeline's first post-processing step (§5.4: "regridding the
CMCC-CM3 file") — the CNN expects a fixed input resolution regardless of
the model grid.  Longitude is treated as periodic; latitudes outside the
source range clamp to the nearest edge.

The indices and weights depend only on the two grids, so they are built
once per (source, destination) pair and cached.  Interpolation is
separable: every source row is interpolated in longitude, then each
destination row blends its two bracketing rows in latitude, which is
the four-corner formula term for term.  A year's stack goes through a
few fields at a time into one preallocated output, so the temporaries
stay small.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

#: Leading-axis fields interpolated per block: one day of the TC
#: pipeline's four channels at four six-hourly steps.
BLOCK_FIELDS = 16


class _Plan(NamedTuple):
    li: np.ndarray      # (dst_lat,) lower bracketing source row
    wlat: np.ndarray    # (dst_lat, 1)
    gi: np.ndarray      # (dst_lon,) western bracketing source column
    gi1: np.ndarray     # (dst_lon,) eastern one, periodic
    wlon: np.ndarray    # (dst_lon,)


@lru_cache(maxsize=16)
def _plan(src_lat: bytes, src_lon: bytes, dst_lat: bytes, dst_lon: bytes) -> _Plan:
    """Indices and weights of one (source, destination) grid pair."""
    src_lat, src_lon, dst_lat, dst_lon = (
        np.frombuffer(b) for b in (src_lat, src_lon, dst_lat, dst_lon)
    )
    if np.any(np.diff(src_lat) <= 0):
        raise ValueError("source latitudes must be strictly increasing")

    # --- latitude: clamp outside the source range -----------------------
    li = np.searchsorted(src_lat, dst_lat) - 1
    li = np.clip(li, 0, src_lat.size - 2)
    lat0 = src_lat[li]
    lat1 = src_lat[li + 1]
    wlat = np.clip((dst_lat - lat0) / (lat1 - lat0), 0.0, 1.0)

    # --- longitude: periodic ------------------------------------------------
    dlon = 360.0 / src_lon.size
    pos = (dst_lon - src_lon[0]) % 360.0 / dlon
    gi = np.floor(pos).astype(int) % src_lon.size
    gi1 = (gi + 1) % src_lon.size
    wlon = pos - np.floor(pos)
    return _Plan(li, wlat[:, None], gi, gi1, wlon)


def regrid_bilinear(
    data: np.ndarray,
    src_lat: np.ndarray,
    src_lon: np.ndarray,
    dst_lat: np.ndarray,
    dst_lon: np.ndarray,
) -> np.ndarray:
    """Bilinearly interpolate *data* onto the destination grid.

    *data* may be ``(lat, lon)`` or ``(..., lat, lon)``; the trailing two
    axes are regridded.  Source coordinates must be strictly increasing
    (latitudes) / in [0, 360) (longitudes, assumed uniformly spaced).
    The result is float64.
    """
    data = np.asarray(data)
    src_lat, src_lon, dst_lat, dst_lon = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (src_lat, src_lon, dst_lat, dst_lon)
    )
    if data.shape[-2] != src_lat.size or data.shape[-1] != src_lon.size:
        raise ValueError(
            f"data trailing shape {data.shape[-2:]} does not match "
            f"({src_lat.size}, {src_lon.size})"
        )
    p = _plan(src_lat.tobytes(), src_lon.tobytes(),
              dst_lat.tobytes(), dst_lon.tobytes())

    fields = data.reshape(-1, src_lat.size, src_lon.size)
    out = np.empty((len(fields), dst_lat.size, dst_lon.size))
    for start in range(0, len(fields), BLOCK_FIELDS):
        block = np.asarray(fields[start:start + BLOCK_FIELDS], dtype=np.float64)
        rows = block[:, :, p.gi] * (1 - p.wlon) + block[:, :, p.gi1] * p.wlon
        out[start:start + BLOCK_FIELDS] = (
            rows[:, p.li] * (1 - p.wlat) + rows[:, p.li + 1] * p.wlat
        )
    return out.reshape(*data.shape[:-2], dst_lat.size, dst_lon.size)
