"""Percentile baseline climatologies.

The paper's workflow loads "baseline values with the long-term
historical averages (e.g., computed over a 20-year period)".  This
module computes the ETCCDI percentile form of such a baseline
empirically from stacks of simulated years.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile_baseline(
    yearly_fields: Sequence[np.ndarray],
    q: float = 90.0,
    window_days: int = 5,
) -> np.ndarray:
    """ETCCDI percentile baseline (TX90p / TN10p family).

    For each calendar day, pool the values of a centred circular
    *window_days* window across all years and take the *q*-th
    percentile — the exact construction of the ETCCDI percentile
    indices the paper's heat-wave definitions reference.

    Returns an array shaped like one year: ``(n_days, lat, lon)``.
    """
    if not yearly_fields:
        raise ValueError("need at least one year of data")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if window_days < 1 or window_days % 2 == 0:
        raise ValueError("window_days must be a positive odd number")
    stack = np.stack([np.asarray(y) for y in yearly_fields])  # (Y, D, ...)
    n_days = stack.shape[1]
    if window_days > n_days:
        raise ValueError(
            f"window {window_days} longer than the year ({n_days} days)"
        )
    half = window_days // 2
    offsets = np.arange(-half, half + 1)
    out = np.empty(stack.shape[1:], dtype=np.float64)
    for day in range(n_days):
        window = (day + offsets) % n_days  # circular calendar
        pooled = stack[:, window]          # (Y, window, ...)
        out[day] = np.percentile(
            pooled.reshape(-1, *stack.shape[2:]), q, axis=0
        )
    return out
