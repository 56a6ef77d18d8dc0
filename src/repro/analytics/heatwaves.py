"""Heat-wave / cold-wave indices.

Definitions follow the paper's §5.3 (after the ETCCDI indices): a heat
wave is ≥ 6 consecutive days with daily-max temperature at least 5 °C
above the historical baseline for that calendar day; a cold wave is the
mirror image on daily-min temperature.  Three per-gridpoint annual maps
are produced:

* **duration max** — length of the year's longest wave (days);
* **number** — count of distinct waves;
* **frequency** — fraction of the year spent inside waves.

Two implementations are provided: a vectorised NumPy reference
(:func:`compute_wave_indices`) and :func:`ophidia_wave_pipeline`, which
expresses the same computation as the Ophidia operator chain of the
paper's Listing 1 (intercube → predicate → runlength → reduce).  Tests
assert they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.ophidia.datacube import Cube
from repro.ophidia.kernels import run_lengths

#: ETCCDI-style parameters.
DEFAULT_THRESHOLD_K = 5.0
DEFAULT_MIN_LENGTH_DAYS = 6


@dataclass(frozen=True)
class WaveIndices:
    """The three annual index maps for one year of data."""

    duration_max: np.ndarray   # (lat, lon) int32, days
    number: np.ndarray         # (lat, lon) int32, waves/year
    frequency: np.ndarray      # (lat, lon) float64, wave-days / total days


def wave_exceedance_mask(
    daily: np.ndarray,
    baseline: np.ndarray,
    threshold_k: float = DEFAULT_THRESHOLD_K,
    kind: str = "heat",
) -> np.ndarray:
    """Boolean (time, lat, lon) mask of days beyond the baseline.

    ``kind='heat'``: ``daily >= baseline + threshold``;
    ``kind='cold'``: ``daily <= baseline - threshold``.
    """
    daily = np.asarray(daily)
    baseline = np.asarray(baseline)
    if daily.shape != baseline.shape:
        raise ValueError(
            f"daily {daily.shape} and baseline {baseline.shape} must match"
        )
    if threshold_k < 0:
        raise ValueError("threshold must be non-negative")
    if kind == "heat":
        return daily >= baseline + threshold_k
    if kind == "cold":
        return daily <= baseline - threshold_k
    raise ValueError(f"kind must be 'heat' or 'cold', got {kind!r}")


def wave_durations(mask: np.ndarray, time_axis: int = 0) -> np.ndarray:
    """Completed-run lengths along the time axis (see Ophidia runlength)."""
    return run_lengths(np.asarray(mask, dtype=bool), time_axis)


def compute_wave_indices(
    daily: np.ndarray,
    baseline: np.ndarray,
    threshold_k: float = DEFAULT_THRESHOLD_K,
    min_length_days: int = DEFAULT_MIN_LENGTH_DAYS,
    kind: str = "heat",
) -> WaveIndices:
    """NumPy reference implementation of the three indices.

    *daily* and *baseline* are (time, lat, lon); time is the full year.
    """
    if min_length_days < 1:
        raise ValueError("min_length_days must be >= 1")
    mask = wave_exceedance_mask(daily, baseline, threshold_k, kind)
    durations = wave_durations(mask)
    qualifying = np.where(durations >= min_length_days, durations, 0)
    duration_max = qualifying.max(axis=0).astype(np.int32)
    number = (qualifying > 0).sum(axis=0).astype(np.int32)
    n_days = daily.shape[0]
    frequency = qualifying.sum(axis=0) / float(n_days)
    return WaveIndices(duration_max, number, frequency)


def compute_heatwave_indices(
    tmax_daily: np.ndarray, tmax_baseline: np.ndarray, **kwargs
) -> WaveIndices:
    """Heat-wave indices from daily-max temperature."""
    return compute_wave_indices(tmax_daily, tmax_baseline, kind="heat", **kwargs)


def compute_percentile_wave_indices(
    daily: np.ndarray,
    percentile_baseline_field: np.ndarray,
    min_length_days: int = DEFAULT_MIN_LENGTH_DAYS,
    kind: str = "heat",
) -> WaveIndices:
    """Percentile-threshold wave indices (the ETCCDI TX90p/TN10p family).

    Instead of the fixed ``baseline ± 5 K`` rule, a day qualifies when it
    exceeds (heat) or undercuts (cold) the per-calendar-day percentile
    field from :func:`~repro.analytics.climatology.percentile_baseline`.
    Runs of ≥ *min_length_days* qualifying days form waves, as before.
    """
    return compute_wave_indices(
        daily, percentile_baseline_field, threshold_k=0.0,
        min_length_days=min_length_days, kind=kind,
    )


def ophidia_wave_pipeline(
    data_cube: Cube,
    baseline_cube: Cube,
    kind: str = "heat",
    threshold_k: float = DEFAULT_THRESHOLD_K,
    min_length_days: int = DEFAULT_MIN_LENGTH_DAYS,
    export_path: Optional[str] = None,
    name_prefix: str = "hw",
) -> Tuple[Cube, Cube, Cube]:
    """The paper's Listing-1 pipeline on Ophidia cubes.

    Steps (all fragment-parallel, intermediate cubes retained in the I/O
    servers):

    1. ``intercube(sub)`` — daily anomaly vs the baseline cube;
    2. ``oph_predicate`` — exceedance mask (±threshold);
    3. ``runlength`` — wave-duration cube;
    4. ``oph_predicate`` — zero out runs shorter than *min_length_days*;
    5. three reductions — max (duration), count (number), sum/365
       (frequency).

    Returns ``(duration_max, number, frequency)`` cubes; with
    *export_path* each is also written as ``<prefix>_<index>.rnc``.
    """
    if kind not in ("heat", "cold"):
        raise ValueError(f"kind must be 'heat' or 'cold', got {kind!r}")
    n_days = data_cube.dims[data_cube._axis("time")].size

    anomaly = data_cube.intercube(
        baseline_cube, "sub", description=f"{name_prefix} anomaly cube"
    )
    condition = f">={threshold_k}" if kind == "heat" else f"<=-{threshold_k}"
    mask = anomaly.apply(
        "oph_predicate('OPH_FLOAT','OPH_INT',measure,'x',"
        f"'{condition}','1','0')",
        description=f"{name_prefix} exceedance mask",
    )
    duration = mask.runlength(
        dim="time", description=f"{name_prefix} duration cube"
    )
    qualifying = duration.apply(
        "oph_predicate('OPH_INT','OPH_INT',measure,'x',"
        f"'>={min_length_days}','x','0')",
        description=f"{name_prefix} qualifying durations",
    )

    # Max length of heat/cold waves in a year (paper: IndexDurationMax).
    duration_max = qualifying.reduce(
        operation="max", dim="time", description="Max Duration cube"
    )
    # Number of heat/cold waves in a year (paper: IndexDurationNumber).
    wave_flags = qualifying.apply(
        "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')"
    )
    number = wave_flags.reduce(
        operation="sum", dim="time", description="Number of durations cube"
    )
    # Fraction of the year inside qualifying waves.
    wave_days = qualifying.reduce(operation="sum", dim="time")
    frequency = wave_days.apply(
        f"oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',"
        f"oph_cast('OPH_INT','OPH_DOUBLE',measure),{1.0 / n_days})",
        description="Frequency cube",
    )

    # Intermediates are no longer needed; free I/O-server memory the way
    # Listing 1 deletes its mask cube.  On the lazy path `frequency`
    # still references `wave_days`, so force it before freeing its base.
    frequency.materialize()
    for cube in (anomaly, mask, duration, qualifying, wave_flags, wave_days):
        cube.delete()

    if export_path is not None:
        duration_max.exportnc2(export_path, f"{name_prefix}_duration_max")
        number.exportnc2(export_path, f"{name_prefix}_number")
        frequency.exportnc2(export_path, f"{name_prefix}_frequency")
    return duration_max, number, frequency
