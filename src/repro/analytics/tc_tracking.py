"""Deterministic tropical-cyclone detection and tracking.

The classic tracking-scheme family the paper contrasts the CNN with:
per-timestep candidate detection from physical criteria, then greedy
nearest-neighbour stitching of candidates into tracks.

Detection criteria (all tunable):

* a local sea-level-pressure minimum below a closed-isobar threshold,
* 850 hPa relative vorticity beyond a cyclonic threshold (sign flips
  with hemisphere),
* nearby surface winds above gale strength,
* within the tropical/subtropical belt.

Skill against injected ground truth is scored by
:func:`track_skill` (probability of detection, false-alarm ratio, mean
centre error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class Detection:
    """One TC candidate at one timestep."""

    step: int               # global timestep index
    lat: float
    lon: float
    min_pressure: float     # hPa
    max_wind: float         # m/s
    vorticity: float        # s^-1 (signed)


@dataclass
class Track:
    """A stitched sequence of detections."""

    detections: List[Detection] = field(default_factory=list)

    @property
    def start_step(self) -> int:
        return self.detections[0].step

    @property
    def end_step(self) -> int:
        return self.detections[-1].step

    @property
    def length(self) -> int:
        return len(self.detections)

    @property
    def min_pressure(self) -> float:
        return min(d.min_pressure for d in self.detections)

    @property
    def max_wind(self) -> float:
        return max(d.max_wind for d in self.detections)

    def positions(self) -> List[Tuple[float, float]]:
        return [(d.lat, d.lon) for d in self.detections]


def _haversine_km(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dphi = p2 - p1
    dlmb = np.deg2rad(lon2 - lon1)
    a = np.sin(dphi / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2) ** 2
    return float(2 * 6371.0 * np.arcsin(np.sqrt(np.clip(a, 0, 1))))


def detect_tc_candidates(
    psl: np.ndarray,
    vort: np.ndarray,
    wind_speed: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    step: int = 0,
    pressure_threshold_hpa: float = 1000.0,
    vorticity_threshold: float = 1.5e-5,
    wind_threshold_ms: float = 13.0,
    max_abs_lat: float = 45.0,
    neighbourhood: int = 3,
) -> List[Detection]:
    """TC candidates in one (lat, lon) snapshot.

    A cell qualifies when it is the minimum of its pressure
    neighbourhood, below *pressure_threshold_hpa*, with hemisphere-signed
    vorticity and wind-speed support in the same neighbourhood.
    """
    psl = np.asarray(psl)
    if psl.ndim != 2:
        raise ValueError("expected 2-d fields")
    if psl.shape != vort.shape or psl.shape != wind_speed.shape:
        raise ValueError("field shapes must match")

    footprint = np.ones((neighbourhood, neighbourhood), dtype=bool)
    local_min = ndimage.minimum_filter(
        psl, footprint=footprint, mode=("nearest", "wrap")
    )
    vort_max = ndimage.maximum_filter(
        np.abs(vort), footprint=footprint, mode=("nearest", "wrap")
    )
    wind_max = ndimage.maximum_filter(
        wind_speed, footprint=footprint, mode=("nearest", "wrap")
    )

    lat2d = np.broadcast_to(np.asarray(lat)[:, None], psl.shape)
    cyclonic_sign = np.where(lat2d >= 0, 1.0, -1.0)
    # Cyclonic vorticity is positive in the NH, negative in the SH.
    signed_ok = (
        ndimage.maximum_filter(
            vort * cyclonic_sign, footprint=footprint, mode=("nearest", "wrap")
        )
        >= vorticity_threshold
    )

    candidate = (
        (psl == local_min)
        & (psl <= pressure_threshold_hpa)
        & signed_ok
        & (wind_max >= wind_threshold_ms)
        & (np.abs(lat2d) <= max_abs_lat)
    )

    detections = []
    for i, j in np.argwhere(candidate):
        detections.append(Detection(
            step=step,
            lat=float(lat[i]),
            lon=float(lon[j]),
            min_pressure=float(psl[i, j]),
            max_wind=float(wind_max[i, j]),
            vorticity=float(vort[i, j]),
        ))
    return _suppress_duplicates(detections)


def _suppress_duplicates(
    detections: List[Detection], min_separation_km: float = 600.0
) -> List[Detection]:
    """Keep only the deepest candidate within each separation radius."""
    kept: List[Detection] = []
    for det in sorted(detections, key=lambda d: d.min_pressure):
        if all(
            _haversine_km(det.lat, det.lon, k.lat, k.lon) >= min_separation_km
            for k in kept
        ):
            kept.append(det)
    return kept


def link_tracks(
    detections_per_step: Sequence[List[Detection]],
    max_travel_km_per_step: float = 400.0,
    min_track_length: int = 4,
    max_gap_steps: int = 1,
) -> List[Track]:
    """Stitch per-step detections into tracks (greedy nearest neighbour).

    A live track claims the nearest new detection within
    *max_travel_km_per_step* x (gap+1); tracks silent for more than
    *max_gap_steps* close.  Tracks shorter than *min_track_length* are
    discarded (kills spurious single-step detections).
    """
    live: List[Track] = []
    finished: List[Track] = []

    for step_dets in detections_per_step:
        remaining = list(step_dets)
        claimed: List[Track] = []
        # Nearest-neighbour assignment, closest pair first.
        pairs = []
        for track in live:
            last = track.detections[-1]
            for det in remaining:
                gap = det.step - last.step
                if gap < 1 or gap > max_gap_steps + 1:
                    continue
                dist = _haversine_km(last.lat, last.lon, det.lat, det.lon)
                if dist <= max_travel_km_per_step * gap:
                    pairs.append((dist, track, det))
        used_tracks, used_dets = set(), set()
        for dist, track, det in sorted(pairs, key=lambda p: p[0]):
            if id(track) in used_tracks or id(det) in used_dets:
                continue
            track.detections.append(det)
            used_tracks.add(id(track))
            used_dets.add(id(det))
            claimed.append(track)
        remaining = [d for d in remaining if id(d) not in used_dets]

        # Expire tracks that have been silent too long.
        if step_dets:
            current_step = step_dets[0].step
        else:
            current_step = None
        still_live = []
        for track in live:
            if track in claimed:
                still_live.append(track)
            elif (
                current_step is not None
                and current_step - track.end_step > max_gap_steps
            ):
                finished.append(track)
            else:
                still_live.append(track)
        live = still_live
        # New tracks from unclaimed detections.
        for det in remaining:
            live.append(Track([det]))

    finished.extend(live)
    return [t for t in finished if t.length >= min_track_length]


@dataclass(frozen=True)
class TrackSkill:
    """Detection skill vs ground truth."""

    hits: int
    misses: int
    false_alarms: int
    mean_center_error_km: float

    @property
    def pod(self) -> float:
        """Probability of detection."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def far(self) -> float:
        """False-alarm ratio."""
        total = self.hits + self.false_alarms
        return self.false_alarms / total if total else 0.0


def track_skill(
    tracks: Sequence[Track],
    truth_tracks: Sequence[Sequence[Tuple[float, float]]],
    truth_start_steps: Sequence[int],
    max_match_km: float = 500.0,
    min_overlap_steps: int = 2,
) -> TrackSkill:
    """Match detected tracks to ground-truth tracks.

    A detected track matches a truth track when at least
    *min_overlap_steps* time-aligned positions fall within
    *max_match_km*.  Matching is greedy one-to-one, best mean distance
    first.
    """
    candidates = []
    for ti, (truth, t0) in enumerate(zip(truth_tracks, truth_start_steps)):
        truth_by_step = {t0 + s: pos for s, pos in enumerate(truth)}
        for di, track in enumerate(tracks):
            dists = []
            for det in track.detections:
                pos = truth_by_step.get(det.step)
                if pos is None:
                    continue
                d = _haversine_km(det.lat, det.lon, pos[0], pos[1])
                if d <= max_match_km:
                    dists.append(d)
            if len(dists) >= min_overlap_steps:
                candidates.append((float(np.mean(dists)), ti, di))

    matched_truth, matched_det, errors = set(), set(), []
    for err, ti, di in sorted(candidates):
        if ti in matched_truth or di in matched_det:
            continue
        matched_truth.add(ti)
        matched_det.add(di)
        errors.append(err)

    hits = len(matched_truth)
    misses = len(truth_tracks) - hits
    false_alarms = len(tracks) - len(matched_det)
    mean_err = float(np.mean(errors)) if errors else float("nan")
    return TrackSkill(hits, misses, false_alarms, mean_err)
