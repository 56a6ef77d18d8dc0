"""Deterministic tropical-cyclone detection and tracking.

The classic tracking-scheme family the paper contrasts the CNN with:
candidate detection from physical criteria over a year's
``(steps, lat, lon)`` stack (three box filters and one ``nonzero`` for
all steps, neighbourhoods never crossing steps), then greedy
nearest-neighbour stitching of candidates into tracks.  Duplicate
suppression, stitching and skill scoring take their distances from one
vectorised haversine.

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

from repro.stencil import maximum_filter, minimum_filter


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


def _great_circle_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Haversine distance, elementwise over broadcast coordinate arrays.

    Pass ``lat1[:, None], lon1[:, None], lat2, lon2`` for the matrix of
    every pair.  Squares go through ``float_power`` (libm ``pow``, as a
    scalar ``x ** 2`` does) rather than ``x * x``, which can round the
    last bit differently, so distances match the per-pair formula bit
    for bit and no threshold or tie decision moves.
    """
    p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dphi = p2 - p1
    dlmb = np.deg2rad(np.subtract(lon2, lon1))
    a = (np.float_power(np.sin(dphi / 2), 2)
         + np.cos(p1) * np.cos(p2) * np.float_power(np.sin(dlmb / 2), 2))
    return 2 * 6371.0 * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


def _coords(detections: Sequence[Detection]) -> Tuple[np.ndarray, np.ndarray]:
    return (np.array([d.lat for d in detections]),
            np.array([d.lon for d in detections]))


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
) -> List:
    """TC candidates in a (lat, lon) snapshot or a (steps, lat, lon) stack.

    A cell qualifies when it is the minimum of its pressure
    neighbourhood, below *pressure_threshold_hpa*, with hemisphere-signed
    vorticity and wind-speed support in the same neighbourhood.  A
    snapshot gives its detections, stamped *step*; a stack gives one
    list per step, stamped ``step``, ``step + 1``, ...  Neighbourhoods
    never reach across steps, so a stack is exactly its snapshots.
    """
    psl, vort, wind_speed = (np.asarray(a) for a in (psl, vort, wind_speed))
    if psl.ndim not in (2, 3):
        raise ValueError("expected (lat, lon) or (steps, lat, lon) fields")
    if psl.shape != vort.shape or psl.shape != wind_speed.shape:
        raise ValueError("field shapes must match")
    single = psl.ndim == 2
    if single:
        psl, vort, wind_speed = psl[None], vort[None], wind_speed[None]

    box = (1, neighbourhood, neighbourhood)
    modes = ("nearest", "nearest", "wrap")
    local_min = minimum_filter(psl, box, mode=modes)
    wind_max = maximum_filter(wind_speed, box, mode=modes)

    lat = np.asarray(lat)
    # Cyclonic vorticity is positive in the NH, negative in the SH.
    cyclonic_sign = np.where(lat >= 0, 1.0, -1.0)[:, None]
    signed_ok = (
        maximum_filter(vort * cyclonic_sign, box, mode=modes)
        >= vorticity_threshold
    )
    candidate = (
        (psl == local_min)
        & (psl <= pressure_threshold_hpa)
        & signed_ok
        & (wind_max >= wind_threshold_ms)
        & (np.abs(lat) <= max_abs_lat)[:, None]
    )

    per_step: List[List[Detection]] = [[] for _ in range(psl.shape[0])]
    ks, i, j = np.nonzero(candidate)
    for k, *values in zip(
        ks.tolist(), lat[i].tolist(), np.asarray(lon)[j].tolist(),
        psl[ks, i, j].tolist(), wind_max[ks, i, j].tolist(),
        vort[ks, i, j].tolist(),
    ):
        per_step[k].append(Detection(step + k, *values))
    per_step = [_suppress_duplicates(dets) for dets in per_step]
    return per_step[0] if single else per_step


def _suppress_duplicates(
    detections: List[Detection], min_separation_km: float = 600.0
) -> List[Detection]:
    """Keep only the deepest candidate within each separation radius."""
    if len(detections) < 2:
        return list(detections)
    ordered = sorted(detections, key=lambda d: d.min_pressure)
    lat, lon = _coords(ordered)
    apart = _great_circle_km(lat[:, None], lon[:, None], lat, lon) >= min_separation_km
    kept: List[int] = []
    for i in range(len(ordered)):
        if apart[i, kept].all():
            kept.append(i)
    return [ordered[i] for i in kept]


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
    discarded (kills spurious single-step detections).  Closest pairs
    claim first; equal distances go in (track, detection) order.
    """
    live: List[Track] = []
    finished: List[Track] = []

    for step_dets in detections_per_step:
        remaining = list(step_dets)
        claimed = set()
        if live and remaining:
            lasts = [track.detections[-1] for track in live]
            last_lat, last_lon = _coords(lasts)
            lat, lon = _coords(remaining)
            gap = (np.array([d.step for d in remaining])
                   - np.array([d.step for d in lasts])[:, None])
            dist = _great_circle_km(last_lat[:, None], last_lon[:, None], lat, lon)
            ok = ((gap >= 1) & (gap <= max_gap_steps + 1)
                  & (dist <= max_travel_km_per_step * gap))
            ti, di = np.nonzero(ok)
            order = np.argsort(dist[ti, di], kind="stable")
            used_dets = set()
            for t, d in zip(ti[order].tolist(), di[order].tolist()):
                if t in claimed or d in used_dets:
                    continue
                live[t].detections.append(remaining[d])
                claimed.add(t)
                used_dets.add(d)
            remaining = [det for d, det in enumerate(remaining) if d not in used_dets]

        # Expire tracks that have been silent too long.
        current_step = step_dets[0].step if step_dets else None
        still_live = []
        for t, track in enumerate(live):
            if (
                t not in claimed
                and current_step is not None
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
            aligned = [(det, truth_by_step[det.step]) for det in track.detections
                       if det.step in truth_by_step]
            if len(aligned) < min_overlap_steps:
                continue
            lat, lon = _coords([det for det, _ in aligned])
            truth_lat, truth_lon = np.array(
                [pos for _, pos in aligned], dtype=float).reshape(-1, 2).T
            dists = _great_circle_km(lat, lon, truth_lat, truth_lon)
            dists = dists[dists <= max_match_km]
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
