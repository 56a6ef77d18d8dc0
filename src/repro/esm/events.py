"""Ground-truth extreme events injected into the simulation.

The point of simulating extremes with known parameters is that every
downstream detector (Ophidia heat-wave indices, the CNN TC localizer,
the deterministic tracker) can be scored against truth — something the
paper's qualitative case study never quantifies.

Heat/cold waves are persistent Gaussian temperature anomalies over a
region; tropical cyclones are moving warm-core vortices with a track,
central pressure deficit, tangential wind field and vorticity signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.esm.grid import Grid
from repro.netcdf.cf import DAYS_PER_YEAR


@dataclass(frozen=True)
class HeatWaveEvent:
    """A warm anomaly lasting ``duration_days`` from ``start_doy``."""

    year: int
    start_doy: int           # 1-based day of year
    duration_days: int
    center_lat: float
    center_lon: float
    radius_km: float
    amplitude_k: float       # peak anomaly, > 0

    @property
    def end_doy(self) -> int:
        return self.start_doy + self.duration_days - 1

    def active_on(self, doy: int) -> bool:
        return self.start_doy <= doy <= self.end_doy

    def anomaly(self, grid: Grid, doy: int) -> np.ndarray:
        """Temperature anomaly field (K) on *doy*; zeros when inactive."""
        if not self.active_on(doy):
            return np.zeros(grid.shape)
        dist = grid.distance_field_km(self.center_lat, self.center_lon)
        # Soft ramp-up/down over the first/last day keeps onset smooth.
        frac = 1.0
        if doy == self.start_doy or doy == self.end_doy:
            frac = 0.85
        return self.amplitude_k * frac * np.exp(-((dist / self.radius_km) ** 2))

    def to_dict(self) -> Dict:
        return {
            "kind": "heat_wave", "year": self.year, "start_doy": self.start_doy,
            "duration_days": self.duration_days, "center_lat": self.center_lat,
            "center_lon": self.center_lon, "radius_km": self.radius_km,
            "amplitude_k": self.amplitude_k,
        }


@dataclass(frozen=True)
class ColdWaveEvent(HeatWaveEvent):
    """A cold spell: the anomaly is *subtracted* (amplitude stays > 0)."""

    def anomaly(self, grid: Grid, doy: int) -> np.ndarray:
        return -super().anomaly(grid, doy)

    def to_dict(self) -> Dict:
        d = super().to_dict()
        d["kind"] = "cold_wave"
        return d


@dataclass(frozen=True)
class TropicalCycloneEvent:
    """A TC with a 6-hourly track.

    ``track`` holds one (lat, lon) per simulation step from genesis;
    intensity follows a spin-up / peak / decay envelope, with rapid decay
    after landfall.
    """

    year: int
    start_doy: int
    track: Tuple[Tuple[float, float], ...]     # per 6-hour step
    max_wind_ms: float
    min_pressure_hpa: float
    radius_km: float = 300.0
    steps_per_day: int = 4

    @property
    def n_steps(self) -> int:
        return len(self.track)

    @property
    def duration_days(self) -> int:
        return (self.n_steps + self.steps_per_day - 1) // self.steps_per_day

    @property
    def end_doy(self) -> int:
        return self.start_doy + self.duration_days - 1

    def step_index(self, doy: int, step: int) -> int | None:
        """Global track index for (day-of-year, sub-daily step), else None."""
        idx = (doy - self.start_doy) * self.steps_per_day + step
        if 0 <= idx < self.n_steps:
            return idx
        return None

    def intensity(self, idx: int) -> float:
        """Envelope in [0, 1]: sin^2 spin-up to peak then decay."""
        frac = (idx + 1) / self.n_steps
        return float(np.sin(np.pi * min(max(frac, 0.0), 1.0)) ** 0.8)

    def position(self, idx: int) -> Tuple[float, float]:
        return self.track[idx]

    def to_dict(self) -> Dict:
        return {
            "kind": "tropical_cyclone", "year": self.year,
            "start_doy": self.start_doy, "track": [list(p) for p in self.track],
            "max_wind_ms": self.max_wind_ms,
            "min_pressure_hpa": self.min_pressure_hpa,
            "radius_km": self.radius_km, "steps_per_day": self.steps_per_day,
        }


@dataclass
class EventGenerator:
    """Draws a physically-plausible event set for each simulated year.

    Heat waves favour summer over land; cold waves favour winter; TCs
    spawn in tropical ocean basins in the local warm season and drift
    west-then-poleward (an idealised beta drift).  All randomness comes
    from the seeded generator, so runs are reproducible.
    """

    grid: Grid
    seed: int = 0
    heat_waves_per_year: Tuple[int, int] = (2, 4)     # inclusive range
    cold_waves_per_year: Tuple[int, int] = (1, 3)
    tcs_per_year: Tuple[int, int] = (3, 6)
    steps_per_day: int = 4

    def _rng(self, year: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, year]))

    # -- helpers ------------------------------------------------------------

    def _pick_land_cell(self, rng, lat_band: Tuple[float, float]) -> Tuple[float, float]:
        lo, hi = lat_band
        candidates = np.argwhere(
            self.grid.land_mask
            & (self.grid.lat2d >= lo) & (self.grid.lat2d <= hi)
        )
        if len(candidates) == 0:  # tiny grids may lack land in the band
            candidates = np.argwhere(
                (self.grid.lat2d >= lo) & (self.grid.lat2d <= hi)
            )
        i, j = candidates[rng.integers(len(candidates))]
        return float(self.grid.lat[i]), float(self.grid.lon[j])

    def _pick_tc_genesis(self, rng, hemisphere: int) -> Tuple[float, float]:
        band = (5.0, 20.0) if hemisphere > 0 else (-20.0, -5.0)
        candidates = np.argwhere(
            self.grid.ocean_mask
            & (self.grid.lat2d >= band[0]) & (self.grid.lat2d <= band[1])
        )
        if len(candidates) == 0:
            candidates = np.argwhere(
                (self.grid.lat2d >= band[0]) & (self.grid.lat2d <= band[1])
            )
        i, j = candidates[rng.integers(len(candidates))]
        return float(self.grid.lat[i]), float(self.grid.lon[j])

    # -- generation ------------------------------------------------------------

    def heat_waves(self, year: int) -> List[HeatWaveEvent]:
        rng = self._rng(year * 3 + 0)
        n = int(rng.integers(self.heat_waves_per_year[0], self.heat_waves_per_year[1] + 1))
        events = []
        for _ in range(n):
            hemisphere = 1 if rng.random() < 0.5 else -1
            # Local summer: NH mid-year, SH around new year.
            start = int(rng.integers(160, 240)) if hemisphere > 0 else (
                int(rng.integers(1, 60)) if rng.random() < 0.5 else int(rng.integers(335, 355))
            )
            duration = int(rng.integers(6, 16))
            start = min(start, DAYS_PER_YEAR - duration)
            lat, lon = self._pick_land_cell(
                rng, (20.0, 60.0) if hemisphere > 0 else (-55.0, -20.0)
            )
            events.append(HeatWaveEvent(
                year=year, start_doy=start, duration_days=duration,
                center_lat=lat, center_lon=lon,
                radius_km=float(rng.uniform(900, 1800)),
                amplitude_k=float(rng.uniform(8.0, 12.0)),
            ))
        return events

    def cold_waves(self, year: int) -> List[ColdWaveEvent]:
        rng = self._rng(year * 3 + 1)
        n = int(rng.integers(self.cold_waves_per_year[0], self.cold_waves_per_year[1] + 1))
        events = []
        for _ in range(n):
            hemisphere = 1 if rng.random() < 0.5 else -1
            # Local winter.
            start = (
                int(rng.integers(1, 50)) if hemisphere > 0
                else int(rng.integers(170, 230))
            )
            duration = int(rng.integers(6, 14))
            lat, lon = self._pick_land_cell(
                rng, (25.0, 65.0) if hemisphere > 0 else (-60.0, -25.0)
            )
            events.append(ColdWaveEvent(
                year=year, start_doy=start, duration_days=duration,
                center_lat=lat, center_lon=lon,
                radius_km=float(rng.uniform(900, 1700)),
                amplitude_k=float(rng.uniform(8.0, 12.0)),
            ))
        return events

    def tropical_cyclones(self, year: int) -> List[TropicalCycloneEvent]:
        rng = self._rng(year * 3 + 2)
        n = int(rng.integers(self.tcs_per_year[0], self.tcs_per_year[1] + 1))
        events = []
        for _ in range(n):
            hemisphere = 1 if rng.random() < 0.55 else -1
            start = (
                int(rng.integers(210, 280)) if hemisphere > 0
                else int(rng.integers(20, 90))
            )
            duration = int(rng.integers(4, 9))
            n_steps = duration * self.steps_per_day
            lat, lon = self._pick_tc_genesis(rng, hemisphere)
            track = []
            # Idealised motion: westward trades, then recurvature poleward.
            for s in range(n_steps):
                frac = s / max(n_steps - 1, 1)
                dlon = -(0.9 - 0.5 * frac) + rng.normal(0, 0.08)
                dlat = hemisphere * (0.15 + 0.75 * frac**2) + rng.normal(0, 0.06)
                lat = min(max(lat + dlat, -60.0), 60.0)
                lon = float((lon + dlon) % 360.0)
                track.append((lat, lon))
            events.append(TropicalCycloneEvent(
                year=year, start_doy=start, track=tuple(track),
                max_wind_ms=float(rng.uniform(35.0, 65.0)),
                min_pressure_hpa=float(rng.uniform(915.0, 960.0)),
                radius_km=float(rng.uniform(250.0, 400.0)),
                steps_per_day=self.steps_per_day,
            ))
        return events

    def events_for_year(self, year: int) -> Dict[str, list]:
        """All events of one year, grouped by kind."""
        return {
            "heat_waves": self.heat_waves(year),
            "cold_waves": self.cold_waves(year),
            "tropical_cyclones": self.tropical_cyclones(year),
        }
