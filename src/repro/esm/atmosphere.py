"""The atmospheric component (a CAM6 stand-in).

Produces physically-structured synthetic fields: a deterministic
climatology (meridional gradient, seasonal cycle with hemisphere phase,
land-sea contrast, diurnal cycle), GHG-scenario warming with polar
amplification, spatially-correlated AR(1) synoptic noise, and the
imprints of injected heat waves, cold waves and tropical cyclones.

A model day is one array program over ``(steps, lat, lon)``: grid-only
terms are computed once per model, step-invariant terms once per day,
and every active tropical cyclone is broadcast over the steps it spans,
so a full day (four 6-hourly steps, ~20 variables) is a handful of
array operations, each written straight into its float32 output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.esm.events import ColdWaveEvent, HeatWaveEvent, TropicalCycloneEvent
from repro.esm.forcing import GHGScenario, warming_offset
from repro.esm.grid import Grid
from repro.netcdf.cf import DAYS_PER_YEAR
from repro.stencil import gaussian_filter

KELVIN = 273.15
#: Northern-hemisphere day-of-year of peak summer temperature.
_PEAK_DOY_NH = 196.0
#: Keys of the :meth:`Atmosphere._tc_imprint` anomalies.
_TC_TERMS = ("psl", "u", "v", "t850", "prec")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can alter the cache."""
    arr.flags.writeable = False
    return arr


@dataclass
class Atmosphere:
    """Synthetic atmosphere over *grid* under *scenario*."""

    grid: Grid
    scenario: GHGScenario = GHGScenario.SSP245
    steps_per_day: int = 4
    noise_std_k: float = 1.5
    noise_rho: float = 0.8
    noise_length_cells: float = 2.0

    # ------------------------------------------------------------------
    # Deterministic climatology
    # ------------------------------------------------------------------

    def seasonal_phase(self, doy: int) -> float:
        """cos term peaking at NH midsummer."""
        return float(np.cos(2.0 * np.pi * (doy - _PEAK_DOY_NH) / DAYS_PER_YEAR))

    @cached_property
    def _t_clim_terms(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base, seasonal amplitude and continental offset of the climatology."""
        g = self.grid
        lat_r = np.deg2rad(g.lat2d)
        base = 300.0 - 42.0 * np.sin(lat_r) ** 2
        amp = (4.0 + 14.0 * np.sin(lat_r) * np.abs(np.sin(lat_r)))
        amp = amp * np.where(g.land_mask, 1.35, 0.55)
        continental = np.where(g.land_mask, -2.0, 0.0)
        return _frozen(base), _frozen(amp), _frozen(continental)

    def surface_t_clim(self, doy: int) -> np.ndarray:
        """Daily-mean near-surface temperature climatology (K)."""
        base, amp, continental = self._t_clim_terms
        return base + amp * self.seasonal_phase(doy) + continental

    @cached_property
    def diurnal(self) -> np.ndarray:
        """``(steps, lat, lon)`` temperature offsets from the daily mean (K)."""
        g = self.grid
        steps = np.arange(self.steps_per_day)[:, None, None]
        hour_local = steps * (24.0 / self.steps_per_day) + g.lon2d / 15.0
        amplitude = np.where(g.land_mask, 4.0, 0.6)
        return _frozen(amplitude * np.cos(2.0 * np.pi * (hour_local - 14.0) / 24.0))

    def warming(self, year: int) -> np.ndarray:
        """Scenario warming with polar amplification (K)."""
        lat_r = np.deg2rad(self.grid.lat2d)
        amplification = 1.0 + 0.8 * np.sin(lat_r) ** 2
        return warming_offset(year, self.scenario) * amplification

    def apply_ocean_blend(self, t_field: np.ndarray, sst: np.ndarray) -> np.ndarray:
        """Relax ocean-point temperatures toward SST (the coupling feedback).

        Used identically by the daily integration and by baseline
        climatology so that baselines and simulated fields share the same
        mean state over the ocean.
        """
        return np.where(self.grid.ocean_mask, 0.35 * t_field + 0.65 * sst, t_field)

    def _baseline_mean(self, doy: int, year: int, sst_clim) -> np.ndarray:
        day_mean = self.surface_t_clim(doy) + self.warming(year)
        return day_mean if sst_clim is None else self.apply_ocean_blend(day_mean, sst_clim)

    def baseline_tmax(
        self, doy: int, baseline_year: int = 1995,
        sst_clim: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Historical-average daily-max temperature (the ETCCDI baseline).

        Pass the ocean's *sst_clim* for the same day to reproduce the
        coupled mean state; without it the baseline is atmosphere-only.
        """
        return self._baseline_mean(doy, baseline_year, sst_clim) + self.diurnal.max(axis=0)

    def baseline_tmin(
        self, doy: int, baseline_year: int = 1995,
        sst_clim: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Historical-average daily-min temperature."""
        return self._baseline_mean(doy, baseline_year, sst_clim) + self.diurnal.min(axis=0)

    @cached_property
    def psl_clim(self) -> np.ndarray:
        """Sea-level pressure climatology (hPa): subtropical highs etc."""
        lat_r = np.deg2rad(self.grid.lat2d)
        return _frozen(
            1013.0
            + 8.0 * np.cos(2.0 * lat_r) ** 2 * np.sign(np.cos(2.0 * lat_r))
            - 4.0 * np.exp(-((self.grid.lat2d / 10.0) ** 2))
        )

    @cached_property
    def u_clim(self) -> np.ndarray:
        """Zonal wind: tropical easterlies, mid-latitude westerlies (m/s)."""
        lat = self.grid.lat2d
        return _frozen(
            -6.0 * np.exp(-((lat / 18.0) ** 2))
            + 11.0 * np.exp(-(((np.abs(lat) - 45.0) / 14.0) ** 2))
        )

    # ------------------------------------------------------------------
    # Weather noise
    # ------------------------------------------------------------------

    def initial_noise(self, rng: np.random.Generator) -> np.ndarray:
        return self._correlated_noise(rng) * self.noise_std_k

    def step_noise(self, noise: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance the AR(1) synoptic noise by one day."""
        innovation = self._correlated_noise(rng)
        return (
            self.noise_rho * noise
            + self.noise_std_k * np.sqrt(1 - self.noise_rho**2) * innovation
        )

    def _correlated_noise(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-variance spatially-correlated field (periodic in longitude)."""
        white = rng.standard_normal(self.grid.shape)
        smooth = gaussian_filter(
            white, self.noise_length_cells, mode=("nearest", "wrap")
        )
        std = smooth.std()
        return smooth / std if std > 0 else smooth

    # ------------------------------------------------------------------
    # Tropical cyclone imprints
    # ------------------------------------------------------------------

    def _tc_imprint(
        self, tcs: Sequence[TropicalCycloneEvent], doy: int,
    ) -> Optional[Dict[str, np.ndarray]]:
        """``(steps, lat, lon)`` pressure/wind/warm-core/precip anomalies of
        the TCs active on *doy*, each broadcast over its active steps;
        None when no TC is active."""
        g = self.grid
        terms: Optional[Dict[str, np.ndarray]] = None
        for tc in tcs:
            active = [
                (step, idx) for step in range(self.steps_per_day)
                if (idx := tc.step_index(doy, step)) is not None
            ]
            if not active:
                continue
            if terms is None:
                terms = {k: np.zeros((self.steps_per_day,) + g.shape) for k in _TC_TERMS}
            span = slice(active[0][0], active[-1][0] + 1)
            per_step = []
            for _, idx in active:
                envelope = tc.intensity(idx)
                clat, clon = tc.position(idx)
                if g.land_mask[g.nearest_index(clat, clon)]:
                    envelope *= 0.45  # rapid decay over land
                spin = 1.0 if clat >= 0 else -1.0   # cyclonic: CCW in the NH
                per_step.append((envelope, clat, clon, spin))
            envelope, clat, clon, spin = np.array(per_step).T[:, :, None, None]
            r = g.distance_field_km(clat, clon)
            deficit = 1013.0 - tc.min_pressure_hpa
            core = np.exp(-((r / tc.radius_km) ** 2))
            terms["psl"][span] -= deficit * envelope * core

            # Tangential wind: Rankine-like profile.
            rmw = tc.radius_km / 3.0
            with np.errstate(divide="ignore", invalid="ignore"):
                profile = np.where(r <= rmw, r / rmw, (rmw / np.maximum(r, 1e-6)) ** 0.6)
            profile *= np.exp(-((r / (3.0 * tc.radius_km)) ** 2))
            speed = tc.max_wind_ms * envelope * profile
            dx = (g.lon2d - clon + 180.0) % 360.0 - 180.0
            dx *= 111.0 * np.cos(np.deg2rad(g.lat2d))
            dy = (g.lat2d - clat) * 111.0
            norm = np.sqrt(dx**2 + dy**2) + 1e-6
            terms["u"][span] += speed * (-dy / norm) * spin
            terms["v"][span] += speed * (dx / norm) * spin

            terms["t850"][span] += 4.0 * envelope * np.exp(-((r / (0.5 * tc.radius_km)) ** 2))
            terms["prec"][span] += 40.0 * envelope * core
        return terms

    def _vorticity(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Relative vorticity dv/dx - du/dy (s^-1) on the sphere (approx)."""
        g = self.grid
        dlat_m = (180.0 / g.n_lat) * 111.0e3
        dlon_m = (360.0 / g.n_lon) * 111.0e3 * np.cos(np.deg2rad(g.lat2d))
        dlon_m = np.maximum(dlon_m, 1.0)
        dv_dx = (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * dlon_m)
        du_dy = np.gradient(u, axis=-2) / dlat_m
        return dv_dx - du_dy

    # ------------------------------------------------------------------
    # Full daily state
    # ------------------------------------------------------------------

    def daily_fields(
        self,
        year: int,
        doy: int,
        noise: np.ndarray,
        sst: np.ndarray,
        heat_waves: Sequence[HeatWaveEvent] = (),
        cold_waves: Sequence[ColdWaveEvent] = (),
        tropical_cyclones: Sequence[TropicalCycloneEvent] = (),
    ) -> Dict[str, np.ndarray]:
        """All output variables for one day: ``(steps, n_lat, n_lon)`` float32.

        *noise* is the day's AR(1) state (managed by the model driver);
        *sst* comes from the ocean component via the coupler.  Terms no
        TC touches stay ``(lat, lon)``, broadcast over steps when written.
        """
        g = self.grid
        event_anom = np.zeros(g.shape)
        for ev in list(heat_waves) + list(cold_waves):
            event_anom += ev.anomaly(g, doy)

        t_day = self.surface_t_clim(doy) + self.warming(year) + noise + event_anom
        t_day = self.apply_ocean_blend(t_day, sst)
        t2m = t_day + self.diurnal
        tc = self._tc_imprint(tropical_cyclones, doy) or dict.fromkeys(_TC_TERMS, 0.0)

        u10 = self.u_clim + 1.5 * noise + tc["u"]
        v10 = 1.5 * np.roll(noise, g.n_lon // 4, axis=1) + tc["v"]
        u850, v850 = 0.8 * u10, 0.8 * v10
        itcz = 28.0 * np.exp(-(((g.lat2d - 6.0 * self.seasonal_phase(doy)) / 11.0) ** 2))
        storm_tracks = 7.0 * np.exp(-(((np.abs(g.lat2d) - 48.0) / 12.0) ** 2))
        prec = np.maximum(itcz + storm_tracks + 4.0 * np.maximum(noise, 0) + tc["prec"], 0.0)
        cloud = np.clip(0.45 + 0.12 * noise + prec / 80.0, 0.0, 1.0)

        values = {
            "TREFHT": t2m,
            "TREFHTMX": t2m.max(axis=0),
            "TREFHTMN": t2m.min(axis=0),
            "TS": np.where(g.ocean_mask, sst, t2m + 0.5),
            "PSL": self.psl_clim + 2.5 * noise + tc["psl"],
            "U10": u10, "V10": v10, "U850": u850, "V850": v850,
            "T850": t2m - 18.0 + tc["t850"],
            "VORT850": self._vorticity(u850, v850),
            "PRECT": prec,
            "QREFHT": 0.8 * 6.112 * np.exp(
                17.67 * (t2m - KELVIN) / (t2m - KELVIN + 243.5)) / 1000.0,
            "RELHUM": np.clip(70.0 + 8.0 * noise + 0.4 * tc["prec"], 5.0, 100.0),
            "CLDTOT": cloud,
            "Z500": 5800.0 - 4.5 * np.abs(g.lat2d) + 25.0 * noise + 0.9 * tc["psl"],
            "SST": sst,
            "ICEFRAC": np.clip((KELVIN - 1.8 - sst) / 4.0, 0.0, 1.0) * g.ocean_mask,
            "FLNT": 235.0 + 2.2 * (t2m - 288.0) - 35.0 * cloud,
            "FSNT": 340.0 * np.cos(np.deg2rad(g.lat2d) * 0.9) ** 2 * (1.0 - 0.35 * cloud),
            "WSPDSRFAV": np.sqrt(u10**2 + v10**2),
        }
        shape = (self.steps_per_day,) + g.shape
        out = {name: np.empty(shape, np.float32) for name in VARIABLE_ATTRS}
        for name, value in values.items():
            out[name][...] = value  # daily extremes replicate per step (CF style)
        return out


#: The daily-file variable catalogue (name → attributes), ~20 variables as
#: the paper describes for CMCC-CM3 output.
VARIABLE_ATTRS: Dict[str, Dict[str, str]] = {
    "TREFHT": {"units": "K", "long_name": "reference height temperature"},
    "TREFHTMX": {"units": "K", "long_name": "daily maximum reference temperature"},
    "TREFHTMN": {"units": "K", "long_name": "daily minimum reference temperature"},
    "TS": {"units": "K", "long_name": "surface (skin) temperature"},
    "PSL": {"units": "hPa", "long_name": "sea level pressure"},
    "U10": {"units": "m s-1", "long_name": "10m zonal wind"},
    "V10": {"units": "m s-1", "long_name": "10m meridional wind"},
    "U850": {"units": "m s-1", "long_name": "850 hPa zonal wind"},
    "V850": {"units": "m s-1", "long_name": "850 hPa meridional wind"},
    "T850": {"units": "K", "long_name": "850 hPa temperature"},
    "VORT850": {"units": "s-1", "long_name": "850 hPa relative vorticity"},
    "PRECT": {"units": "mm day-1", "long_name": "total precipitation rate"},
    "QREFHT": {"units": "kg kg-1", "long_name": "reference height humidity"},
    "RELHUM": {"units": "percent", "long_name": "relative humidity"},
    "CLDTOT": {"units": "1", "long_name": "total cloud fraction"},
    "Z500": {"units": "m", "long_name": "500 hPa geopotential height"},
    "SST": {"units": "K", "long_name": "sea surface temperature"},
    "ICEFRAC": {"units": "1", "long_name": "sea ice fraction"},
    "FLNT": {"units": "W m-2", "long_name": "net longwave flux at TOA"},
    "FSNT": {"units": "W m-2", "long_name": "net shortwave flux at TOA"},
    "WSPDSRFAV": {"units": "m s-1", "long_name": "surface wind speed"},
}
