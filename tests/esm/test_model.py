"""Integration tests for the coupled model driver and components."""

import hashlib
import json
import sys

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.esm import (
    Atmosphere,
    CMCCCM3,
    Coupler,
    Grid,
    ModelConfig,
    SlabOcean,
    daily_filename,
    parse_daily_filename,
)
from repro.esm.atmosphere import KELVIN, VARIABLE_ATTRS


@pytest.fixture(scope="module")
def model():
    return CMCCCM3(ModelConfig(n_lat=24, n_lon=36, seed=7))


class TestAtmosphere:
    def test_climatology_warm_equator_cold_poles(self, model):
        t = model.atmosphere.surface_t_clim(100)
        g = model.grid
        eq = t[np.abs(g.lat2d) < 15].mean()
        poles = t[np.abs(g.lat2d) > 70].mean()
        assert eq - poles > 25.0

    def test_seasonal_cycle_hemispheric_phase(self, model):
        atm = model.atmosphere
        g = model.grid
        nh = (g.lat2d > 40) & g.land_mask
        sh = (g.lat2d < -40) & g.land_mask
        july = atm.surface_t_clim(196)
        jan = atm.surface_t_clim(15)
        assert july[nh].mean() > jan[nh].mean() + 5.0
        assert jan[sh].mean() > july[sh].mean() + 5.0

    def test_diurnal_cycle_land_amplitude(self, model):
        atm = model.atmosphere
        anoms = atm.diurnal
        assert anoms.shape == (4,) + model.grid.shape
        land_range = (anoms.max(0) - anoms.min(0))[model.grid.land_mask].mean()
        ocean_range = (anoms.max(0) - anoms.min(0))[model.grid.ocean_mask].mean()
        assert land_range > 3.0 * ocean_range

    def test_warming_polar_amplification(self, model):
        w = model.atmosphere.warming(2050)
        g = model.grid
        assert w[np.abs(g.lat2d) > 70].mean() > w[np.abs(g.lat2d) < 15].mean()

    def test_noise_is_ar1(self, model):
        atm = model.atmosphere
        rng = np.random.default_rng(0)
        n0 = atm.initial_noise(rng)
        n1 = atm.step_noise(n0, rng)
        corr = np.corrcoef(n0.ravel(), n1.ravel())[0, 1]
        assert 0.55 < corr < 0.95  # rho = 0.8

    def test_daily_fields_shapes_and_catalogue(self, model):
        rng = np.random.default_rng(1)
        noise = model.atmosphere.initial_noise(rng)
        sst = model.ocean.initialise(2030)
        fields = model.atmosphere.daily_fields(2030, 10, noise, sst)
        assert set(fields) == set(VARIABLE_ATTRS)
        assert len(fields) >= 20  # "around 20 variables" (paper 5.2)
        for name, data in fields.items():
            assert data.shape == (4, 24, 36), name
            assert data.dtype == np.float32, name
            assert np.all(np.isfinite(data)), name

    def test_tmax_above_tmin(self, model):
        rng = np.random.default_rng(1)
        noise = model.atmosphere.initial_noise(rng)
        sst = model.ocean.initialise(2030)
        fields = model.atmosphere.daily_fields(2030, 180, noise, sst)
        assert np.all(fields["TREFHTMX"] >= fields["TREFHTMN"])
        assert np.all(fields["TREFHTMX"][0] == fields["TREFHTMX"][3])

    def test_heat_wave_visible_in_tmax(self, model):
        from repro.esm import HeatWaveEvent

        rng = np.random.default_rng(1)
        noise = np.zeros(model.grid.shape)
        sst = model.ocean.initialise(2030)
        land = np.argwhere(model.grid.land_mask)
        i, j = land[len(land) // 2]
        ev = HeatWaveEvent(2030, 100, 8, float(model.grid.lat[i]),
                           float(model.grid.lon[j]), 1500.0, 10.0)
        hot = model.atmosphere.daily_fields(2030, 103, noise, sst, heat_waves=[ev])
        calm = model.atmosphere.daily_fields(2030, 103, noise, sst)
        delta = hot["TREFHTMX"][0, i, j] - calm["TREFHTMX"][0, i, j]
        assert delta > 8.0

    def test_tc_signature_pressure_wind_vorticity(self, model):
        from repro.esm import TropicalCycloneEvent

        g = model.grid
        track = tuple((12.0, 180.0) for _ in range(8))
        tc = TropicalCycloneEvent(2030, 50, track, 55.0, 930.0, steps_per_day=4)
        rng = np.random.default_rng(1)
        noise = np.zeros(g.shape)
        sst = model.ocean.initialise(2030)
        with_tc = model.atmosphere.daily_fields(
            2030, 51, noise, sst, tropical_cyclones=[tc]
        )
        without = model.atmosphere.daily_fields(2030, 51, noise, sst)
        i, j = g.nearest_index(12.0, 180.0)
        assert with_tc["PSL"][0, i, j] < without["PSL"][0, i, j] - 15.0
        region = with_tc["WSPDSRFAV"][0, max(0, i - 3):i + 4, max(0, j - 3):j + 4]
        assert region.max() > 18.0
        vort_region = with_tc["VORT850"][0, max(0, i - 3):i + 4, max(0, j - 3):j + 4]
        assert vort_region.max() > 3.0 * np.abs(without["VORT850"][0]).max()


class TestOceanAndCoupler:
    def test_sst_warmer_at_equator(self):
        ocean = SlabOcean(Grid(24, 36))
        sst = ocean.initialise(2030)
        g = ocean.grid
        assert sst[np.abs(g.lat2d) < 10].mean() > sst[np.abs(g.lat2d) > 60].mean() + 10

    def test_relaxation_decays_anomaly(self):
        ocean = SlabOcean(Grid(24, 36))
        ocean.initialise(2030)
        clim = ocean.sst_clim(2030, 2) + ocean.enso_anomaly(2030, 2)
        ocean.sst = clim + 5.0
        zero_flux = np.zeros(ocean.grid.shape)
        for doy in range(2, 30):
            ocean.step(2030, doy, zero_flux)
        anomaly = ocean.sst - (ocean.sst_clim(2030, 29) + ocean.enso_anomaly(2030, 29))
        assert np.abs(anomaly).max() < 2.0

    def test_flux_warms_ocean(self):
        grid = Grid(24, 36)
        ocean = SlabOcean(grid)
        ocean.initialise(2030)
        before = ocean.sst.copy()
        flux = np.where(grid.ocean_mask, 1.0, 0.0)
        after = ocean.step(2030, 2, flux)
        changed = after[grid.ocean_mask] - before[grid.ocean_mask]
        clim_drift = (
            ocean.sst_clim(2030, 2) + ocean.enso_anomaly(2030, 2)
            - ocean.sst_clim(2030, 1) - ocean.enso_anomaly(2030, 1)
        )[grid.ocean_mask]
        assert (changed - clim_drift).mean() > 0.05

    def test_coupler_flux_zero_over_land(self):
        grid = Grid(24, 36)
        coupler = Coupler(grid)
        t2m = np.full(grid.shape, 300.0)
        sst = np.full(grid.shape, 295.0)
        wind = np.full(grid.shape, 5.0)
        flux = coupler.atmosphere_to_ocean(t2m, wind, sst)
        assert np.all(flux[grid.land_mask] == 0.0)
        assert np.all(flux[grid.ocean_mask] > 0.0)

    def test_coupler_flux_bounded(self):
        grid = Grid(24, 36)
        coupler = Coupler(grid)
        flux = coupler.atmosphere_to_ocean(
            np.full(grid.shape, 350.0), np.full(grid.shape, 100.0),
            np.full(grid.shape, 270.0),
        )
        assert flux.max() <= 3.0


class TestFilenames:
    def test_roundtrip(self):
        name = daily_filename(2030, 7)
        assert name == "cmcc_cm3_2030_007.rnc"
        assert parse_daily_filename(name) == (2030, 7)

    def test_lexical_order_is_chronological(self):
        names = [daily_filename(2030, d) for d in (1, 45, 200, 365)]
        assert names == sorted(names)

    def test_foreign_names_rejected(self):
        assert parse_daily_filename("ground_truth_2030.json") is None
        with pytest.raises(ValueError):
            daily_filename(2030, 0)


class TestModelRun:
    def test_run_year_writes_files_and_truth(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(ModelConfig(n_lat=16, n_lon=24, seed=3))
        truth = model.run_year(2030, fs, n_days=5)
        files = fs.glob("esm_output", "cmcc_cm3_*.rnc")
        assert len(files) == 5
        assert set(truth) == {"heat_waves", "cold_waves", "tropical_cyclones"}
        stored = json.loads(fs.read_bytes("esm_output/ground_truth_2030.json"))
        assert stored == truth

    def test_daily_file_contents(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(ModelConfig(n_lat=16, n_lon=24, seed=3))
        model.run_year(2031, fs, n_days=2)
        ds = fs.read("esm_output/cmcc_cm3_2031_001.rnc")
        assert ds.dimensions["time"] == 4
        assert ds.dimensions["lat"] == 16
        assert "TREFHTMX" in ds and "PSL" in ds and "VORT850" in ds
        assert ds.attrs["year"] == 2031
        # 271MB at 768x1152; proportionally smaller here, but multi-variable.
        assert len(ds) >= 20

    def test_determinism(self, tmp_path):
        fs1 = SharedFilesystem(tmp_path / "a")
        fs2 = SharedFilesystem(tmp_path / "b")
        for fs in (fs1, fs2):
            CMCCCM3(ModelConfig(n_lat=16, n_lon=24, seed=9)).run_year(2030, fs, n_days=2)
        d1 = fs1.read("esm_output/cmcc_cm3_2030_002.rnc")
        d2 = fs2.read("esm_output/cmcc_cm3_2030_002.rnc")
        np.testing.assert_array_equal(d1["TREFHT"].data, d2["TREFHT"].data)

    def test_on_day_written_callback(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(ModelConfig(n_lat=16, n_lon=24))
        seen = []
        model.run_year(2030, fs, n_days=3, on_day_written=lambda d, p: seen.append(d))
        assert seen == [1, 2, 3]

    def test_multi_year_run(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(ModelConfig(n_lat=16, n_lon=24))
        truth = model.run([2030, 2031], fs, n_days=2)
        assert set(truth) == {2030, 2031}
        assert len(fs.glob("esm_output", "cmcc_cm3_*.rnc")) == 4

    def test_events_toggle(self, tmp_path):
        model = CMCCCM3(ModelConfig(n_lat=16, n_lon=24, with_events=False))
        assert model.ground_truth(2030) == {
            "heat_waves": [], "cold_waves": [], "tropical_cyclones": []
        }

    def test_temperatures_physical(self, model):
        _, ds = next(model.iter_year(2030, n_days=1))
        t = ds["TREFHT"].data
        assert t.min() > KELVIN - 80
        assert t.max() < KELVIN + 65


class TestBaseline:
    def test_baseline_matches_simulated_climatology(self, tmp_path):
        """The baseline must track the model's actual (no-event) TMAX to
        within noise, else heat-wave detection is structurally biased."""
        fs = SharedFilesystem(tmp_path)
        config = ModelConfig(n_lat=16, n_lon=24, seed=11, with_events=False)
        model = CMCCCM3(config)
        model.write_baseline(fs, n_days=30, baseline_year=2030)
        base = fs.read("baselines/climatology.rnc")
        tmax_sim = []
        for doy, ds in model.iter_year(2030, n_days=30):
            tmax_sim.append(ds["TREFHTMX"].data[0])
        bias = np.stack(tmax_sim) - base["TMAX_BASELINE"].data
        assert np.abs(bias.mean()) < 1.5
        assert np.abs(bias).max() < 8.0  # bounded by noise + ENSO

    def test_baseline_file_structure(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(ModelConfig(n_lat=16, n_lon=24))
        model.write_baseline(fs, n_days=10)
        ds = fs.read("baselines/climatology.rnc")
        assert ds["TMAX_BASELINE"].shape == (10, 16, 24)
        assert np.all(ds["TMAX_BASELINE"].data >= ds["TMIN_BASELINE"].data)


# ---------------------------------------------------------------------------
# Bit-identity of the one-pass day against the per-step reference
# ---------------------------------------------------------------------------

def _oracle_daily_fields(atm, year, doy, noise, sst,
                         heat_waves=(), cold_waves=(), tropical_cyclones=()):
    """The day computed one 6-hourly step at a time, each variable stacked
    and cast at the end: the reference the one-pass day must equal."""
    g = atm.grid
    steps = atm.steps_per_day
    lat_r = np.deg2rad(g.lat2d)

    def surface_t_clim(doy):
        base = 300.0 - 42.0 * np.sin(lat_r) ** 2
        amp = (4.0 + 14.0 * np.sin(lat_r) * np.abs(np.sin(lat_r)))
        amp = amp * np.where(g.land_mask, 1.35, 0.55)
        seasonal = amp * atm.seasonal_phase(doy)
        continental = np.where(g.land_mask, -2.0, 0.0)
        return base + seasonal + continental

    def diurnal_anomaly(step):
        hour_utc = step * (24.0 / steps)
        hour_local = hour_utc + g.lon2d / 15.0
        amplitude = np.where(g.land_mask, 4.0, 0.6)
        return amplitude * np.cos(2.0 * np.pi * (hour_local - 14.0) / 24.0)

    def tc_imprint(step):
        dpsl, du, dv, dt850, dprec = (np.zeros(g.shape) for _ in range(5))
        for tc in tropical_cyclones:
            idx = tc.step_index(doy, step)
            if idx is None:
                continue
            envelope = tc.intensity(idx)
            clat, clon = tc.position(idx)
            if g.land_mask[g.nearest_index(clat, clon)]:
                envelope *= 0.45
            r = g.distance_field_km(clat, clon)
            deficit = 1013.0 - tc.min_pressure_hpa
            dpsl -= deficit * envelope * np.exp(-((r / tc.radius_km) ** 2))
            rmw = tc.radius_km / 3.0
            with np.errstate(divide="ignore", invalid="ignore"):
                profile = np.where(
                    r <= rmw, r / rmw, (rmw / np.maximum(r, 1e-6)) ** 0.6
                )
            profile *= np.exp(-((r / (3.0 * tc.radius_km)) ** 2))
            speed = tc.max_wind_ms * envelope * profile
            dx = (g.lon2d - clon + 180.0) % 360.0 - 180.0
            dx *= 111.0 * np.cos(np.deg2rad(g.lat2d))
            dy = (g.lat2d - clat) * 111.0
            norm = np.sqrt(dx**2 + dy**2) + 1e-6
            spin = 1.0 if clat >= 0 else -1.0
            du += speed * (-dy / norm) * spin
            dv += speed * (dx / norm) * spin
            dt850 += 4.0 * envelope * np.exp(-((r / (0.5 * tc.radius_km)) ** 2))
            dprec += 40.0 * envelope * np.exp(-((r / tc.radius_km) ** 2))
        return {"psl": dpsl, "u": du, "v": dv, "t850": dt850, "prec": dprec}

    def vorticity(u, v):
        dlat_m = (180.0 / g.n_lat) * 111.0e3
        dlon_m = (360.0 / g.n_lon) * 111.0e3 * np.cos(np.deg2rad(g.lat2d))
        dlon_m = np.maximum(dlon_m, 1.0)
        dv_dx = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * dlon_m)
        du_dy = np.gradient(u, axis=0) / dlat_m
        return dv_dx - du_dy

    event_anom = np.zeros(g.shape)
    for ev in list(heat_waves) + list(cold_waves):
        event_anom += ev.anomaly(g, doy)
    t_day = surface_t_clim(doy) + atm.warming(year) + noise + event_anom
    t_day = atm.apply_ocean_blend(t_day, sst)
    psl_clim = (
        1013.0
        + 8.0 * np.cos(2.0 * lat_r) ** 2 * np.sign(np.cos(2.0 * lat_r))
        - 4.0 * np.exp(-((g.lat2d / 10.0) ** 2))
    )
    u_clim = (
        -6.0 * np.exp(-((g.lat2d / 18.0) ** 2))
        + 11.0 * np.exp(-(((np.abs(g.lat2d) - 45.0) / 14.0) ** 2))
    )
    psl_day = psl_clim + 2.5 * noise
    u_day = u_clim + 1.5 * noise
    v_day = 1.5 * np.roll(noise, g.n_lon // 4, axis=1)

    out = {name: [] for name in VARIABLE_ATTRS}
    tmax = np.full(g.shape, -np.inf)
    tmin = np.full(g.shape, np.inf)
    for step in range(steps):
        tc = tc_imprint(step)
        t2m = t_day + diurnal_anomaly(step)
        tmax = np.maximum(tmax, t2m)
        tmin = np.minimum(tmin, t2m)
        psl = psl_day + tc["psl"]
        u10 = u_day + tc["u"]
        v10 = v_day + tc["v"]
        u850 = 0.8 * u10
        v850 = 0.8 * v10
        t850 = t2m - 18.0 + tc["t850"]
        vort = vorticity(u850, v850)
        wind_speed = np.sqrt(u10**2 + v10**2)
        itcz = 28.0 * np.exp(-(((g.lat2d - 6.0 * atm.seasonal_phase(doy)) / 11.0) ** 2))
        storm_tracks = 7.0 * np.exp(-(((np.abs(g.lat2d) - 48.0) / 12.0) ** 2))
        prec = np.maximum(
            itcz + storm_tracks + 4.0 * np.maximum(noise, 0) + tc["prec"], 0.0
        )
        q = 0.8 * 6.112 * np.exp(17.67 * (t2m - KELVIN) / (t2m - KELVIN + 243.5)) / 1000.0
        relhum = np.clip(70.0 + 8.0 * noise + 0.4 * tc["prec"], 5.0, 100.0)
        cloud = np.clip(0.45 + 0.12 * noise + prec / 80.0, 0.0, 1.0)
        z500 = 5800.0 - 4.5 * np.abs(g.lat2d) + 25.0 * noise + 0.9 * tc["psl"]
        ts = np.where(g.ocean_mask, sst, t2m + 0.5)
        icefrac = np.clip((KELVIN - 1.8 - sst) / 4.0, 0.0, 1.0) * g.ocean_mask
        flnt = 235.0 + 2.2 * (t2m - 288.0) - 35.0 * cloud
        fsnt = 340.0 * np.cos(np.deg2rad(g.lat2d) * 0.9) ** 2 * (1.0 - 0.35 * cloud)
        step_values = {
            "TREFHT": t2m, "TS": ts, "PSL": psl, "U10": u10, "V10": v10,
            "U850": u850, "V850": v850, "T850": t850, "VORT850": vort,
            "PRECT": prec, "QREFHT": q, "RELHUM": relhum, "CLDTOT": cloud,
            "Z500": z500, "SST": sst, "ICEFRAC": icefrac,
            "FLNT": flnt, "FSNT": fsnt, "WSPDSRFAV": wind_speed,
        }
        for name, value in step_values.items():
            out[name].append(value)
    for _ in range(steps):
        out["TREFHTMX"].append(tmax)
        out["TREFHTMN"].append(tmin)
    return {name: np.stack(vals).astype(np.float32) for name, vals in out.items()}


def _assert_same_bytes(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        # tobytes, not ==: a -0.0 that became 0.0 must fail.
        assert got[name].tobytes() == want[name].tobytes(), name


def _tc_cases(grid, spd):
    """Two storms, one per hemisphere, overlapping on day 51; the northern
    one crosses land mid-track (its ends have near-zero intensity), the
    southern one ends part-way through day 51."""
    from repro.esm import TropicalCycloneEvent

    land = np.argwhere(grid.land_mask & (np.abs(grid.lat2d) < 30))
    i, j = land[len(land) // 2]
    land_pt = (float(grid.lat[i]), float(grid.lon[j]))
    north = [(14.0 + 0.3 * k, 150.0 - 0.8 * k) for k in range(3 * spd)]
    north[len(north) // 2] = land_pt
    south_len = spd + spd // 2 + 1   # ends mid-day 51 when spd > 1
    south = tuple((-12.0 - 0.4 * k, 70.0 + 0.5 * k) for k in range(south_len))
    return [
        TropicalCycloneEvent(2030, 49, tuple(north), 55.0, 930.0, 320.0, steps_per_day=spd),
        TropicalCycloneEvent(2030, 50, south, 45.0, 950.0, 280.0, steps_per_day=spd),
    ]


def _wave_cases(grid):
    from repro.esm import ColdWaveEvent, HeatWaveEvent

    land = np.argwhere(grid.land_mask)
    i, j = land[len(land) // 3]
    k, m = land[2 * len(land) // 3]
    return (
        [HeatWaveEvent(2030, 49, 5, float(grid.lat[i]), float(grid.lon[j]), 1500.0, 10.0)],
        [ColdWaveEvent(2030, 51, 4, float(grid.lat[k]), float(grid.lon[m]), 1200.0, 9.0)],
    )


class TestOnePassDayBitIdentity:
    @pytest.mark.parametrize("n_lat,n_lon", [(24, 36), (48, 72), (21, 35)])
    @pytest.mark.parametrize("spd", [4, 1])
    def test_days_match_per_step_reference(self, n_lat, n_lon, spd):
        model = CMCCCM3(ModelConfig(n_lat=n_lat, n_lon=n_lon, steps_per_day=spd, seed=4))
        atm, grid = model.atmosphere, model.grid
        rng = np.random.default_rng(n_lat * n_lon + spd)
        noise = atm.initial_noise(rng)
        sst = model.ocean.initialise(2030) + rng.normal(0.0, 0.5, grid.shape)
        tcs = _tc_cases(grid, spd)
        heat, cold = _wave_cases(grid)
        tc_days = 0
        # 48, 52, 53: no storm; 49-51: first steps, overlap, landfall, last steps.
        for doy in range(48, 54):
            kwargs = dict(heat_waves=heat, cold_waves=cold, tropical_cyclones=tcs)
            active = [tc for tc in tcs if tc.start_doy <= doy <= tc.end_doy]
            tc_days += bool(active)
            got = atm.daily_fields(2030, doy, noise, sst, **kwargs)
            _assert_same_bytes(got, _oracle_daily_fields(atm, 2030, doy, noise, sst, **kwargs))
            calm = atm.daily_fields(2030, doy, noise, sst)
            _assert_same_bytes(calm, _oracle_daily_fields(atm, 2030, doy, noise, sst))
            noise = atm.step_noise(noise, rng)
        assert tc_days == 3
        # The cases reach what they claim to: overlap, landfall, a partial day.
        assert all(tc.start_doy <= 51 <= tc.end_doy for tc in tcs)
        lat, lon = tcs[0].track[tcs[0].n_steps // 2]
        assert grid.land_mask[grid.nearest_index(lat, lon)]
        assert spd == 1 or tcs[1].n_steps % spd

    @pytest.mark.parametrize("seed", [12, 5])
    def test_run_year_files_match_reference(self, tmp_path, monkeypatch, seed):
        config = ModelConfig(n_lat=24, n_lon=36, seed=seed)
        n_days = 90
        tcs = CMCCCM3(config).events.events_for_year(2030)["tropical_cyclones"]
        assert any(tc.start_doy <= n_days for tc in tcs)   # storms on the path

        def shas(root):
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted((root / "esm_output").iterdir())}

        CMCCCM3(config).run_year(2030, SharedFilesystem(tmp_path / "new"), n_days=n_days)
        monkeypatch.setattr(
            Atmosphere, "daily_fields",
            lambda self, *a, **kw: _oracle_daily_fields(self, *a, **kw))
        CMCCCM3(config).run_year(2030, SharedFilesystem(tmp_path / "ref"), n_days=n_days)
        new, ref = shas(tmp_path / "new"), shas(tmp_path / "ref")
        assert len(new) == n_days + 1 and new == ref


def _count_calls(fn, names):
    """Run *fn*; count calls, Python or builtin, to functions in *names*."""
    counts = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        name = (frame.f_code.co_name if event == "call"
                else getattr(arg, "__name__", None) if event == "c_call" else None)
        if name in counts:
            counts[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return counts


class TestOnePassDayCounts:
    def test_day_is_one_pass(self):
        model = CMCCCM3(ModelConfig(n_lat=24, n_lon=36, seed=4))
        atm = model.atmosphere
        noise = atm.initial_noise(np.random.default_rng(0))
        sst = model.ocean.initialise(2030)
        tcs = _tc_cases(model.grid, 4)
        heat, cold = _wave_cases(model.grid)
        days = range(48, 54)
        counts = _count_calls(
            lambda: [atm.daily_fields(2030, d, noise, sst, heat, cold, tcs) for d in days],
            ("stack", "roll", "_tc_imprint", "astype"),
        )
        assert counts["stack"] == 0
        assert counts["astype"] == 0
        assert counts["_tc_imprint"] == len(days)
        assert counts["roll"] <= 3 * len(days)

    def test_write_copies_no_payload(self, tmp_path):
        from repro.netcdf import write_dataset

        _, ds = next(CMCCCM3(ModelConfig(n_lat=24, n_lon=36)).iter_year(2030, n_days=1))
        counts = _count_calls(lambda: write_dataset(ds, tmp_path / "d.rnc"), ("tobytes",))
        assert counts["tobytes"] == 0

    def test_run_year_draws_events_once(self, tmp_path, monkeypatch):
        from repro.esm import EventGenerator

        calls = []
        draw = EventGenerator.events_for_year
        monkeypatch.setattr(EventGenerator, "events_for_year",
                            lambda self, year: calls.append(year) or draw(self, year))
        CMCCCM3(ModelConfig(n_lat=16, n_lon=24)).run_year(
            2030, SharedFilesystem(tmp_path), n_days=3)
        assert calls == [2030]
