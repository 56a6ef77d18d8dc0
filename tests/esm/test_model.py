"""Integration tests for the coupled model driver and components."""

import json

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
        anoms = np.stack([atm.diurnal_anomaly(s) for s in range(4)])
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
