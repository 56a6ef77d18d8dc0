"""Tests for the model grid and GHG forcing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.esm import Grid, GHGScenario, co2_ppm, warming_offset
from repro.esm.forcing import radiative_forcing
from repro.esm.grid import EARTH_RADIUS_KM


class TestGrid:
    def test_coordinates(self):
        g = Grid(24, 36)
        assert g.lat.shape == (24,)
        assert g.lon.shape == (36,)
        assert g.lat[0] < 0 < g.lat[-1]
        assert g.lat[0] == -g.lat[-1]  # symmetric cell centres
        assert g.lon[0] == 0.0
        assert g.lon[-1] < 360.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid(2, 8)

    def test_total_area_is_sphere(self):
        g = Grid(24, 36)
        sphere = 4.0 * np.pi * EARTH_RADIUS_KM**2
        assert g.cell_area_km2.sum() == pytest.approx(sphere, rel=1e-9)

    def test_land_fraction_reasonable(self):
        g = Grid(48, 72)
        frac = g.land_mask.mean()
        assert 0.15 < frac < 0.45  # Earth-like, not all-land/all-ocean

    def test_tropical_ocean_exists_for_tc_genesis(self):
        g = Grid(48, 72)
        tropics = (np.abs(g.lat2d) >= 5) & (np.abs(g.lat2d) <= 20)
        assert (g.ocean_mask & tropics).sum() > 10

    def test_masks_partition(self):
        g = Grid(24, 36)
        assert np.all(g.land_mask ^ g.ocean_mask)

    def test_distance_zero_and_antipode(self):
        g = Grid(24, 36)
        assert g.distance_km(10.0, 20.0, 10.0, 20.0) == pytest.approx(0.0)
        half = np.pi * EARTH_RADIUS_KM
        assert g.distance_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(half, rel=1e-6)

    def test_distance_symmetry(self):
        g = Grid(24, 36)
        d1 = g.distance_km(12.0, 33.0, -40.0, 200.0)
        d2 = g.distance_km(-40.0, 200.0, 12.0, 33.0)
        assert d1 == pytest.approx(d2)

    def test_nearest_index(self):
        g = Grid(24, 36)
        i, j = g.nearest_index(0.0, 0.0)
        assert abs(g.lat[i]) <= 90.0 / 24
        assert g.lon[j] == 0.0
        # Wrap-around: 359 degrees is closest to lon=0.
        _, j = g.nearest_index(0.0, 359.9)
        assert j == 0


class TestForcing:
    def test_scenario_coercion(self):
        assert GHGScenario.coerce("ssp585") is GHGScenario.SSP585
        assert GHGScenario.coerce(GHGScenario.HISTORICAL) is GHGScenario.HISTORICAL
        with pytest.raises(ValueError):
            GHGScenario.coerce("rcp85")

    def test_historical_anchors(self):
        assert co2_ppm(1850, "historical") == pytest.approx(285.0, rel=1e-6)
        assert co2_ppm(2015, "historical") == pytest.approx(410.0, rel=1e-6)

    def test_scenarios_diverge_after_2015(self):
        assert co2_ppm(2015, "ssp126") == co2_ppm(2015, "ssp585")
        assert co2_ppm(2060, "ssp585") > co2_ppm(2060, "ssp245") > co2_ppm(2060, "ssp126")

    def test_pre_split_years_use_historical(self):
        assert co2_ppm(1990, "ssp585") == co2_ppm(1990, "historical")

    def test_radiative_forcing_doubling(self):
        assert radiative_forcing(560.0) == pytest.approx(3.7, rel=1e-6)
        with pytest.raises(ValueError):
            radiative_forcing(0.0)

    @given(st.integers(1900, 2100))
    def test_warming_monotone_under_ssp585(self, year):
        assert warming_offset(year + 1, "ssp585") >= warming_offset(year, "ssp585")

    def test_warming_magnitude_plausible(self):
        w2100 = warming_offset(2100, "ssp585")
        assert 1.5 < w2100 < 8.0
