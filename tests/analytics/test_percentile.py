"""Tests for percentile baselines and percentile-threshold wave indices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    compute_percentile_wave_indices,
    percentile_baseline,
)


def make_years(n_years=5, n_days=30, shape=(2, 3), seed=0):
    rng = np.random.default_rng(seed)
    return [290.0 + rng.normal(0, 3.0, size=(n_days,) + shape)
            for _ in range(n_years)]


class TestPercentileBaseline:
    def test_shape(self):
        years = make_years()
        base = percentile_baseline(years, q=90, window_days=5)
        assert base.shape == years[0].shape

    def test_constant_data(self):
        years = [np.full((10, 2, 2), 7.0)] * 3
        base = percentile_baseline(years, q=90)
        np.testing.assert_allclose(base, 7.0)

    def test_median_of_known_pool(self):
        # One year, window 1: the percentile of a single value is itself.
        year = np.arange(10.0).reshape(10, 1, 1)
        base = percentile_baseline([year], q=50, window_days=1)
        np.testing.assert_allclose(base, year)

    def test_window_pools_across_calendar(self):
        # Day 0 of a window-3 baseline pools days {-1, 0, 1} circularly.
        year = np.zeros((5, 1, 1))
        year[4] = 100.0  # last day leaks into day 0's window
        base = percentile_baseline([year], q=100, window_days=3)
        assert base[0, 0, 0] == 100.0
        assert base[2, 0, 0] == 0.0

    def test_higher_percentile_is_higher(self):
        years = make_years()
        b50 = percentile_baseline(years, q=50)
        b95 = percentile_baseline(years, q=95)
        assert np.all(b95 >= b50)

    def test_about_ten_percent_exceed_p90(self):
        years = make_years(n_years=20, n_days=60, seed=3)
        base = percentile_baseline(years, q=90, window_days=5)
        exceed = np.mean([y > base for y in years])
        assert 0.05 < exceed < 0.15  # ~10% by construction

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile_baseline([], q=90)
        years = make_years(n_days=10)
        for bad_q in (-1, 101):
            with pytest.raises(ValueError):
                percentile_baseline(years, q=bad_q)
        for bad_w in (0, 2):
            with pytest.raises(ValueError):
                percentile_baseline(years, window_days=bad_w)
        with pytest.raises(ValueError):
            percentile_baseline(years, window_days=11)


class TestPercentileWaveIndices:
    def test_injected_percentile_wave(self):
        rng = np.random.default_rng(1)
        years = [290.0 + rng.normal(0, 1.0, size=(40, 2, 2)) for _ in range(10)]
        base = percentile_baseline(years, q=90, window_days=5)
        target = 290.0 + rng.normal(0, 1.0, size=(40, 2, 2))
        target[10:18, 0, 0] = 299.0  # way above p90 for 8 days
        idx = compute_percentile_wave_indices(target, base, min_length_days=6)
        assert idx.number[0, 0] >= 1
        assert idx.duration_max[0, 0] >= 8

    def test_cold_percentile_wave(self):
        rng = np.random.default_rng(2)
        years = [290.0 + rng.normal(0, 1.0, size=(40, 2, 2)) for _ in range(10)]
        base = percentile_baseline(years, q=10, window_days=5)
        target = 290.0 + rng.normal(0, 1.0, size=(40, 2, 2))
        target[5:12, 1, 1] = 281.0
        idx = compute_percentile_wave_indices(target, base, min_length_days=6,
                                              kind="cold")
        assert idx.number[1, 1] >= 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_typical_year_has_few_p90_waves(self, seed):
        """A year drawn from the baseline climate rarely sustains 6+ days
        above its own p90 threshold."""
        rng = np.random.default_rng(seed)
        years = [rng.normal(0, 1.0, size=(60, 1, 1)) for _ in range(8)]
        base = percentile_baseline(years, q=90, window_days=5)
        fresh = rng.normal(0, 1.0, size=(60, 1, 1))
        idx = compute_percentile_wave_indices(fresh, base, min_length_days=6)
        assert idx.number[0, 0] <= 2


class TestDynamicScaling:
    def test_add_servers_spreads_new_fragments(self):
        from repro.ophidia import StoragePool

        pool = StoragePool(2)
        for _ in range(4):
            pool.store(np.zeros(2))
        pool.add_servers(2)
        assert pool.n_servers == 4
        for _ in range(8):
            pool.store(np.zeros(2))
        # New servers received fragments; old fragments untouched.
        assert all(n >= 2 for n in pool.fragments_per_server())
        assert pool.n_fragments == 12

    def test_existing_fragments_still_readable(self):
        from repro.ophidia import StoragePool

        pool = StoragePool(1)
        fid = pool.store(np.arange(3.0))
        pool.add_servers(3)
        np.testing.assert_array_equal(pool.load(fid), np.arange(3.0))

    def test_add_servers_validation(self):
        from repro.ophidia import StoragePool

        with pytest.raises(ValueError):
            StoragePool(1).add_servers(0)
