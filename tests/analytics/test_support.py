"""Tests for regridding, tiling/scaling, maps, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    ValidationError,
    patch_center_latlon,
    regrid_bilinear,
    render_ascii_map,
    render_pgm,
    scale_features,
    tile_patches,
    validate_indices,
)
from repro.analytics.heatwaves import WaveIndices


class TestRegrid:
    def test_identity_on_same_grid(self):
        lat = np.linspace(-80, 80, 9)
        lon = np.arange(0, 360, 30)
        data = np.random.default_rng(0).normal(size=(9, 12))
        out = regrid_bilinear(data, lat, lon, lat, lon)
        np.testing.assert_allclose(out, data, atol=1e-12)

    def test_linear_field_exact(self):
        """Bilinear interpolation reproduces a linear-in-lat field exactly."""
        src_lat = np.linspace(-80, 80, 17)
        src_lon = np.arange(0, 360, 20)
        data = np.broadcast_to(src_lat[:, None], (17, 18)).copy()
        dst_lat = np.linspace(-70, 70, 29)
        dst_lon = np.arange(0, 360, 10)
        out = regrid_bilinear(data, src_lat, src_lon, dst_lat, dst_lon)
        np.testing.assert_allclose(out, np.broadcast_to(dst_lat[:, None], (29, 36)),
                                   atol=1e-9)

    def test_periodic_longitude(self):
        src_lat = np.linspace(-80, 80, 9)
        src_lon = np.arange(0, 360, 45)
        data = np.cos(np.deg2rad(src_lon))[None, :] * np.ones((9, 1))
        out = regrid_bilinear(data, src_lat, src_lon, src_lat, np.array([337.5]))
        expected = (np.cos(np.deg2rad(315.0)) + np.cos(0.0)) / 2
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-9)

    def test_leading_axes_preserved(self):
        src_lat = np.linspace(-80, 80, 9)
        src_lon = np.arange(0, 360, 45)
        data = np.random.default_rng(1).normal(size=(3, 4, 9, 8))
        out = regrid_bilinear(data, src_lat, src_lon, src_lat[:5], src_lon[:6])
        assert out.shape == (3, 4, 5, 6)

    def test_out_of_range_latitude_clamped(self):
        src_lat = np.linspace(-60, 60, 7)
        src_lon = np.arange(0, 360, 60)
        data = np.broadcast_to(src_lat[:, None], (7, 6)).copy()
        out = regrid_bilinear(data, src_lat, src_lon, np.array([-89.0, 89.0]), src_lon)
        np.testing.assert_allclose(out[0], -60.0)
        np.testing.assert_allclose(out[1], 60.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            regrid_bilinear(np.zeros((3, 4)), np.zeros(5), np.zeros(4),
                            np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            regrid_bilinear(np.zeros((3, 4)), np.array([2.0, 1.0, 0.0]),
                            np.zeros(4), np.zeros(2), np.zeros(2))


class TestTiling:
    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            tile_patches(np.zeros((2, 10, 24)), 8)
        with pytest.raises(ValueError):
            tile_patches(np.zeros((10, 24)), 8)

    def test_scale_features_standardises(self):
        rng = np.random.default_rng(2)
        patches = rng.normal(loc=[5, -3][0], scale=4.0, size=(20, 2, 4, 4))
        patches[:, 1] = rng.normal(-3, 0.5, size=(20, 4, 4))
        scaled, stats = scale_features(patches)
        assert abs(scaled[:, 0].mean()) < 1e-9
        assert abs(scaled[:, 0].std() - 1.0) < 1e-9
        assert abs(scaled[:, 1].mean()) < 1e-9

    def test_scale_features_reuses_training_stats(self):
        train = np.random.default_rng(3).normal(5, 2, size=(10, 1, 4, 4))
        _, stats = scale_features(train)
        infer = np.full((2, 1, 4, 4), 5.0)
        scaled, _ = scale_features(infer, stats)
        assert abs(scaled.mean()) < 0.5  # centred by the training mean

    def test_constant_channel_no_nan(self):
        patches = np.full((4, 1, 2, 2), 7.0)
        scaled, _ = scale_features(patches)
        assert np.all(np.isfinite(scaled))

    def test_patch_center_latlon(self):
        lat = np.linspace(-87.5, 87.5, 36)
        lon = np.arange(0, 360, 5.0)
        plat, plon = patch_center_latlon((10, 20), (2.0, 3.0), lat, lon)
        assert plat == pytest.approx(lat[12])
        assert plon == pytest.approx(lon[23])

    def test_patch_center_fractional_and_wrap(self):
        lat = np.linspace(-87.5, 87.5, 36)
        lon = np.arange(0, 360, 5.0)
        plat, plon = patch_center_latlon((0, 70), (0.5, 1.5), lat, lon)
        assert plat == pytest.approx((lat[0] + lat[1]) / 2)
        assert plon == pytest.approx(((lon[71] + (lon[71] + 5.0)) / 2) % 360)


class TestMaps:
    def test_ascii_map_renders(self):
        field = np.zeros((12, 24))
        field[8, 5] = 10.0
        art = render_ascii_map(field, title="HWN 2030")
        assert "HWN 2030" in art
        assert "@" in art  # the hot spot
        lines = art.splitlines()
        assert len(lines) > 3

    def test_ascii_map_validation(self):
        with pytest.raises(ValueError):
            render_ascii_map(np.zeros(5))

    def test_pgm_header_and_size(self):
        field = np.random.default_rng(0).normal(size=(10, 20))
        img = render_pgm(field)
        assert img.startswith(b"P5\n20 10\n255\n")
        assert len(img) == len(b"P5\n20 10\n255\n") + 200

    def test_pgm_constant_field(self):
        img = render_pgm(np.zeros((4, 4)))
        assert img.endswith(b"\x00" * 16)


class TestValidation:
    def _ok(self):
        dm = np.zeros((3, 3), np.int32)
        num = np.zeros((3, 3), np.int32)
        freq = np.zeros((3, 3))
        dm[1, 1], num[1, 1], freq[1, 1] = 8, 1, 8 / 365
        return WaveIndices(dm, num, freq)

    def test_valid_passes(self):
        stats = validate_indices(self._ok())
        assert stats["max_duration_days"] == 8.0

    def test_rejects_nan(self):
        idx = self._ok()
        idx.frequency[0, 0] = np.nan
        with pytest.raises(ValidationError):
            validate_indices(idx)

    def test_rejects_negative_counts(self):
        idx = self._ok()
        idx.number[0, 0] = -1
        with pytest.raises(ValidationError):
            validate_indices(idx)

    def test_rejects_subminimum_durations(self):
        idx = self._ok()
        idx.duration_max[1, 1] = 3
        with pytest.raises(ValidationError):
            validate_indices(idx)

    def test_rejects_inconsistency(self):
        idx = self._ok()
        idx.frequency[1, 1] = 0.0
        with pytest.raises(ValidationError):
            validate_indices(idx)

    def test_rejects_shape_mismatch(self):
        idx = WaveIndices(np.zeros((2, 2), np.int32), np.zeros((3, 3), np.int32),
                          np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            validate_indices(idx)
