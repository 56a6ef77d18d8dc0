"""End-to-end TC localizer tests: training, skill, snapshot pipeline."""

import json
import math

import numpy as np
import pytest

from repro.analytics import tile_patches
from repro.esm import Grid
from repro.ml import TCLocalizer, localize_in_snapshot, make_patch_dataset
from repro.ml.tc_localizer import CHANNELS, STEPS_PER_PASS, _background, _vortex
from repro.workflow import tasks


@pytest.fixture(scope="module")
def trained():
    """One shared, quickly-trained model for the expensive tests."""
    model = TCLocalizer(patch=16, seed=0)
    data = make_patch_dataset(n_samples=900, patch=16, seed=1)
    history = model.fit(data, epochs=6, batch_size=64, lr=2e-3, seed=2)
    model.fit(data, epochs=6, batch_size=64, lr=1e-3, seed=3)  # fine-tune
    return model, data, history


class TestDataset:
    def test_dataset_shapes_and_balance(self):
        data = make_patch_dataset(n_samples=200, patch=16, seed=0)
        assert data.patches.shape == (200, 4, 16, 16)
        assert 0.3 < data.presence.mean() < 0.7
        assert np.all((data.centers >= 0) & (data.centers <= 1))

    def test_deterministic(self):
        a = make_patch_dataset(n_samples=50, seed=3)
        b = make_patch_dataset(n_samples=50, seed=3)
        np.testing.assert_array_equal(a.patches, b.patches)

    def test_positive_patches_have_signature(self):
        rng = np.random.default_rng(0)
        bg = _background(rng, 16)
        vortex = _vortex(rng, 16, (8.0, 8.0))
        with_tc = bg + vortex
        assert with_tc[1].min() < bg[1].min() - 10  # pressure deficit
        assert with_tc[2].max() > bg[2].max() + 5   # wind

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            make_patch_dataset(10, positive_fraction=0.0)


class TestModel:
    def test_patch_divisibility(self):
        with pytest.raises(ValueError):
            TCLocalizer(patch=10)

    def test_untrained_predict_rejected(self):
        model = TCLocalizer(patch=16)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 4, 16, 16)))

    def test_training_converges(self, trained):
        _, _, history = trained
        assert history.loss[-1] < history.loss[0] * 0.5

    def test_detection_skill(self, trained):
        model, _, _ = trained
        test_data = make_patch_dataset(n_samples=300, patch=16, seed=99)
        metrics = model.evaluate(test_data)
        assert metrics["accuracy"] >= 0.85
        assert metrics["center_error_cells"] <= 3.0

    def test_save_load_preserves_predictions(self, trained, tmp_path):
        model, data, _ = trained
        path = str(tmp_path / "tc.pkl")
        model.save(path)
        loaded = TCLocalizer.load(path)
        p1, c1 = model.predict(data.patches[:10])
        p2, c2 = loaded.predict(data.patches[:10])
        np.testing.assert_allclose(p1, p2)
        np.testing.assert_allclose(c1, c2)


class TestSnapshotPipeline:
    def test_localizes_vortex_in_global_snapshot(self, trained):
        model, _, _ = trained
        n_lat, n_lon = 48, 96
        lat = np.linspace(-87, 87, n_lat)
        lon = np.arange(0, 360, 360 / n_lon)
        rng = np.random.default_rng(5)

        # Build a quiet global background, then composite one vortex.
        fields = {}
        base = _background(rng, 16)  # reuse channel scales
        fields["T850"] = np.full((n_lat, n_lon), 270.0) + rng.normal(0, 1.5, (n_lat, n_lon))
        fields["PSL"] = np.full((n_lat, n_lon), 1013.0) + rng.normal(0, 1.0, (n_lat, n_lon))
        fields["WSPDSRFAV"] = np.abs(rng.normal(6.0, 1.5, (n_lat, n_lon)))
        fields["VORT850"] = rng.normal(0, 4e-6, (n_lat, n_lon))

        ci, cj = 30, 40  # inside one patch
        vortex = _vortex(np.random.default_rng(1), 16, (ci % 16, cj % 16))
        i0, j0 = (ci // 16) * 16, (cj // 16) * 16
        for ch_idx, name in enumerate(CHANNELS):
            fields[name][i0:i0 + 16, j0:j0 + 16] += vortex[ch_idx]

        found = localize_in_snapshot(model, fields, lat, lon, threshold=0.5)
        assert found, "no TC localized"
        best = max(found, key=lambda f: f[2])
        true_lat, true_lon = lat[ci], lon[cj]
        assert abs(best[0] - true_lat) < 15.0
        assert abs((best[1] - true_lon + 180) % 360 - 180) < 15.0

    def test_missing_channel_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(KeyError):
            localize_in_snapshot(model, {"PSL": np.zeros((16, 16))},
                                 np.zeros(16), np.zeros(16))

    def test_quiet_snapshot_mostly_empty(self, trained):
        model, _, _ = trained
        rng = np.random.default_rng(6)
        n_lat, n_lon = 32, 64
        fields = {
            "T850": np.full((n_lat, n_lon), 270.0) + rng.normal(0, 1.0, (n_lat, n_lon)),
            "PSL": np.full((n_lat, n_lon), 1013.0) + rng.normal(0, 0.8, (n_lat, n_lon)),
            "WSPDSRFAV": np.abs(rng.normal(6.0, 1.0, (n_lat, n_lon))),
            "VORT850": rng.normal(0, 3e-6, (n_lat, n_lon)),
        }
        found = localize_in_snapshot(
            model, fields, np.linspace(-80, 80, n_lat),
            np.arange(0, 360, 360 / n_lon), threshold=0.5,
        )
        assert len(found) <= 2  # at most a couple of false alarms


class TestStackedInference:
    """A (steps, lat, lon) stack is T snapshots, inferred 4 steps a pass."""

    @pytest.fixture(scope="class")
    def year(self):
        """240 six-hourly steps on the 32x64 case-study grid, with a
        vortex drifting through them."""
        rng = np.random.default_rng(9)
        steps, n_lat, n_lon = 240, 32, 64
        fields = {
            "T850": 270.0 + rng.normal(0, 1.0, (steps, n_lat, n_lon)),
            "PSL": 1013.0 + rng.normal(0, 0.8, (steps, n_lat, n_lon)),
            "WSPDSRFAV": np.abs(rng.normal(6.0, 1.0, (steps, n_lat, n_lon))),
            "VORT850": rng.normal(0, 3e-6, (steps, n_lat, n_lon)),
        }
        vortex = _vortex(np.random.default_rng(1), 16, (7.0, 8.0))
        for t in range(0, steps, 3):
            j0 = (t // 3) % (n_lon - 16)
            for c, name in enumerate(CHANNELS):
                fields[name][t, 8:24, j0:j0 + 16] += vortex[c]
        return fields, np.linspace(-87, 87, n_lat), np.arange(n_lon) * (360 / n_lon)

    @pytest.mark.parametrize("steps", [1, 3, 4, 5, 7, 8, 9, 240])
    def test_stack_equals_single_snapshots(self, tc_model_path, year,
                                           monkeypatch, steps):
        model = TCLocalizer.load(tc_model_path)
        fields, lat, lon = year
        singles = [
            localize_in_snapshot(model, {c: a[t] for c, a in fields.items()},
                                 lat, lon, threshold=0.0)
            for t in range(steps)
        ]
        passes = []
        predict = model.predict
        monkeypatch.setattr(model, "predict",
                            lambda p: passes.append(len(p)) or predict(p))
        stacked = localize_in_snapshot(
            model, {c: a[:steps] for c, a in fields.items()}, lat, lon,
            threshold=0.0,
        )
        assert len(stacked) == steps
        assert json.dumps(stacked).encode() == json.dumps(singles).encode()
        assert len(passes) == math.ceil(steps / STEPS_PER_PASS) == math.ceil(steps / 4)
        assert sum(passes) == 8 * steps   # 2x4 patches per snapshot


def _oracle_regrid(data, src_lat, src_lon, dst_lat, dst_lon):
    """One regrid of one day, building its indices and weights anew."""
    data = np.asarray(data, dtype=np.float64)
    li = np.clip(np.searchsorted(src_lat, dst_lat) - 1, 0, src_lat.size - 2)
    lat0, lat1 = src_lat[li], src_lat[li + 1]
    wlat = np.clip((dst_lat - lat0) / (lat1 - lat0), 0.0, 1.0)
    pos = (dst_lon - src_lon[0]) % 360.0 / (360.0 / src_lon.size)
    gi = np.floor(pos).astype(int) % src_lon.size
    gi1 = (gi + 1) % src_lon.size
    wlon = pos - np.floor(pos)
    a = data[..., li[:, None], gi[None, :]]
    b = data[..., li[:, None], gi1[None, :]]
    c = data[..., li[:, None] + 1, gi[None, :]]
    d = data[..., li[:, None] + 1, gi1[None, :]]
    wlat2, wlon2 = wlat[:, None], wlon[None, :]
    top = a * (1 - wlon2) + b * wlon2
    bottom = c * (1 - wlon2) + d * wlon2
    return top * (1 - wlat2) + bottom * wlat2


def _oracle_latlon(origin, offset_rc, lat, lon):
    """Geo-reference one detection with scalar arithmetic."""
    row = origin[0] + float(offset_rc[0])
    col = origin[1] + float(offset_rc[1])
    r0 = int(np.clip(np.floor(row), 0, lat.size - 1))
    r1 = min(r0 + 1, lat.size - 1)
    fr = np.clip(row - r0, 0.0, 1.0)
    c0 = int(np.floor(col)) % lon.size
    c1 = (c0 + 1) % lon.size
    fc = np.clip(col - np.floor(col), 0.0, 1.0)
    lon1 = lon[c1] if lon[c1] >= lon[c0] else lon[c1] + 360.0
    return (float(lat[r0] * (1 - fr) + lat[r1] * fr),
            float((lon[c0] * (1 - fc) + lon1 * fc) % 360.0))


def _oracle_tc_inference(model, prepared, target_grid, threshold):
    """Regrid day by day, infer 4 steps a pass, geo-reference hit by hit."""
    n_lat, n_lon = target_grid
    dst_lat = np.linspace(-90 + 90.0 / n_lat, 90 - 90.0 / n_lat, n_lat)
    dst_lon = np.arange(n_lon) * (360.0 / n_lon)
    steps = len(prepared["PSL"])
    data = np.concatenate([
        _oracle_regrid(np.stack([prepared[c][t:t + 4] for c in CHANNELS], axis=1),
                       prepared["lat"], prepared["lon"], dst_lat, dst_lon)
        for t in range(0, steps, 4)
    ])
    found = []
    for start in range(0, steps, STEPS_PER_PASS):
        patches, origins = tile_patches(data[start:start + STEPS_PER_PASS], model.patch)
        probs, centers = model.predict(patches)
        tiles = len(origins) // len(data[start:start + STEPS_PER_PASS])
        for k, (prob, center) in enumerate(zip(probs, centers)):
            if prob < threshold:
                continue
            offset = (center[0] * (model.patch - 1), center[1] * (model.patch - 1))
            plat, plon = _oracle_latlon(origins[k], offset, dst_lat, dst_lon)
            found.append({"step": start + k // tiles, "lat": plat, "lon": plon,
                          "prob": float(prob)})
    return found


class TestCNNDetectionsMatchPerHitOracle:
    """``tc_inference`` (one regrid plan, day blocks, one geo-referencing
    call per pass) against the per-day regrid and per-hit
    geo-referencing it replaced, on output with hits."""

    @pytest.fixture(scope="class", params=[(24, 36), (21, 35)])
    def prepared(self, request):
        """Three days on the 24x36 case-study model grid, and on a 21x35
        one whose interpolation weights are not dyadic fractions; float32
        like the model's output, with a vortex composited into every
        other step."""
        grid = Grid(*request.param)
        rng = np.random.default_rng(12)
        shape = (12,) + grid.shape
        fields = {
            "T850": 270.0 + rng.normal(0, 1.0, shape),
            "PSL": 1013.0 + rng.normal(0, 0.8, shape),
            "WSPDSRFAV": np.abs(rng.normal(6.0, 1.0, shape)),
            "VORT850": rng.normal(0, 3e-6, shape),
        }
        vortex = _vortex(np.random.default_rng(1), 16, (7.0, 8.0))
        for t in range(0, 12, 2):
            for c, name in enumerate(CHANNELS):
                fields[name][t, 4:20, t:t + 16] += vortex[c]
        prepared = {name: a.astype(np.float32) for name, a in fields.items()}
        prepared.update(lat=grid.lat, lon=grid.lon)
        return prepared

    @pytest.mark.parametrize("quantile", [0.0, 0.5, 0.9])
    def test_detections_identical(self, tc_model_path, prepared, quantile):
        model = TCLocalizer.load(tc_model_path)
        probs = [d["prob"] for d in _oracle_tc_inference(model, prepared, (32, 64), 0.0)]
        threshold = float(np.quantile(probs, quantile))
        expected = _oracle_tc_inference(model, prepared, (32, 64), threshold)
        assert len(expected) >= 1
        got = tasks.tc_inference(tc_model_path, prepared, (32, 64), threshold=threshold)
        assert json.dumps(got).encode() == json.dumps(expected).encode()


class TestVectorizedDataset:
    def test_matches_loop_reference_exactly(self):
        """The batched generator must reproduce the original per-sample
        loop bit-for-bit (same RNG stream, same field math)."""
        from repro.ml.tc_localizer import _make_patch_dataset_reference

        fast = make_patch_dataset(n_samples=120, patch=16, seed=11,
                                  positive_fraction=0.4)
        slow = _make_patch_dataset_reference(n_samples=120, patch=16, seed=11,
                                             positive_fraction=0.4)
        np.testing.assert_array_equal(fast.patches, slow.patches)
        np.testing.assert_array_equal(fast.presence, slow.presence)
        np.testing.assert_array_equal(fast.centers, slow.centers)

    def test_batched_background_matches_per_sample_filter(self):
        ndimage = pytest.importorskip("scipy.ndimage")

        from repro.ml.tc_localizer import _BACKGROUND_SCALES, _background_batch

        rng = np.random.default_rng(5)
        whites = rng.standard_normal((7, len(CHANNELS), 16, 16))
        batched = _background_batch(whites)
        for k in range(7):
            fields = [
                ndimage.gaussian_filter(whites[k, c], sigma=s, mode="wrap")
                for c, s in enumerate(_BACKGROUND_SCALES)
            ]
            expected = np.stack([
                270.0 + 6.0 * fields[0],
                1013.0 + 4.0 * fields[1],
                np.abs(6.0 + 3.0 * fields[2]),
                1.2e-5 * fields[3],
            ])
            np.testing.assert_array_equal(batched[k], expected)

    def test_batched_vortex_matches_per_sample(self):
        from repro.ml.tc_localizer import _vortex_batch

        rng = np.random.default_rng(9)
        centers = rng.uniform(2.0, 13.0, size=(5, 2))
        radius = rng.uniform(1.5, 3.5, size=5)
        deficit = rng.uniform(25.0, 70.0, size=5)
        vmax = rng.uniform(18.0, 45.0, size=5)
        spin = np.where(rng.random(5) < 0.5, 1.0, -1.0)
        batched = _vortex_batch(16, centers, radius, deficit, vmax, spin)

        class _Fixed:
            """Replays the already-drawn parameters through _vortex."""

            def __init__(self, values):
                self._values = list(values)

            def uniform(self, lo, hi):
                return self._values.pop(0)

            def random(self):
                return self._values.pop(0)

        for k in range(5):
            fixed = _Fixed([radius[k], deficit[k], vmax[k],
                            0.25 if spin[k] > 0 else 0.75])
            expected = _vortex(fixed, 16, tuple(centers[k]))
            np.testing.assert_array_equal(batched[k], expected)
