"""Unit tests for individual workflow tasks (sequential mode)."""

import json

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.esm import CMCCCM3, ModelConfig
from repro.ml.tc_localizer import CHANNELS
from repro.ophidia import Client, Cube, OphidiaServer
from repro.workflow import tasks
from repro.workflow.extreme_events import YearCollector


@pytest.fixture
def fs(tmp_path):
    return SharedFilesystem(tmp_path)


@pytest.fixture
def client(fs):
    with OphidiaServer(n_io_servers=2, n_cores=2, filesystem=fs) as server:
        yield Client(server)


def run_small_esm(fs, years=(2030,), n_days=8, n_lat=16, n_lon=24, seed=5):
    return tasks.esm_simulation(
        fs, list(years), n_days, n_lat, n_lon, "ssp245", seed, "esm_output", 0.0
    )


class TestESMTasks:
    def test_esm_simulation_writes_days_and_truth(self, fs):
        truth = run_small_esm(fs, n_days=4)
        assert len(fs.glob("esm_output", "cmcc_cm3_*.rnc")) == 4
        assert set(truth[2030]) == {"heat_waves", "cold_waves", "tropical_cyclones"}

    def test_write_baseline(self, fs):
        path = tasks.write_baseline(fs, 16, 24, "ssp245", 5, 10)
        ds = fs.read(path)
        assert ds["TMAX_BASELINE"].shape == (10, 16, 24)


class TestMonitor:
    def test_collect_year_returns_chronological_paths(self, fs):
        run_small_esm(fs, n_days=5)
        collector = YearCollector(fs.path("esm_output"), filesystem=fs)
        paths = collector.collect_year(2030, 5)
        assert len(paths) == 5
        assert paths == sorted(paths)
        collector.close()

    def test_monitor_multiple_years_share_stream(self, fs):
        run_small_esm(fs, years=(2030, 2031), n_days=3)
        collector = YearCollector(fs.path("esm_output"), filesystem=fs)
        p30 = collector.collect_year(2030, 3)
        p31 = collector.collect_year(2031, 3)
        assert all("2030" in p for p in p30)
        assert all("2031" in p for p in p31)
        collector.close()

    def test_closed_collector_raises_when_incomplete(self, fs):
        from repro.compss import StreamClosed

        run_small_esm(fs, n_days=2)
        collector = YearCollector(fs.path("esm_output"), filesystem=fs)
        collector.close()
        with pytest.raises(StreamClosed):
            collector.collect_year(2030, 99)


class TestLoadAndIndices:
    def test_load_year_cubes_daily_extremes(self, fs, client):
        run_small_esm(fs, n_days=6)
        paths = [f"esm_output/{n}" for n in fs.glob("esm_output", "cmcc_cm3_*.rnc")]
        paths = [n for n in fs.glob("esm_output", "cmcc_cm3_*.rnc")]
        tmax, tmin = tasks.load_year_cubes(client, paths, nfrag=2)
        assert tmax.shape == (6, 16, 24)
        assert tmin.shape == (6, 16, 24)
        assert np.all(tmax.to_array() >= tmin.to_array())

    def test_full_index_chain_matches_reference(self, fs, client):
        """Task chain vs the NumPy reference on real model output."""
        from repro.analytics import compute_heatwave_indices

        n_days = 30
        run_small_esm(fs, n_days=n_days, seed=11)
        tasks.write_baseline(fs, 16, 24, "ssp245", 11, n_days)
        paths = fs.glob("esm_output", "cmcc_cm3_*.rnc")
        tmax, _ = tasks.load_year_cubes(client, paths, nfrag=2)
        base_tmax, _ = tasks.load_baseline_cubes(
            client, "baselines/climatology.rnc", 2, n_days
        )
        dur = tasks.compute_qualifying_durations(
            client, tmax, base_tmax, "heat", 5.0, 6
        )
        dmax = tasks.index_duration_max(client, dur, "t_dmax", "results")
        num = tasks.index_duration_number(client, dur, "t_num", "results")
        freq = tasks.index_frequency(client, dur, n_days, "t_freq", "results")

        ref = compute_heatwave_indices(
            tmax.to_array().astype(np.float64),
            base_tmax.to_array().astype(np.float64),
        )
        np.testing.assert_array_equal(dmax.to_array(), ref.duration_max)
        np.testing.assert_array_equal(num.to_array(), ref.number)
        np.testing.assert_allclose(freq.to_array(), ref.frequency, atol=1e-6)
        assert fs.exists("results/t_dmax.rnc")
        assert fs.exists("results/t_num.rnc")
        assert fs.exists("results/t_freq.rnc")

    def test_validate_and_store(self, fs, client):
        data = np.zeros((10, 4, 4), np.float32)
        data[2:10, 1, 1] = 10.0  # one 8-day wave
        base = Cube.from_array(np.zeros((10, 4, 4), np.float32),
                               ["time", "lat", "lon"], client=client,
                               fragment_dim="lat")
        cube = Cube.from_array(data, ["time", "lat", "lon"], client=client,
                               fragment_dim="lat")
        dur = tasks.compute_qualifying_durations(client, cube, base, "heat", 5.0, 6)
        dmax = tasks.index_duration_max(client, dur, "x1", "results")
        num = tasks.index_duration_number(client, dur, "x2", "results")
        freq = tasks.index_frequency(client, dur, 10, "x3", "results")
        stats = tasks.validate_and_store(
            fs, dmax, num, freq, "heat", 2030, 10, 6, "results"
        )
        assert stats["max_duration_days"] == 8.0
        stored = json.loads(fs.read_bytes("results/heat_summary_2030.json"))
        assert stored == stats

    def test_make_map(self, fs, client):
        cube = Cube.from_array(np.arange(12.0).reshape(3, 4), ["lat", "lon"],
                               client=client, fragment_dim="lat")
        path = tasks.make_map(fs, cube, "Test map", "test_map", "results")
        assert path.endswith(".pgm")
        assert fs.read_bytes(path).startswith(b"P5")
        assert b"Test map" in fs.read_bytes("results/test_map.txt")


class TestTCTasks:
    def test_tc_preprocess_shapes(self, fs, monkeypatch):
        run_small_esm(fs, n_days=2)
        paths = fs.glob("esm_output", "cmcc_cm3_*.rnc")
        reads = []
        read = fs.read
        monkeypatch.setattr(fs, "read", lambda p, **kw: reads.append(p) or read(p, **kw))
        prepared = tasks.tc_preprocess(fs, paths)
        assert reads == paths   # one read per day file
        for name in CHANNELS:
            assert prepared[name].shape == (8, 16, 24)
            assert np.array_equal(
                prepared[name],
                np.concatenate([read(p, variables=[name])[name].data for p in paths]),
            )
        assert prepared["lat"].shape == (16,)

    def test_tc_inference_and_georeference(self, fs, tmp_path, monkeypatch):
        model_path = tasks.ensure_tc_model(None, 16, str(tmp_path / "m"))
        run_small_esm(fs, n_days=2)
        paths = fs.glob("esm_output", "cmcc_cm3_*.rnc")
        prepared = tasks.tc_preprocess(fs, paths)
        seen = []
        localize = tasks.localize_in_snapshot
        monkeypatch.setattr(tasks, "localize_in_snapshot",
                            lambda m, f, lat, lon, **kw: seen.append((f, lat))
                            or localize(m, f, lat, lon, **kw))
        detections = tasks.tc_inference(model_path, prepared, (32, 64))
        (fields, lat), = seen
        assert {c: a.shape for c, a in fields.items()} == {c: (8, 32, 64) for c in CHANNELS}
        assert lat.shape == (32,)
        assert isinstance(detections, list)
        out = tasks.tc_georeference(fs, detections, 2030, "results")
        assert json.loads(fs.read_bytes(out)) == detections

    def test_tc_inference_chunks_equal_whole_year_regrid(self, tmp_path, monkeypatch):
        """Chunked regrid + inference gives the bytes of one whole-year
        regrid and the detections of one whole-year localization."""
        model_path = tasks.ensure_tc_model(None, 16, str(tmp_path / "m"))
        steps = tasks._INFERENCE_CHUNK_STEPS + 2 * tasks.STEPS_PER_PASS + 1
        rng = np.random.default_rng(3)
        prepared = {c: (rng.standard_normal((steps, 16, 24)) * 5 + 280).astype(np.float32)
                    for c in CHANNELS}
        prepared["lat"] = np.linspace(-90 + 90 / 16, 90 - 90 / 16, 16)
        prepared["lon"] = np.arange(24) * 15.0
        seen = []
        localize = tasks.localize_in_snapshot
        monkeypatch.setattr(tasks, "localize_in_snapshot",
                            lambda m, f, lat, lon, **kw: seen.append(f)
                            or localize(m, f, lat, lon, **kw))
        detections = tasks.tc_inference(model_path, prepared, (32, 64))
        assert [f[CHANNELS[0]].shape[0] for f in seen] == [
            tasks._INFERENCE_CHUNK_STEPS, steps - tasks._INFERENCE_CHUNK_STEPS]
        dst_lat = np.linspace(-90 + 90.0 / 32, 90 - 90.0 / 32, 32)
        dst_lon = np.arange(64) * (360.0 / 64)
        whole = tasks.regrid_bilinear(
            np.stack([prepared[c] for c in CHANNELS], axis=1),
            prepared["lat"], prepared["lon"], dst_lat, dst_lon)
        for c, name in enumerate(CHANNELS):
            chunked = np.concatenate([f[name] for f in seen])
            assert chunked.tobytes() == np.ascontiguousarray(whole[:, c]).tobytes()
        model = tasks.TCLocalizer.load(model_path)
        per_step = localize(model, {n: whole[:, c] for c, n in enumerate(CHANNELS)},
                            dst_lat, dst_lon)
        assert detections == [
            {"step": step, "lat": lat, "lon": lon, "prob": prob}
            for step, hits in enumerate(per_step) for lat, lon, prob in hits
        ]

    def test_tc_deterministic_tracking_runs(self, fs):
        run_small_esm(fs, n_days=6, n_lat=32, n_lon=48)
        paths = fs.glob("esm_output", "cmcc_cm3_*.rnc")
        prepared = tasks.tc_preprocess(fs, paths, tasks.TRACK_FIELDS)
        assert set(prepared) == {"PSL", "VORT850", "WSPDSRFAV", "lat", "lon"}
        result = tasks.tc_deterministic_tracking(fs, prepared, 2030, "results")
        assert "tracks" in result
        assert fs.exists(result["path"])

    def test_ensure_tc_model_reuses_existing(self, tmp_path):
        path1 = tasks.ensure_tc_model(None, 16, str(tmp_path))
        mtime = __import__("os").path.getmtime(path1)
        path2 = tasks.ensure_tc_model(path1, 16, str(tmp_path))
        assert path1 == path2
        assert __import__("os").path.getmtime(path2) == mtime

    def test_score_against_truth_empty(self):
        assert tasks.score_against_truth([], [], 10)["n_truth"] == 0
