"""Tests for ensembles and online diagnostics."""

import json

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.esm import (
    CMCCCM3,
    DiagnosticsError,
    DiagnosticsRecorder,
    EnsembleConfig,
    ModelConfig,
    build_member,
    ensemble_statistics,
    member_name,
)


def base_config(**kw):
    defaults = dict(n_lat=16, n_lon=24, seed=7)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestEnsemble:
    def test_member_names(self):
        assert member_name(0) == "r1i1p1f1"
        assert member_name(2) == "r3i1p1f1"

    def test_member_configs_differ_only_in_seed(self):
        cfg = EnsembleConfig(base_config(), n_members=3)
        c0, c1 = cfg.member_config(0), cfg.member_config(1)
        assert c0.seed != c1.seed
        assert (c0.n_lat, c0.n_lon, c0.scenario) == (c1.n_lat, c1.n_lon, c1.scenario)
        with pytest.raises(ValueError):
            cfg.member_config(5)
        with pytest.raises(ValueError):
            EnsembleConfig(base_config(), n_members=0)

    def test_members_share_forced_events(self):
        cfg = EnsembleConfig(base_config(), n_members=2)
        m0, m1 = build_member(cfg, 0), build_member(cfg, 1)
        assert m0.events.events_for_year(2030) == m1.events.events_for_year(2030)

    def test_members_have_different_weather(self):
        cfg = EnsembleConfig(base_config(), n_members=2)
        m0, m1 = build_member(cfg, 0), build_member(cfg, 1)
        _, d0 = next(m0.iter_year(2030, n_days=1))
        _, d1 = next(m1.iter_year(2030, n_days=1))
        assert not np.array_equal(d0["TREFHT"].data, d1["TREFHT"].data)

    def test_ensemble_statistics(self):
        fields = [np.full((2, 2), v) for v in (1.0, 2.0, 3.0)]
        stats = ensemble_statistics(fields)
        np.testing.assert_allclose(stats["mean"], 2.0)
        np.testing.assert_allclose(stats["spread"], np.std([1, 2, 3]))
        np.testing.assert_allclose(stats["agreement"], 1.0)
        assert stats["n_members"] == 3

    def test_ensemble_statistics_disagreement(self):
        stats = ensemble_statistics([np.array([[1.0]]), np.array([[-0.5]])])
        assert stats["agreement"][0, 0] == 0.5

    def test_ensemble_statistics_empty(self):
        with pytest.raises(ValueError):
            ensemble_statistics([])


class TestDiagnostics:
    def _run(self, n_days=3, validate=True):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid, validate=validate)
        for doy, ds in model.iter_year(2030, n_days=n_days):
            rec.record_day(doy, ds)
        return rec

    def test_records_per_day(self):
        rec = self._run(n_days=4)
        assert rec.days == [1, 2, 3, 4]
        assert len(rec.global_mean_t) == 4
        assert all(250 < t < 310 for t in rec.global_mean_t)
        assert all(900 < p < 1050 for p in rec.min_psl)

    def test_summary(self):
        rec = self._run(n_days=3)
        s = rec.summary()
        assert s["n_days"] == 3
        assert 250 < s["mean_global_t_k"] < 310
        assert s["deepest_low_hpa"] < 1050

    def test_summary_empty_raises(self):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        with pytest.raises(DiagnosticsError):
            rec.summary()

    def test_json_roundtrip(self):
        rec = self._run(n_days=2)
        payload = json.loads(rec.to_json())
        assert payload["days"] == [1, 2]
        assert "summary" in payload

    def test_validation_catches_nan(self):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        _, ds = next(model.iter_year(2030, n_days=1))
        ds["TREFHT"].data[0, 0, 0] = np.nan
        with pytest.raises(DiagnosticsError):
            rec.record_day(1, ds)

    def test_validation_catches_tmax_below_tmin(self):
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        _, ds = next(model.iter_year(2030, n_days=1))
        ds["TREFHTMX"].data[...] = ds["TREFHTMN"].data - 1.0
        with pytest.raises(DiagnosticsError):
            rec.record_day(1, ds)

    def test_run_year_persists_diagnostics(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(base_config())
        rec = DiagnosticsRecorder(model.grid)
        model.run_year(2030, fs, n_days=2, diagnostics=rec)
        payload = json.loads(fs.read_bytes("esm_output/diagnostics_2030.json"))
        assert payload["summary"]["n_days"] == 2
