"""Restart-file tests: bit-identical resumption of an interrupted run."""

import numpy as np
import pytest

from repro.cluster import SharedFilesystem
from repro.esm import CMCCCM3, ModelConfig, RestartState


def config(**kw):
    defaults = dict(n_lat=16, n_lon=24, seed=13)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestRestartResume:
    def test_resume_is_bit_identical(self):
        """run(1..10) == run(1..5) + resume(6..10), field by field."""
        full = [ds for _, ds in CMCCCM3(config()).iter_year(2030, n_days=10)]

        model = CMCCCM3(config())
        state = {}
        first = [ds for _, ds in model.iter_year(2030, n_days=5,
                                                 state_out=state)]
        restart = RestartState(**state)
        assert restart.next_doy == 6

        resumed_model = CMCCCM3(config())
        resumed = [
            ds for _, ds in resumed_model.iter_year(
                2030, n_days=10, restart=restart
            )
        ]
        assert len(first) + len(resumed) == len(full)
        for ref, got in zip(full[5:], resumed):
            for name in ("TREFHT", "TREFHTMX", "PSL", "SST", "VORT850"):
                np.testing.assert_array_equal(
                    ref[name].data, got[name].data, err_msg=name
                )

    def test_resumed_days_numbering(self):
        model = CMCCCM3(config())
        state = {}
        list(model.iter_year(2030, n_days=3, state_out=state))
        days = [d for d, _ in CMCCCM3(config()).iter_year(
            2030, n_days=6, restart=RestartState(**state)
        )]
        assert days == [4, 5, 6]

    def test_wrong_year_rejected(self):
        model = CMCCCM3(config())
        state = {}
        list(model.iter_year(2030, n_days=2, state_out=state))
        restart = RestartState(**state)
        with pytest.raises(ValueError):
            list(CMCCCM3(config()).iter_year(2031, n_days=4, restart=restart))


class TestRestartFiles:
    def test_save_load_roundtrip(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(config())
        state = {}
        list(model.iter_year(2030, n_days=4, state_out=state))
        path = model.save_restart(fs, state)
        assert path == "restarts/restart_2030_005.rnc"

        loaded = CMCCCM3.load_restart(fs, path)
        np.testing.assert_array_equal(loaded.noise, state["noise"])
        np.testing.assert_array_equal(loaded.sst, state["sst"])
        assert loaded.next_doy == 5
        assert loaded.rng_state == state["rng_state"]

    def test_resume_from_file_matches_uninterrupted(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        full = [ds for _, ds in CMCCCM3(config()).iter_year(2030, n_days=8)]

        model = CMCCCM3(config())
        state = {}
        list(model.iter_year(2030, n_days=4, state_out=state))
        path = model.save_restart(fs, state)

        loaded = CMCCCM3.load_restart(fs, path)
        resumed = [
            ds for _, ds in CMCCCM3(config()).iter_year(
                2030, n_days=8, restart=loaded
            )
        ]
        np.testing.assert_array_equal(
            full[7]["TREFHT"].data, resumed[-1]["TREFHT"].data
        )

    def test_run_year_writes_periodic_restarts(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(config())
        model.run_year(2030, fs, n_days=9, restart_every=3)
        restarts = fs.glob("restarts", "restart_2030_*.rnc")
        # Saved while day K is being written, so the state resumes at K
        # (the file label is the resume day).
        assert restarts == [
            "restarts/restart_2030_003.rnc", "restarts/restart_2030_006.rnc"
        ]

    def test_run_year_resume_skips_completed_days(self, tmp_path,
                                                  fresh_registry):
        """A 'crashed' partial run resumes from the newest restart and the
        final trajectory matches an uninterrupted reference run."""
        ref_fs = SharedFilesystem(tmp_path / "ref")
        CMCCCM3(config()).run_year(2030, ref_fs, n_days=8)

        fs = SharedFilesystem(tmp_path / "crash")
        # Partial run: 5 days with a restart at day 3.
        CMCCCM3(config()).run_year(2030, fs, n_days=5, restart_every=3)
        before = fresh_registry.snapshot()
        # Resume to 8 days: integration restarts at doy 4 (the restart),
        # not at doy 1.
        CMCCCM3(config()).run_year(2030, fs, n_days=8, resume=True)
        delta = fresh_registry.snapshot().delta(before)
        resumed_days = sum(
            delta.value("fs_operations_total", fs=fs.fs_label, op=op)
            for op in ("write", "write_bytes"))
        assert resumed_days <= 8  # 5 days (4..8) + truth + slack, not 10+

        ref = ref_fs.read("esm_output/cmcc_cm3_2030_008.rnc")
        got = fs.read("esm_output/cmcc_cm3_2030_008.rnc")
        np.testing.assert_array_equal(ref["TREFHT"].data, got["TREFHT"].data)

    def test_resume_without_restarts_is_cold_start(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        model = CMCCCM3(config())
        truth = model.run_year(2030, fs, n_days=3, resume=True)
        assert len(fs.glob("esm_output", "cmcc_cm3_*.rnc")) == 3
        assert set(truth) == {"heat_waves", "cold_waves", "tropical_cyclones"}

    def test_non_restart_file_rejected(self, tmp_path):
        from repro.netcdf import Dataset

        fs = SharedFilesystem(tmp_path)
        ds = Dataset({"content": "other"})
        fs.write("x.rnc", ds)
        with pytest.raises(ValueError):
            CMCCCM3.load_restart(fs, "x.rnc")
