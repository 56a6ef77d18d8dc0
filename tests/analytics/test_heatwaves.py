"""Heat/cold-wave indices: reference implementation + Ophidia pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    compute_heatwave_indices,
    compute_wave_indices,
    ophidia_wave_pipeline,
    validate_indices,
    wave_durations,
    wave_exceedance_mask,
)
from repro.ophidia import Client, Cube, OphidiaServer


def synthetic_year(n_days=60, n_lat=4, n_lon=5, waves=()):
    """Baseline-flat year with rectangular exceedance episodes injected.

    *waves*: (start_day0, length, i, j, amplitude) tuples.
    """
    baseline = np.full((n_days, n_lat, n_lon), 300.0)
    daily = baseline.copy()
    for start, length, i, j, amp in waves:
        daily[start:start + length, i, j] += amp
    return daily, baseline


class TestMaskAndDurations:
    def test_mask_heat_and_cold(self):
        daily, baseline = synthetic_year(waves=[(10, 7, 1, 1, 6.0)])
        hot = wave_exceedance_mask(daily, baseline, 5.0, "heat")
        assert hot[10:17, 1, 1].all()
        assert not hot[9, 1, 1] and not hot[17, 1, 1]
        cold = wave_exceedance_mask(daily - 12.0, baseline, 5.0, "cold")
        assert cold.all()

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            wave_exceedance_mask(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            wave_exceedance_mask(np.zeros((2, 2)), np.zeros((2, 2)), -1.0)
        with pytest.raises(ValueError):
            wave_exceedance_mask(np.zeros((2, 2)), np.zeros((2, 2)), kind="warm")

    def test_durations_at_run_ends(self):
        mask = np.zeros((10, 1, 1), dtype=bool)
        mask[2:5, 0, 0] = True
        mask[7:10, 0, 0] = True
        dur = wave_durations(mask)
        assert dur[4, 0, 0] == 3
        assert dur[9, 0, 0] == 3
        assert dur.sum() == 6


class TestReferenceIndices:
    def test_single_qualifying_wave(self):
        daily, baseline = synthetic_year(waves=[(10, 8, 1, 2, 7.0)])
        idx = compute_heatwave_indices(daily, baseline)
        assert idx.duration_max[1, 2] == 8
        assert idx.number[1, 2] == 1
        assert idx.frequency[1, 2] == pytest.approx(8 / 60)
        assert idx.duration_max.sum() == 8  # nowhere else

    def test_short_wave_excluded(self):
        daily, baseline = synthetic_year(waves=[(10, 5, 1, 1, 9.0)])
        idx = compute_heatwave_indices(daily, baseline)
        assert idx.duration_max[1, 1] == 0
        assert idx.number[1, 1] == 0

    def test_multiple_waves_counted(self):
        daily, baseline = synthetic_year(
            n_days=80, waves=[(5, 6, 0, 0, 8.0), (30, 10, 0, 0, 8.0), (60, 6, 0, 0, 8.0)]
        )
        idx = compute_heatwave_indices(daily, baseline)
        assert idx.number[0, 0] == 3
        assert idx.duration_max[0, 0] == 10
        assert idx.frequency[0, 0] == pytest.approx(22 / 80)

    def test_exactly_threshold_counts(self):
        daily, baseline = synthetic_year(waves=[(0, 6, 0, 0, 5.0)])
        idx = compute_heatwave_indices(daily, baseline)
        assert idx.number[0, 0] == 1  # >= baseline + 5 inclusive

    def test_cold_wave_mirror(self):
        daily, baseline = synthetic_year(waves=[(10, 7, 2, 3, -9.0)])
        idx = compute_wave_indices(daily, baseline, kind="cold")
        assert idx.number[2, 3] == 1
        assert idx.duration_max[2, 3] == 7
        hot = compute_heatwave_indices(daily, baseline)
        assert hot.number.sum() == 0

    def test_wave_spanning_year_end_counts_once(self):
        daily, baseline = synthetic_year(n_days=30, waves=[(24, 6, 0, 0, 8.0)])
        idx = compute_heatwave_indices(daily, baseline)
        assert idx.number[0, 0] == 1
        assert idx.duration_max[0, 0] == 6

    def test_min_length_validation(self):
        daily, baseline = synthetic_year()
        with pytest.raises(ValueError):
            compute_wave_indices(daily, baseline, min_length_days=0)

    def test_validation_passes_on_real_output(self):
        daily, baseline = synthetic_year(waves=[(10, 8, 1, 2, 7.0)])
        idx = compute_heatwave_indices(daily, baseline)
        stats = validate_indices(idx, n_days=60)
        assert stats["max_duration_days"] == 8


class TestOphidiaPipelineEquivalence:
    @pytest.fixture
    def client(self):
        with OphidiaServer(n_io_servers=2, n_cores=2) as server:
            yield Client(server)

    def _to_cubes(self, daily, baseline, client, nfrag=3):
        data_cube = Cube.from_array(
            daily.astype(np.float32), ["time", "lat", "lon"], client=client,
            fragment_dim="lat", nfrag=nfrag, measure="TREFHTMX",
        )
        base_cube = Cube.from_array(
            baseline.astype(np.float32), ["time", "lat", "lon"], client=client,
            fragment_dim="lat", nfrag=nfrag, measure="TMAX_BASELINE",
        )
        return data_cube, base_cube

    def test_pipeline_matches_reference(self, client):
        daily, baseline = synthetic_year(
            n_days=80,
            waves=[(5, 6, 0, 0, 8.0), (30, 10, 0, 0, 8.0), (12, 7, 2, 3, 6.0),
                   (40, 4, 1, 1, 9.0)],  # last one too short
        )
        data_cube, base_cube = self._to_cubes(daily, baseline, client)
        dmax, num, freq = ophidia_wave_pipeline(data_cube, base_cube, kind="heat")
        ref = compute_heatwave_indices(daily, baseline)
        np.testing.assert_array_equal(dmax.to_array(), ref.duration_max)
        np.testing.assert_array_equal(num.to_array(), ref.number)
        np.testing.assert_allclose(freq.to_array(), ref.frequency, atol=1e-9)

    def test_cold_pipeline_matches_reference(self, client):
        daily, baseline = synthetic_year(
            n_days=60, waves=[(10, 8, 1, 2, -7.0), (30, 6, 3, 4, -5.5)]
        )
        data_cube, base_cube = self._to_cubes(daily, baseline, client)
        dmax, num, freq = ophidia_wave_pipeline(data_cube, base_cube, kind="cold")
        ref = compute_wave_indices(daily, baseline, kind="cold")
        np.testing.assert_array_equal(dmax.to_array(), ref.duration_max)
        np.testing.assert_array_equal(num.to_array(), ref.number)
        np.testing.assert_allclose(freq.to_array(), ref.frequency, atol=1e-9)

    def test_pipeline_frees_intermediates(self, client):
        daily, baseline = synthetic_year()
        data_cube, base_cube = self._to_cubes(daily, baseline, client)
        resident_before = client.server.pool.n_fragments
        dmax, num, freq = ophidia_wave_pipeline(data_cube, base_cube)
        resident_after = client.server.pool.n_fragments
        # inputs + the three results; all intermediates freed
        assert resident_after == resident_before + dmax.nfrag + num.nfrag + freq.nfrag

    def test_pipeline_exports(self, tmp_path):
        from repro.cluster import SharedFilesystem

        fs = SharedFilesystem(tmp_path)
        with OphidiaServer(2, 2, filesystem=fs) as server:
            client = Client(server)
            daily, baseline = synthetic_year(waves=[(10, 8, 1, 2, 7.0)])
            data_cube, base_cube = self._to_cubes(daily, baseline, client)
            ophidia_wave_pipeline(
                data_cube, base_cube, export_path="out", name_prefix="hw2030"
            )
            for suffix in ("duration_max", "number", "frequency"):
                assert fs.exists(f"out/hw2030_{suffix}.rnc")

    def test_bad_kind_rejected(self, client):
        daily, baseline = synthetic_year()
        data_cube, base_cube = self._to_cubes(daily, baseline, client)
        with pytest.raises(ValueError):
            ophidia_wave_pipeline(data_cube, base_cube, kind="tepid")


@st.composite
def random_years(draw):
    n_days = draw(st.integers(10, 50))
    n_cells = draw(st.integers(1, 4))
    anomalies = draw(
        st.lists(
            st.floats(-12, 12, allow_nan=False), min_size=n_days * n_cells,
            max_size=n_days * n_cells,
        )
    )
    return np.array(anomalies).reshape(n_days, n_cells, 1)


class TestIndexProperties:
    @given(random_years())
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, anomaly):
        n_days = anomaly.shape[0]
        baseline = np.full(anomaly.shape, 290.0)
        idx = compute_heatwave_indices(baseline + anomaly, baseline,
                                       min_length_days=3)
        validate_indices(idx, n_days=n_days, min_length_days=3)
        # Frequency bounded by duration_max when only one wave exists.
        assert np.all(
            idx.frequency * n_days >= idx.duration_max * (idx.number > 0) - 1e-9
        )

    @given(random_years())
    @settings(max_examples=30, deadline=None)
    def test_heat_cold_symmetry(self, anomaly):
        baseline = np.full(anomaly.shape, 290.0)
        heat = compute_heatwave_indices(baseline + anomaly, baseline)
        cold = compute_wave_indices(baseline - anomaly, baseline, kind="cold")
        np.testing.assert_array_equal(heat.duration_max, cold.duration_max)
        np.testing.assert_array_equal(heat.number, cold.number)
