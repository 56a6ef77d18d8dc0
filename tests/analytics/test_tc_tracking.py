"""Deterministic TC detection and tracking tests."""

import numpy as np
import pytest

from repro.analytics import (
    Detection,
    Track,
    detect_tc_candidates,
    link_tracks,
    track_skill,
)
from repro.analytics import tc_tracking
from repro.esm import CMCCCM3, Grid, ModelConfig, TropicalCycloneEvent
from repro.stencil import maximum_filter, minimum_filter


def make_snapshot(grid, centers, deficit=60.0, vmax=35.0):
    """Synthetic PSL/vorticity/wind fields with idealised cyclones."""
    psl = np.full(grid.shape, 1013.0)
    vort = np.zeros(grid.shape)
    wspd = np.full(grid.shape, 5.0)
    for clat, clon in centers:
        r = grid.distance_field_km(clat, clon)
        psl -= deficit * np.exp(-((r / 300.0) ** 2))
        sign = 1.0 if clat >= 0 else -1.0
        vort += sign * 3e-4 * np.exp(-((r / 300.0) ** 2))
        wspd += vmax * np.exp(-((r / 400.0) ** 2))
    return psl, vort, wspd


@pytest.fixture(scope="module")
def grid():
    return Grid(48, 72)


class TestDetection:
    def test_detects_single_cyclone(self, grid):
        psl, vort, wspd = make_snapshot(grid, [(15.0, 180.0)])
        dets = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert len(dets) == 1
        d = dets[0]
        assert abs(d.lat - 15.0) < 5.0
        assert abs((d.lon - 180.0 + 180) % 360 - 180) < 6.0
        assert d.min_pressure < 1000.0

    def test_southern_hemisphere_sign(self, grid):
        psl, vort, wspd = make_snapshot(grid, [(-15.0, 60.0)])
        dets = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert len(dets) == 1
        assert dets[0].vorticity < 0  # cyclonic in SH is negative

    def test_wrong_sign_vorticity_rejected(self, grid):
        psl, vort, wspd = make_snapshot(grid, [(15.0, 180.0)])
        dets = detect_tc_candidates(psl, -vort, wspd, grid.lat, grid.lon)
        assert dets == []

    def test_quiet_field_no_detections(self, grid):
        psl = np.full(grid.shape, 1013.0)
        dets = detect_tc_candidates(
            psl, np.zeros(grid.shape), np.full(grid.shape, 5.0),
            grid.lat, grid.lon,
        )
        assert dets == []

    def test_weak_low_rejected(self, grid):
        psl, vort, wspd = make_snapshot(grid, [(15.0, 180.0)], deficit=8.0, vmax=5.0)
        dets = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert dets == []

    def test_extratropical_low_rejected(self, grid):
        psl, vort, wspd = make_snapshot(grid, [(65.0, 180.0)])
        dets = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert dets == []

    def test_two_cyclones(self, grid):
        psl, vort, wspd = make_snapshot(grid, [(15.0, 60.0), (-12.0, 240.0)])
        dets = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert len(dets) == 2

    def test_duplicate_suppression(self, grid):
        # Two lows 300km apart: only the deepest survives.
        psl, vort, wspd = make_snapshot(grid, [(15.0, 180.0), (16.0, 182.0)])
        dets = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert len(dets) == 1

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            detect_tc_candidates(
                np.zeros(5), np.zeros(5), np.zeros(5), grid.lat, grid.lon
            )
        with pytest.raises(ValueError):
            detect_tc_candidates(
                np.zeros(grid.shape), np.zeros((2, 2)), np.zeros(grid.shape),
                grid.lat, grid.lon,
            )


def det(step, lat, lon, p=980.0):
    return Detection(step, lat, lon, p, 30.0, 2e-4)


class TestLinking:
    def test_single_track_linked(self):
        steps = [[det(s, 12.0 + 0.4 * s, 180.0 - 0.8 * s)] for s in range(6)]
        tracks = link_tracks(steps, min_track_length=4)
        assert len(tracks) == 1
        assert tracks[0].length == 6
        assert tracks[0].start_step == 0
        assert tracks[0].end_step == 5

    def test_short_tracks_discarded(self):
        steps = [[det(0, 12.0, 180.0)], [det(1, 12.3, 179.5)], [], [], []]
        assert link_tracks(steps, min_track_length=4) == []

    def test_gap_bridging(self):
        steps = [
            [det(0, 12.0, 180.0)], [det(1, 12.4, 179.2)], [],
            [det(3, 13.2, 177.6)], [det(4, 13.6, 176.8)],
        ]
        tracks = link_tracks(steps, min_track_length=4, max_gap_steps=1)
        assert len(tracks) == 1
        assert tracks[0].length == 4

    def test_distant_detection_starts_new_track(self):
        steps = [
            [det(s, 12.0, 180.0 - 0.5 * s), det(s, -15.0, 60.0 + 0.5 * s)]
            for s in range(5)
        ]
        tracks = link_tracks(steps, min_track_length=4)
        assert len(tracks) == 2

    def test_track_properties(self):
        t = Track([det(0, 10, 180, 990.0), det(1, 11, 179, 975.0)])
        assert t.min_pressure == 975.0
        assert t.max_wind == 30.0
        assert t.positions() == [(10, 180), (11, 179)]


class TestSkill:
    def test_perfect_detection(self):
        truth = [[(12.0 + 0.4 * s, 180.0 - 0.8 * s) for s in range(6)]]
        tracks = [Track([det(s, *truth[0][s]) for s in range(6)])]
        skill = track_skill(tracks, truth, [0])
        assert skill.hits == 1 and skill.misses == 0 and skill.false_alarms == 0
        assert skill.pod == 1.0 and skill.far == 0.0
        assert skill.mean_center_error_km == pytest.approx(0.0)

    def test_miss_and_false_alarm(self):
        truth = [[(12.0, 180.0 - s) for s in range(5)]]
        bogus = Track([det(s, -40.0, 20.0 + s) for s in range(5)])
        skill = track_skill([bogus], truth, [0])
        assert skill.misses == 1
        assert skill.false_alarms == 1
        assert skill.pod == 0.0

    def test_time_misaligned_track_does_not_match(self):
        truth = [[(12.0, 180.0 - s) for s in range(5)]]
        shifted = Track([det(s + 30, 12.0, 180.0 - s) for s in range(5)])
        skill = track_skill([shifted], truth, [0])
        assert skill.hits == 0

    def test_one_to_one_matching(self):
        truth = [[(12.0, 180.0 - s) for s in range(5)]]
        t1 = Track([det(s, 12.0, 180.0 - s) for s in range(5)])
        t2 = Track([det(s, 12.5, 180.5 - s) for s in range(5)])
        skill = track_skill([t1, t2], truth, [0])
        assert skill.hits == 1
        assert skill.false_alarms == 1


class TestEndToEndOnESM:
    def test_detects_injected_tcs_in_simulation(self):
        """Full chain: model output fields → detector → tracker → skill."""
        config = ModelConfig(n_lat=48, n_lon=72, seed=21)
        model = CMCCCM3(config)
        truth_tcs = model.events.tropical_cyclones(2030)
        assert truth_tcs, "seed must generate at least one TC"

        detections_per_step = []
        step = 0
        days = range(
            min(tc.start_doy for tc in truth_tcs),
            max(tc.end_doy for tc in truth_tcs) + 1,
        )
        day_list = list(days)[:20]  # bound runtime
        rng = np.random.default_rng(0)
        noise = model.atmosphere.initial_noise(rng)
        sst = model.ocean.initialise(2030)
        first_step_of_day = {}
        for doy in day_list:
            fields = model.atmosphere.daily_fields(
                2030, doy, noise, sst, tropical_cyclones=truth_tcs
            )
            first_step_of_day[doy] = step
            for s in range(4):
                dets = detect_tc_candidates(
                    fields["PSL"][s], fields["VORT850"][s],
                    fields["WSPDSRFAV"][s], model.grid.lat, model.grid.lon,
                    step=step,
                )
                detections_per_step.append(dets)
                step += 1
            noise = model.atmosphere.step_noise(noise, rng)

        tracks = link_tracks(detections_per_step, min_track_length=4)
        assert tracks, "tracker found no storms despite injected TCs"

        covered = [
            tc for tc in truth_tcs
            if tc.start_doy in first_step_of_day and tc.end_doy in first_step_of_day
        ]
        truth_tracks = [list(tc.track) for tc in covered]
        starts = [first_step_of_day[tc.start_doy] for tc in covered]
        if covered:
            skill = track_skill(tracks, truth_tracks, starts, max_match_km=800.0)
            assert skill.pod >= 0.5  # majority of fully-covered storms found


# ---------------------------------------------------------------------------
# Oracle: the per-step scheme with a scalar haversine per pair, as it ran
# before detection, suppression and linking worked on arrays.
# ---------------------------------------------------------------------------

def _oracle_haversine_km(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dphi = p2 - p1
    dlmb = np.deg2rad(lon2 - lon1)
    a = np.sin(dphi / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2) ** 2
    return float(2 * 6371.0 * np.arcsin(np.sqrt(np.clip(a, 0, 1))))


def _oracle_suppress(detections, min_separation_km=600.0):
    kept = []
    for d in sorted(detections, key=lambda d: d.min_pressure):
        if all(_oracle_haversine_km(d.lat, d.lon, k.lat, k.lon) >= min_separation_km
               for k in kept):
            kept.append(d)
    return kept


def _oracle_detect(psl, vort, wind_speed, lat, lon, step):
    modes = ("nearest", "wrap")
    local_min = minimum_filter(psl, 3, mode=modes)
    wind_max = maximum_filter(wind_speed, 3, mode=modes)
    lat2d = np.broadcast_to(np.asarray(lat)[:, None], psl.shape)
    cyclonic_sign = np.where(lat2d >= 0, 1.0, -1.0)
    signed_ok = maximum_filter(vort * cyclonic_sign, 3, mode=modes) >= 1.5e-5
    candidate = ((psl == local_min) & (psl <= 1000.0) & signed_ok
                 & (wind_max >= 13.0) & (np.abs(lat2d) <= 45.0))
    return _oracle_suppress([
        Detection(step, float(lat[i]), float(lon[j]), float(psl[i, j]),
                  float(wind_max[i, j]), float(vort[i, j]))
        for i, j in np.argwhere(candidate)
    ])


def _oracle_link(detections_per_step, max_travel_km_per_step=400.0,
                 min_track_length=4, max_gap_steps=1):
    live, finished = [], []
    for step_dets in detections_per_step:
        remaining = list(step_dets)
        claimed = []
        pairs = []
        for track in live:
            last = track.detections[-1]
            for d in remaining:
                gap = d.step - last.step
                if gap < 1 or gap > max_gap_steps + 1:
                    continue
                dist = _oracle_haversine_km(last.lat, last.lon, d.lat, d.lon)
                if dist <= max_travel_km_per_step * gap:
                    pairs.append((dist, track, d))
        used_tracks, used_dets = set(), set()
        for _, track, d in sorted(pairs, key=lambda p: p[0]):
            if id(track) in used_tracks or id(d) in used_dets:
                continue
            track.detections.append(d)
            used_tracks.add(id(track))
            used_dets.add(id(d))
            claimed.append(track)
        remaining = [d for d in remaining if id(d) not in used_dets]
        current_step = step_dets[0].step if step_dets else None
        still_live = []
        for track in live:
            if track in claimed:
                still_live.append(track)
            elif current_step is not None and current_step - track.end_step > max_gap_steps:
                finished.append(track)
            else:
                still_live.append(track)
        live = still_live
        live.extend(Track([d]) for d in remaining)
    finished.extend(live)
    return [t for t in finished if t.length >= min_track_length]


def _oracle_skill(tracks, truth_tracks, truth_start_steps, max_match_km=500.0,
                  min_overlap_steps=2):
    candidates = []
    for ti, (truth, t0) in enumerate(zip(truth_tracks, truth_start_steps)):
        truth_by_step = {t0 + s: pos for s, pos in enumerate(truth)}
        for di, track in enumerate(tracks):
            dists = []
            for d in track.detections:
                pos = truth_by_step.get(d.step)
                if pos is None:
                    continue
                dist = _oracle_haversine_km(d.lat, d.lon, pos[0], pos[1])
                if dist <= max_match_km:
                    dists.append(dist)
            if len(dists) >= min_overlap_steps:
                candidates.append((float(np.mean(dists)), ti, di))
    matched_truth, matched_det, errors = set(), set(), []
    for err, ti, di in sorted(candidates):
        if ti in matched_truth or di in matched_det:
            continue
        matched_truth.add(ti)
        matched_det.add(di)
        errors.append(err)
    return tc_tracking.TrackSkill(
        len(matched_truth), len(truth_tracks) - len(matched_truth),
        len(tracks) - len(matched_det),
        float(np.mean(errors)) if errors else float("nan"))


def _oracle_per_step(psl, vort, wspd, lat, lon):
    return [_oracle_detect(psl[s], vort[s], wspd[s], lat, lon, s)
            for s in range(len(psl))]


def _tracks(tracks):
    return [t.detections for t in tracks]


@pytest.fixture(scope="module")
def season():
    """Twenty days of six-hourly model fields through an injected TC
    season: ``(steps, lat, lon)`` stacks of PSL, VORT850, WSPDSRFAV."""
    model = CMCCCM3(ModelConfig(n_lat=48, n_lon=72, seed=21))
    tcs = model.events.tropical_cyclones(2030)
    first = min(tc.start_doy for tc in tcs)
    rng = np.random.default_rng(0)
    noise = model.atmosphere.initial_noise(rng)
    sst = model.ocean.initialise(2030)
    days = []
    for doy in range(first, first + 20):
        days.append(model.atmosphere.daily_fields(
            2030, doy, noise, sst, tropical_cyclones=tcs))
        noise = model.atmosphere.step_noise(noise, rng)
    stacks = [np.concatenate([d[name] for d in days])
              for name in ("PSL", "VORT850", "WSPDSRFAV")]
    return stacks, model.grid.lat, model.grid.lon


class TestStackMatchesPerStepOracle:
    """The stack path must reproduce the per-step scheme exactly, on
    output that is not empty."""

    def test_season_detections_and_tracks(self, season):
        (psl, vort, wspd), lat, lon = season
        expected = _oracle_per_step(psl, vort, wspd, lat, lon)
        got = detect_tc_candidates(psl, vort, wspd, lat, lon)
        assert sum(map(len, expected)) > 0
        assert got == expected
        tracks = link_tracks(got, min_track_length=4)
        assert len(tracks) >= 1
        assert _tracks(tracks) == _tracks(_oracle_link(expected, min_track_length=4))

    def test_equal_pressure_minima(self, grid):
        """Plateau minima and equally deep lows: suppression keeps the
        first of equals in scan order, in both paths."""
        steps = []
        for s in range(6):
            psl, vort, wspd = make_snapshot(
                grid, [(12.0, 100.0), (12.0, 110.0), (-14.0, 250.0 - 2 * s)],
                deficit=60.0 - s)
            i, j = np.unravel_index(np.argmin(psl), psl.shape)
            psl[i, (j + 1) % psl.shape[1]] = psl[i, j]       # a flat bottom
            psl[psl.shape[0] - 1 - i, j] = psl[i, j]         # an equal twin
            steps.append((psl, vort, wspd))
        psl, vort, wspd = (np.stack(a) for a in zip(*steps))
        expected = _oracle_per_step(psl, vort, wspd, grid.lat, grid.lon)
        got = detect_tc_candidates(psl, vort, wspd, grid.lat, grid.lon)
        assert all(expected)
        assert got == expected
        assert (_tracks(link_tracks(got))
                == _tracks(_oracle_link(expected)))
        assert link_tracks(got)

    def test_linking_ties_and_gaps(self):
        """Detections on a coarse lattice, so equal distances and
        equal-distance claims are common; gaps open and close tracks."""
        rng = np.random.default_rng(11)
        per_step = []
        for s in range(80):
            n = int(rng.integers(0, 5))
            per_step.append([
                det(s, float(rng.integers(-8, 9)) * 1.5,
                    float(rng.integers(0, 12)) * 1.5 + 170.0,
                    float(rng.integers(990, 995)))
                for _ in range(n)
            ])
        tracks = link_tracks(per_step, min_track_length=3)
        assert len(tracks) >= 1
        assert _tracks(tracks) == _tracks(_oracle_link(per_step, min_track_length=3))

    def test_suppression_ties(self):
        dets = [det(0, 10.0, 180.0 + 2.0 * k, 990.0 + (k % 2)) for k in range(8)]
        assert tc_tracking._suppress_duplicates(dets) == _oracle_suppress(dets)

    def test_skill_matches_scalar_distances(self, season):
        (psl, vort, wspd), lat, lon = season
        tracks = link_tracks(detect_tc_candidates(psl, vort, wspd, lat, lon))
        truth = [[(d.lat + 1.0, d.lon - 1.5) for d in t.detections] for t in tracks]
        starts = [t.start_step + k % 3 for k, t in enumerate(tracks)]
        skill = track_skill(tracks, truth, starts, max_match_km=800.0)
        assert skill.hits >= 1
        assert skill == _oracle_skill(tracks, truth, starts, max_match_km=800.0)

    def test_stack_makes_three_stencil_calls(self, season, monkeypatch):
        (psl, vort, wspd), lat, lon = season
        calls = []
        for name in ("minimum_filter", "maximum_filter"):
            f = getattr(tc_tracking, name)
            monkeypatch.setattr(tc_tracking, name,
                                lambda *a, _f=f, **k: calls.append(1) or _f(*a, **k))
        per_step = detect_tc_candidates(psl, vort, wspd, lat, lon, step=40)
        assert len(calls) == 3
        assert len(per_step) == len(psl) == 80
        assert [d.step for dets in per_step for d in dets] == sorted(
            40 + s for s, dets in enumerate(per_step) for _ in dets)

    def test_snapshot_is_a_one_step_stack(self, season):
        (psl, vort, wspd), lat, lon = season
        s = next(k for k in range(len(psl)) if _oracle_detect(
            psl[k], vort[k], wspd[k], lat, lon, k))
        assert detect_tc_candidates(psl[s], vort[s], wspd[s], lat, lon, step=s) == \
            detect_tc_candidates(psl[s:s + 1], vort[s:s + 1], wspd[s:s + 1], lat, lon,
                                 step=s)[0]

    def test_distance_matrix_equals_scalar_formula_bitwise(self):
        """Every threshold and tie decision sees the distances the scalar
        formula gave (``x * x`` would round some squares differently)."""
        rng = np.random.default_rng(3)
        lat = np.round(rng.uniform(-60, 60, 200) * 4) / 4
        lon = rng.uniform(0, 360, 200)
        matrix = tc_tracking._great_circle_km(lat[:, None], lon[:, None], lat, lon)
        expected = [[_oracle_haversine_km(a, b, c, d) for c, d in zip(lat, lon)]
                    for a, b in zip(lat, lon)]
        assert matrix.tolist() == expected

    def test_no_scalar_haversine_left(self):
        assert not hasattr(tc_tracking, "_haversine_km")
