#!/usr/bin/env python3
"""Tropical-cyclone localization: pre-trained CNN vs deterministic tracker.

The paper's §5.4 stand-alone: simulate a TC season with the coupled
model (ground-truth storm tracks are known by construction), then

* run the deterministic tracking scheme (pressure-minimum + vorticity +
  wind criteria, nearest-neighbour stitching), and
* run the CNN localizer over regridded/tiled/scaled snapshots,

scoring both against the injected truth — the quantitative validation
the original case study could only do qualitatively.

Usage::

    python examples/tc_detection.py [--model /path/tc.pkl] [--days 20]
"""

import argparse
import tempfile

import numpy as np

from repro.analytics import detect_tc_candidates, link_tracks, regrid_bilinear, track_skill
from repro.esm import CMCCCM3, ModelConfig
from repro.ml.tc_localizer import CHANNELS, TCLocalizer, localize_in_snapshot
from repro.workflow.tasks import ensure_tc_model

GRID = (48, 96)
CNN_GRID = (96, 192)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default=None,
                        help="path to a trained localizer (trained if absent)")
    parser.add_argument("--days", type=int, default=20)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    if args.model is None:
        print("training the TC localizer on synthetic vortex patches ...")
    model_path = ensure_tc_model(args.model, 16, tempfile.gettempdir())
    tc_model = TCLocalizer.load(model_path)

    print(f"simulating a TC season on a {GRID[0]}x{GRID[1]} grid ...")
    model = CMCCCM3(ModelConfig(n_lat=GRID[0], n_lon=GRID[1], seed=args.seed))
    tcs = model.events.tropical_cyclones(2030)
    first = min(tc.start_doy for tc in tcs)
    last = min(max(tc.end_doy for tc in tcs), first + args.days - 1)
    covered = [tc for tc in tcs if tc.end_doy <= last]
    print(f"injected storms: {len(tcs)} (fully inside the window: {len(covered)})")

    rng = np.random.default_rng(0)
    noise = model.atmosphere.initial_noise(rng)
    sst = model.ocean.initialise(2030)
    dlat = 180.0 / CNN_GRID[0]
    dst_lat = np.linspace(-90 + dlat / 2, 90 - dlat / 2, CNN_GRID[0])
    dst_lon = np.arange(CNN_GRID[1]) * (360.0 / CNN_GRID[1])

    days = []
    for doy in range(first, last + 1):
        days.append(model.atmosphere.daily_fields(
            2030, doy, noise, sst, tropical_cyclones=tcs
        ))
        noise = model.atmosphere.step_noise(noise, rng)
    stacks = {c: np.concatenate([d[c] for d in days]) for c in CHANNELS}
    step = len(stacks["PSL"])

    per_step = detect_tc_candidates(
        stacks["PSL"], stacks["VORT850"], stacks["WSPDSRFAV"],
        model.grid.lat, model.grid.lon,
    )
    regridded = regrid_bilinear(
        np.stack([stacks[c] for c in CHANNELS], axis=1),
        model.grid.lat, model.grid.lon, dst_lat, dst_lon,
    )
    cnn_found = localize_in_snapshot(
        tc_model, {c: regridded[:, i] for i, c in enumerate(CHANNELS)},
        dst_lat, dst_lon,
    )

    tracks = link_tracks(per_step, min_track_length=4)
    print(f"\ndeterministic tracker: {len(tracks)} track(s)")
    for t in tracks:
        lat0, lon0 = t.positions()[0]
        print(f"  steps {t.start_step}-{t.end_step}: genesis "
              f"({lat0:+.1f}, {lon0:.1f}), min slp {t.min_pressure:.0f} hPa, "
              f"max wind {t.max_wind:.0f} m/s")

    if covered:
        skill = track_skill(
            tracks, [list(tc.track) for tc in covered],
            [(tc.start_doy - first) * 4 for tc in covered], max_match_km=800.0,
        )
        print(f"\nskill vs ground truth: POD={skill.pod:.2f} FAR={skill.far:.2f} "
              f"centre error {skill.mean_center_error_km:.0f} km")

    n_cnn = sum(len(f) for f in cnn_found)
    print(f"\nCNN localizer: {n_cnn} detections over {step} snapshots")
    sample = next((f for f in cnn_found if f), [])
    for lat, lon, prob in sample[:3]:
        print(f"  example: ({lat:+.1f}, {lon:.1f}) p={prob:.2f}")


if __name__ == "__main__":
    main()
