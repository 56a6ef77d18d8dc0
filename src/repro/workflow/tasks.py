"""The PyCOMPSs task functions of the case study.

One function per circle colour in the paper's Figure 3.  The heat/cold
wave index tasks keep the shape of the paper's Listing 1: they receive
the Ophidia ``client``, bind it to ``cube.Cube.client`` and drive cube
operators, exporting their result as NetCDF.

All functions are plain Python when no COMPSs runtime is active, which
is how the unit tests exercise them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics import (
    detect_tc_candidates,
    link_tracks,
    regrid_bilinear,
    render_ascii_map,
    render_pgm,
    track_skill,
    validate_indices,
)
from repro.analytics.heatwaves import WaveIndices
from repro.cluster.filesystem import SharedFilesystem
from repro.compss import FILE_IN, task
from repro.esm import CMCCCM3, ModelConfig, daily_filename, parse_daily_filename
from repro.hpcwaas.federation import Federation
from repro.ml.tc_localizer import (
    CHANNELS,
    STEPS_PER_PASS,
    TCLocalizer,
    localize_in_snapshot,
)
from repro.observability import get_registry, maybe_span
from repro.ophidia import Client, Cube


# ---------------------------------------------------------------------------
# 1. ESM simulation (Figure 3, task #1)
# ---------------------------------------------------------------------------

@task(returns=1, label="CMCC-CM3")
def esm_simulation(
    fs: SharedFilesystem,
    years: Sequence[int],
    n_days: int,
    n_lat: int,
    n_lon: int,
    scenario: str,
    seed: int,
    output_dir: str,
    pace_seconds: float = 0.0,
    restart_every: int = 0,
) -> Dict[int, dict]:
    """Run the coupled model; one RNC file per simulated day.

    ``pace_seconds`` throttles production (sleep per day) so benchmarks
    can emulate the real model's cadence and expose streaming overlap.
    With ``restart_every=K``, restart files land every K days and an
    interrupted re-run resumes from the newest one instead of
    re-integrating the year from January 1st.
    """
    import time

    model = CMCCCM3(ModelConfig(
        n_lat=n_lat, n_lon=n_lon, scenario=scenario, seed=seed,
    ))
    days_written = get_registry().counter(
        "esm_days_written_total", "Simulated days written by the ESM",
        labels=("year",),
    )
    truth: Dict[int, dict] = {}
    for year in years:
        def pace(doy: int, path: str) -> None:
            days_written.inc(year=year)
            if pace_seconds:
                time.sleep(pace_seconds)

        with maybe_span(f"esm.year:{year}", layer="esm",
                        attrs={"year": year, "n_days": n_days}):
            truth[year] = model.run_year(
                year, fs, output_dir=output_dir, n_days=n_days,
                on_day_written=pace, restart_every=restart_every,
                resume=restart_every > 0,
            )
    return truth


@task(returns=1, label="write_baseline")
def write_baseline(
    fs: SharedFilesystem, n_lat: int, n_lon: int, scenario: str, seed: int,
    n_days: int, executor=None,
) -> str:
    """Stage the historical-average climatology (loaded once per run).

    With *executor* (the Ophidia server's process backend, when the run
    uses one) the independent per-day climatology fields fan out across
    worker processes; the output is byte-identical either way.
    """
    model = CMCCCM3(ModelConfig(n_lat=n_lat, n_lon=n_lon, scenario=scenario, seed=seed))
    return model.write_baseline(fs, n_days=n_days, executor=executor)


# ---------------------------------------------------------------------------
# 2. Cross-site staging (the §7 placement; absent from single-site runs)
# ---------------------------------------------------------------------------

@task(returns=1, label="dls_transfer")
def transfer_year(
    federation: Federation, day_paths: Sequence[str], year: int, staging_dir: str,
) -> List[str]:
    """Ship one year of daily files simulation-site → analytics-site.

    *day_paths* are host paths on the simulation site's filesystem (as
    collected from the file stream); returns analytics-site relative
    paths.  Being a task, the movement overlaps the still-running
    simulation exactly like the analytics does.
    """
    sim = federation.for_role("simulation")
    rel_paths = [os.path.relpath(p, sim.filesystem.root) for p in day_paths]
    return federation.dls.transfer_files(
        sim, federation.for_role("analytics"), rel_paths,
        dest_dir=f"{staging_dir}/year_{year:04d}",
    )


# ---------------------------------------------------------------------------
# 3. Data loading (Ophidia import)
# ---------------------------------------------------------------------------

@task(returns=2, label="load_year")
def load_year_cubes(
    client: Client, day_paths: Sequence[str], nfrag: int
) -> Tuple[Cube, Cube]:
    """Import the year's TMAX/TMIN into datacubes (daily maxima/minima).

    Day files carry four 6-hourly steps with the daily extreme
    replicated per step; ``reduce2`` collapses them to one value per day.
    """
    Cube.client = client
    tmax = Cube.importnc2(
        list(day_paths), measure="TREFHTMX", client=client, nfrag=nfrag,
        description="daily TMAX",
    ).reduce2("max", dim="time", group_size=4)
    tmin = Cube.importnc2(
        list(day_paths), measure="TREFHTMN", client=client, nfrag=nfrag,
        description="daily TMIN",
    ).reduce2("min", dim="time", group_size=4)
    return tmax, tmin


@task(returns=2, label="load_baseline")
def load_baseline_cubes(
    client: Client, baseline_path: str, nfrag: int, n_days: int
) -> Tuple[Cube, Cube]:
    """Import the baseline climatology cubes (TMAX/TMIN baselines)."""
    Cube.client = client
    tmax = Cube.importnc2(
        baseline_path, measure="TMAX_BASELINE", client=client, nfrag=nfrag,
        description="baseline TMAX",
    ).subset("time", 0, n_days)
    tmin = Cube.importnc2(
        baseline_path, measure="TMIN_BASELINE", client=client, nfrag=nfrag,
        description="baseline TMIN",
    ).subset("time", 0, n_days)
    return tmax, tmin


# ---------------------------------------------------------------------------
# 4. Heat/cold wave pipelines (Figure 3, tasks #5-#14; Listing 1)
# ---------------------------------------------------------------------------

@task(returns=1, label="wave_durations")
def compute_qualifying_durations(
    client: Client,
    data_cube: Cube,
    baseline_cube: Cube,
    kind: str,
    threshold_k: float,
    min_length_days: int,
) -> Cube:
    """Anomaly → exceedance mask → run lengths → qualifying durations."""
    Cube.client = client
    anomaly = data_cube.intercube(baseline_cube, "sub",
                                  description=f"{kind} anomaly")
    condition = f">={threshold_k}" if kind == "heat" else f"<=-{threshold_k}"
    mask = anomaly.apply(
        f"oph_predicate('OPH_FLOAT','OPH_INT',measure,'x','{condition}','1','0')",
        description=f"{kind} mask",
    )
    duration = mask.runlength(dim="time", description=f"{kind} durations")
    qualifying = duration.apply(
        "oph_predicate('OPH_INT','OPH_INT',measure,'x',"
        f"'>={min_length_days}','x','0')",
        description=f"{kind} qualifying durations",
    )
    for cube in (anomaly, mask, duration):
        cube.delete()
    return qualifying


@task(returns=1, label="IndexDurationMax")
def index_duration_max(client: Client, duration: Cube, filename: str,
                       output_path: str) -> Cube:
    """Maximum length of heat/cold waves in a year (paper Listing 1)."""
    Cube.client = client
    max_cube = duration.reduce(
        operation="max", dim="time", description="Max Duration cube"
    )
    max_cube.exportnc2(output_path=output_path, output_name=filename)
    return max_cube


@task(returns=1, label="IndexDurationNumber")
def index_duration_number(client: Client, duration: Cube, filename: str,
                          output_path: str) -> Cube:
    """Number of heat/cold waves in a year (paper Listing 1)."""
    Cube.client = client
    mask = duration.apply(
        "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')"
    )
    count = mask.reduce(
        operation="sum", dim="time", description="Number of durations cube"
    )
    mask.delete()
    count.exportnc2(output_path=output_path, output_name=filename)
    return count


@task(returns=1, label="IndexFrequency")
def index_frequency(client: Client, duration: Cube, n_days: int,
                    filename: str, output_path: str) -> Cube:
    """Fraction of the year spent inside qualifying waves."""
    Cube.client = client
    wave_days = duration.reduce(operation="sum", dim="time")
    freq = wave_days.apply(
        "oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',"
        f"oph_cast('OPH_INT','OPH_DOUBLE',measure),{1.0 / n_days})",
        description="Frequency cube",
    )
    # On the lazy path freq still references wave_days; force it before
    # freeing its base cube.
    freq.materialize()
    wave_days.delete()
    freq.exportnc2(output_path=output_path, output_name=filename)
    return freq


# ---------------------------------------------------------------------------
# 5. Tropical cyclones (Figure 3, tasks #15-#17)
# ---------------------------------------------------------------------------

#: The deterministic tracker's fields, all among the CNN's :data:`CHANNELS`.
TRACK_FIELDS = ("PSL", "VORT850", "WSPDSRFAV")
#: Steps :func:`tc_inference` regrids at a time, 15 forward passes: the
#: float64 regrid output stays at 3.75 MiB on a 32 x 64 grid instead of
#: a year's.  Single passes would hold less, but their small frees make
#: the allocator return memory and fault it back in on every pass.
_INFERENCE_CHUNK_STEPS = 15 * STEPS_PER_PASS


@task(returns=1, label="tc_preprocess")
def tc_preprocess(
    fs: SharedFilesystem,
    day_paths: Sequence[str],
    fields: Sequence[str] = CHANNELS,
) -> Dict[str, np.ndarray]:
    """Read the year's TC fields once, into ``(steps, lat, lon)`` stacks.

    Returns one native-grid stack per name in *fields* plus the source
    ``lat``/``lon``.  The CNN and the deterministic tracker both take
    their fields from here: the default, :data:`CHANNELS`, serves both;
    :data:`TRACK_FIELDS` serves the tracker alone.
    """
    prepared: Dict[str, np.ndarray] = {}
    step = 0
    for path in day_paths:
        ds = fs.read(path, variables=list(fields) + ["lat", "lon"])
        n = ds[fields[0]].shape[0]
        if not prepared:
            prepared = {
                c: np.empty((n * len(day_paths),) + ds[c].shape[1:], ds[c].data.dtype)
                for c in fields
            }
            prepared["lat"], prepared["lon"] = ds["lat"].data, ds["lon"].data
        for c in fields:
            prepared[c][step:step + n] = ds[c].data
        step += n
    return prepared


@task(returns=1, label="tc_inference")
def tc_inference(
    model_path: str,
    prepared: Dict[str, np.ndarray],
    target_grid: Tuple[int, int],
    threshold: float = 0.5,
) -> List[dict]:
    """Regrid the year's stacks to *target_grid*, then CNN localization
    on every 6-hourly snapshot.

    Both run :data:`_INFERENCE_CHUNK_STEPS` steps at a time, a whole
    number of forward passes, so peak memory does not grow with the
    year; the regrid is per field, so the result equals a whole-year
    regrid.
    """
    n_lat, n_lon = target_grid
    dst_lat = np.linspace(-90 + 90.0 / n_lat, 90 - 90.0 / n_lat, n_lat)
    dst_lon = np.arange(n_lon) * (360.0 / n_lon)
    model = TCLocalizer.load(model_path)
    steps = int(prepared[CHANNELS[0]].shape[0])
    found: List[dict] = []
    with maybe_span("ml.tc_inference", layer="ml",
                    attrs={"steps": steps,
                           "passes": -(-steps // STEPS_PER_PASS)}) as h:
        for start in range(0, steps, _INFERENCE_CHUNK_STEPS):
            data = regrid_bilinear(
                np.stack([prepared[c][start:start + _INFERENCE_CHUNK_STEPS]
                          for c in CHANNELS], axis=1),  # (t, C, y, x)
                prepared["lat"], prepared["lon"], dst_lat, dst_lon,
            )
            fields = {name: data[:, c] for c, name in enumerate(CHANNELS)}
            per_step = localize_in_snapshot(model, fields, dst_lat, dst_lon,
                                            threshold=threshold)
            found.extend(
                {"step": start + k, "lat": lat, "lon": lon, "prob": prob}
                for k, hits in enumerate(per_step)
                for lat, lon, prob in hits
            )
        h.set_attr("n_detections", len(found))
    return found


@task(returns=1, label="tc_georeference")
def tc_georeference(
    fs: SharedFilesystem,
    detections: List[dict],
    year: int,
    results_dir: str,
) -> str:
    """Persist geo-referenced CNN detections as JSON; returns the path."""
    path = f"{results_dir}/tc_ml_detections_{year:04d}.json"
    fs.write_bytes(path, json.dumps(detections, indent=1).encode())
    return path


@task(returns=1, label="tc_tracking")
def tc_deterministic_tracking(
    fs: SharedFilesystem,
    prepared: Dict[str, np.ndarray],
    year: int,
    results_dir: str,
) -> Dict[str, object]:
    """Classic detection + tracking scheme over the year's 6-hourly
    stacks from :func:`tc_preprocess`."""
    detections_per_step = detect_tc_candidates(
        *(prepared[name] for name in TRACK_FIELDS), prepared["lat"], prepared["lon"],
    )
    tracks = link_tracks(detections_per_step, min_track_length=4)
    payload = [
        {
            "start_step": t.start_step,
            "positions": t.positions(),
            "min_pressure": t.min_pressure,
            "max_wind": t.max_wind,
        }
        for t in tracks
    ]
    path = f"{results_dir}/tc_tracks_{year:04d}.json"
    fs.write_bytes(path, json.dumps(payload, indent=1).encode())
    return {"tracks": tracks, "path": path}


# ---------------------------------------------------------------------------
# 6. Validation, storage, maps (Figure 3 tail tasks; Figure 4)
# ---------------------------------------------------------------------------

@task(returns=1, label="validate_store")
def validate_and_store(
    fs: SharedFilesystem,
    dmax_cube: Cube,
    number_cube: Cube,
    freq_cube: Cube,
    kind: str,
    year: int,
    n_days: int,
    min_length_days: int,
    results_dir: str,
) -> Dict[str, float]:
    """Validate one year's index maps; persist a summary record."""
    indices = WaveIndices(
        duration_max=dmax_cube.to_array().astype(np.int32),
        number=number_cube.to_array().astype(np.int32),
        frequency=freq_cube.to_array().astype(np.float64),
    )
    stats = validate_indices(indices, n_days=n_days, min_length_days=min_length_days)
    fs.write_bytes(
        f"{results_dir}/{kind}_summary_{year:04d}.json",
        json.dumps(stats, indent=1).encode(),
    )
    return stats


@task(returns=1, label="make_map")
def make_map(
    fs: SharedFilesystem,
    cube_: Cube,
    title: str,
    filename: str,
    results_dir: str,
) -> str:
    """Render an index cube as ASCII + PGM (the Figure-4 artefact)."""
    field = cube_.to_array()
    fs.write_bytes(f"{results_dir}/{filename}.txt",
                   render_ascii_map(field, title=title).encode())
    fs.write_bytes(f"{results_dir}/{filename}.pgm", render_pgm(field))
    return f"{results_dir}/{filename}.pgm"


# ---------------------------------------------------------------------------
# Support: TC model provisioning and skill scoring (not workflow tasks)
# ---------------------------------------------------------------------------

def ensure_tc_model(path: Optional[str], patch: int, tmp_dir: str) -> str:
    """Return a host path to a trained TC localizer, training if needed."""
    from repro.ml import make_patch_dataset

    if path is not None and os.path.exists(path):
        return path
    target = path or os.path.join(tmp_dir, "tc_localizer.pkl")
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    with maybe_span("ml.train_tc_localizer", layer="ml",
                    attrs={"patch": patch}):
        model = TCLocalizer(patch=patch, seed=0)
        data = make_patch_dataset(n_samples=700, patch=patch, seed=1)
        model.fit(data, epochs=6, batch_size=64, lr=2e-3, seed=2)
        model.fit(data, epochs=4, batch_size=64, lr=1e-3, seed=3)
        model.save(target)
    return target


def score_against_truth(
    tracks, truth_events: List[dict], n_days_covered: int, steps_per_day: int = 4
) -> Dict[str, float]:
    """Score deterministic tracks against the model's injected TC truth."""
    covered = [
        ev for ev in truth_events
        if ev["start_doy"] + len(ev["track"]) / steps_per_day - 1 <= n_days_covered
    ]
    if not covered:
        return {"pod": float("nan"), "far": float("nan"), "n_truth": 0}
    truth_tracks = [ev["track"] for ev in covered]
    starts = [(ev["start_doy"] - 1) * steps_per_day for ev in covered]
    skill = track_skill(tracks, truth_tracks, starts, max_match_km=800.0)
    return {
        "pod": skill.pod,
        "far": skill.far,
        "n_truth": len(covered),
        "mean_center_error_km": skill.mean_center_error_km,
    }
