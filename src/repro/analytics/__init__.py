"""Climate analytics: the science algorithms of the case study.

Implements both halves of the paper's section 5:

* **Heat/cold-wave indices** (§5.3): ETCCDI-style definitions (≥6
  consecutive days beyond baseline ±5 °C) with a plain-NumPy reference
  implementation and an Ophidia-operator pipeline that mirrors the
  paper's Listing 1 — the two are cross-validated in the tests.
* **Tropical-cyclone detection and tracking** (§5.4): a deterministic
  detector (sea-level-pressure minima + vorticity + wind criteria)
  with greedy nearest-neighbour track stitching, plus the
  pre-processing the ML pipeline shares (regridding, tiling into
  non-overlapping patches, feature scaling, geo-referencing).
* Support: ETCCDI percentile baselines, output validation, and
  ASCII/PGM map rendering (the Figure-4 artefact, sans matplotlib).
"""

from repro.analytics.heatwaves import (
    WaveIndices,
    wave_exceedance_mask,
    wave_durations,
    compute_wave_indices,
    compute_heatwave_indices,
    compute_percentile_wave_indices,
    ophidia_wave_pipeline,
)
from repro.analytics.climatology import percentile_baseline
from repro.analytics.tc_tracking import (
    Detection,
    Track,
    detect_tc_candidates,
    link_tracks,
    track_skill,
    TrackSkill,
)
from repro.analytics.regrid import regrid_bilinear
from repro.analytics.tiling import (
    tile_patches,
    scale_features,
    patch_center_latlon,
)
from repro.analytics.maps import render_ascii_map, render_pgm
from repro.analytics.report import generate_report
from repro.analytics.validation import validate_indices, ValidationError

__all__ = [
    "WaveIndices",
    "wave_exceedance_mask",
    "wave_durations",
    "compute_wave_indices",
    "compute_heatwave_indices",
    "ophidia_wave_pipeline",
    "compute_percentile_wave_indices",
    "percentile_baseline",
    "Detection",
    "Track",
    "detect_tc_candidates",
    "link_tracks",
    "track_skill",
    "TrackSkill",
    "regrid_bilinear",
    "tile_patches",
    "scale_features",
    "patch_center_latlon",
    "render_ascii_map",
    "render_pgm",
    "generate_report",
    "validate_indices",
    "ValidationError",
]
