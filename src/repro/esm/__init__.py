"""A CMCC-CM3-like coupled Earth System Model simulator.

The paper's workflow starts from the CMCC-CM3 coupled model (CAM6
atmosphere + NEMO ocean at 1/4 degree) producing one ~20-variable NetCDF
file per simulated day.  That model needs a supercomputer; this package
provides a physically-flavoured synthetic stand-in that preserves every
property the downstream workflow interacts with:

* a regular lat-lon grid with land/sea geography,
* an atmosphere with seasonal + diurnal cycles, meridional structure,
  land-sea contrast and AR(1) synoptic weather noise,
* a slab ocean coupled through heat fluxes and SST feedback,
* greenhouse-gas scenario forcing (historical / SSP-like pathways),
* **injected extreme events with known ground truth** — heat waves, cold
  waves and tropical cyclones (moving warm-core vortices with pressure
  minima, cyclonic winds and vorticity signatures),
* daily output files with four 6-hourly timesteps and ~20 float32
  variables, written through the shared filesystem in the same
  one-file-per-day cadence the real workflow consumes.

Ground-truth event logs make detector skill measurable, which the paper's
qualitative evaluation could not do.
"""

from repro.esm.grid import Grid
from repro.esm.forcing import GHGScenario, co2_ppm, warming_offset
from repro.esm.events import (
    HeatWaveEvent,
    ColdWaveEvent,
    TropicalCycloneEvent,
    EventGenerator,
)
from repro.esm.atmosphere import Atmosphere
from repro.esm.ocean import SlabOcean
from repro.esm.coupler import Coupler
from repro.esm.model import CMCCCM3, ModelConfig, RestartState
from repro.esm.output import daily_filename, parse_daily_filename
from repro.esm.ensemble import (
    EnsembleConfig,
    build_member,
    ensemble_statistics,
    member_name,
)
from repro.esm.diagnostics import DiagnosticsError, DiagnosticsRecorder

__all__ = [
    "Grid",
    "GHGScenario",
    "co2_ppm",
    "warming_offset",
    "HeatWaveEvent",
    "ColdWaveEvent",
    "TropicalCycloneEvent",
    "EventGenerator",
    "Atmosphere",
    "SlabOcean",
    "Coupler",
    "CMCCCM3",
    "ModelConfig",
    "RestartState",
    "daily_filename",
    "parse_daily_filename",
    "EnsembleConfig",
    "build_member",
    "ensemble_statistics",
    "member_name",
    "DiagnosticsError",
    "DiagnosticsRecorder",
]
