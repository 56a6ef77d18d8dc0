"""The CMCC-CM3 model driver: the coupled daily integration loop.

``run_year`` integrates one simulated year day by day — atmosphere and
slab ocean exchanging through the coupler — and writes one RNC file per
day through a :class:`~repro.cluster.filesystem.SharedFilesystem`,
exactly the production pattern the workflow's streaming monitor watches.
Ground-truth events for each year are returned (and optionally persisted
as JSON) for detector validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.filesystem import SharedFilesystem
from repro.esm.atmosphere import Atmosphere
from repro.esm.coupler import Coupler
from repro.esm.events import EventGenerator
from repro.esm.forcing import GHGScenario
from repro.esm.grid import Grid
from repro.esm.ocean import SlabOcean
from repro.esm.output import build_daily_dataset, daily_filename
from repro.netcdf import Dataset
from repro.netcdf.cf import DAYS_PER_YEAR


@dataclass
class RestartState:
    """Mid-run model state: everything needed to resume bit-identically.

    Real ESMs write restart files because multi-decade runs exceed any
    queue limit; resuming must reproduce the uninterrupted trajectory
    exactly.  The state is the prognostic fields (SST, AR(1) noise) plus
    the RNG's bit-generator state.
    """

    year: int
    next_doy: int
    noise: "np.ndarray"
    sst: "np.ndarray"
    rng_state: dict


@dataclass(frozen=True)
class ModelConfig:
    """Run configuration for the simulated CMCC-CM3.

    The defaults target unit-test scale; benchmarks override ``n_lat`` /
    ``n_lon`` upward.  The paper's production grid is 768x1152.
    """

    n_lat: int = 24
    n_lon: int = 36
    steps_per_day: int = 4
    scenario: GHGScenario = GHGScenario.SSP245
    seed: int = 42
    start_year: int = 2030
    with_events: bool = True

    def __post_init__(self) -> None:
        if self.steps_per_day < 1:
            raise ValueError("steps_per_day must be >= 1")


class CMCCCM3:
    """The coupled model: grid + atmosphere + ocean + coupler + events."""

    def __init__(self, config: Optional[ModelConfig] = None) -> None:
        self.config = config or ModelConfig()
        scenario = GHGScenario.coerce(self.config.scenario)
        self.grid = Grid(self.config.n_lat, self.config.n_lon)
        self.atmosphere = Atmosphere(
            self.grid, scenario, steps_per_day=self.config.steps_per_day
        )
        self.ocean = SlabOcean(self.grid, scenario)
        self.coupler = Coupler(self.grid)
        self.events = EventGenerator(
            self.grid, seed=self.config.seed,
            steps_per_day=self.config.steps_per_day,
        )
        self._events: Dict[int, Dict[str, list]] = {}

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------

    def iter_year(
        self,
        year: int,
        n_days: int = DAYS_PER_YEAR,
        restart: Optional[RestartState] = None,
        state_out: Optional[Dict] = None,
    ) -> Iterator[Tuple[int, Dataset]]:
        """Yield ``(doy, daily dataset)`` for *n_days* of *year*.

        With *restart*, integration resumes at ``restart.next_doy`` with
        the saved prognostic state, reproducing the uninterrupted
        trajectory bit-for-bit.  When *state_out* is given, it is updated
        in place after every day with the :class:`RestartState` fields,
        ready for :meth:`save_restart`.
        """
        cfg = self.config
        if restart is not None:
            if restart.year != year:
                raise ValueError(
                    f"restart is for year {restart.year}, requested {year}"
                )
            rng = np.random.default_rng()
            rng.bit_generator.state = restart.rng_state
            noise = np.array(restart.noise, dtype=np.float64)
            sst = np.array(restart.sst, dtype=np.float64)
            self.ocean.sst = sst
            start_doy = restart.next_doy
        else:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, year, 7]))
            noise = self.atmosphere.initial_noise(rng)
            sst = self.ocean.initialise(year)
            start_doy = 1
        year_events = self._year_events(year)
        for doy in range(start_doy, n_days + 1):
            fields = self.atmosphere.daily_fields(
                year, doy, noise, sst,
                heat_waves=year_events["heat_waves"],
                cold_waves=year_events["cold_waves"],
                tropical_cyclones=year_events["tropical_cyclones"],
            )
            ds = build_daily_dataset(
                self.grid, year, doy, fields, cfg.steps_per_day,
                GHGScenario.coerce(cfg.scenario).value,
            )
            yield doy, ds
            # Couple for the next day.
            t2m_mean = fields["TREFHT"].mean(axis=0).astype(np.float64)
            wind = fields["WSPDSRFAV"].mean(axis=0).astype(np.float64)
            flux = self.coupler.atmosphere_to_ocean(t2m_mean, wind, sst)
            sst = self.ocean.step(year, doy + 1, flux)
            noise = self.atmosphere.step_noise(noise, rng)
            if state_out is not None:
                state_out.update(
                    year=year, next_doy=doy + 1, noise=noise.copy(),
                    sst=sst.copy(), rng_state=rng.bit_generator.state,
                )

    def run_year(
        self,
        year: int,
        filesystem: SharedFilesystem,
        output_dir: str = "esm_output",
        n_days: int = DAYS_PER_YEAR,
        on_day_written: Optional[Callable[[int, str], None]] = None,
        diagnostics: Optional["DiagnosticsRecorder"] = None,
        restart_every: int = 0,
        resume: bool = False,
    ) -> Dict[str, list]:
        """Integrate *year*, writing one file per day; returns ground truth.

        ``on_day_written(doy, rel_path)`` fires after each file lands —
        benchmarks use it to model production pace.  A
        :class:`~repro.esm.diagnostics.DiagnosticsRecorder` consumes each
        day online (the paper's §3 in-simulation diagnostics) and its
        record is persisted next to the output.

        With ``restart_every=K``, a restart file is written every K days;
        with ``resume=True``, the run continues from the newest restart
        file of this year instead of re-integrating from January 1st —
        the standard ESM crash-recovery pattern.
        """
        filesystem.makedirs(output_dir)
        restart = None
        if resume:
            restart = self._latest_restart(filesystem, year, n_days)
        state: Dict = {}
        for doy, ds in self.iter_year(
            year, n_days=n_days, restart=restart, state_out=state
        ):
            if diagnostics is not None:
                diagnostics.record_day(doy, ds)
            rel_path = f"{output_dir}/{daily_filename(year, doy)}"
            filesystem.write(rel_path, ds)
            if on_day_written is not None:
                on_day_written(doy, rel_path)
            if restart_every and doy % restart_every == 0 and doy < n_days:
                self.save_restart(filesystem, dict(state))
        if diagnostics is not None:
            filesystem.write_bytes(
                f"{output_dir}/diagnostics_{year:04d}.json",
                diagnostics.to_json(),
            )
        truth = self.ground_truth(year)
        filesystem.write_bytes(
            f"{output_dir}/ground_truth_{year:04d}.json",
            json.dumps(truth, indent=1).encode("utf-8"),
        )
        return truth

    def run(
        self,
        years: List[int],
        filesystem: SharedFilesystem,
        output_dir: str = "esm_output",
        n_days: int = DAYS_PER_YEAR,
    ) -> Dict[int, Dict[str, list]]:
        """Multi-year projection run; returns ground truth per year."""
        return {
            year: self.run_year(year, filesystem, output_dir, n_days=n_days)
            for year in years
        }

    def _latest_restart(
        self, filesystem: SharedFilesystem, year: int, n_days: int
    ) -> Optional[RestartState]:
        """Newest usable restart file for *year*, or None for a cold start."""
        candidates = filesystem.glob("restarts", f"restart_{year:04d}_*.rnc")
        best = None
        for rel in candidates:
            try:
                doy = int(rel.rsplit("_", 1)[-1].split(".")[0])
            except ValueError:
                continue
            if doy <= n_days and (best is None or doy > best[0]):
                best = (doy, rel)
        if best is None:
            return None
        return self.load_restart(filesystem, best[1])

    # ------------------------------------------------------------------
    # Restart files
    # ------------------------------------------------------------------

    def save_restart(
        self,
        filesystem: SharedFilesystem,
        state: "RestartState | Dict",
        path: Optional[str] = None,
    ) -> str:
        """Persist a restart file; returns its path.

        *state* is a :class:`RestartState` or the ``state_out`` dict
        filled by :meth:`iter_year`.
        """
        if isinstance(state, dict):
            state = RestartState(**state)
        ds = Dataset({
            "content": "restart",
            "year": state.year,
            "next_doy": state.next_doy,
            "rng_state": json.dumps(state.rng_state),
        })
        ds.create_variable("noise", state.noise, ("lat", "lon"))
        ds.create_variable("sst", state.sst, ("lat", "lon"))
        if path is None:
            path = f"restarts/restart_{state.year:04d}_{state.next_doy:03d}.rnc"
        filesystem.write(path, ds)
        return path

    @staticmethod
    def load_restart(filesystem: SharedFilesystem, path: str) -> RestartState:
        """Read a restart file back into a :class:`RestartState`."""
        ds = filesystem.read(path)
        if ds.attrs.get("content") != "restart":
            raise ValueError(f"{path!r} is not a restart file")
        return RestartState(
            year=int(ds.attrs["year"]),
            next_doy=int(ds.attrs["next_doy"]),
            noise=ds["noise"].data.astype(np.float64),
            sst=ds["sst"].data.astype(np.float64),
            rng_state=json.loads(ds.attrs["rng_state"]),
        )

    # ------------------------------------------------------------------
    # Ground truth / baselines
    # ------------------------------------------------------------------

    def _year_events(self, year: int) -> Dict[str, list]:
        """The events of *year* by kind, drawn once per model and year."""
        if not self.config.with_events:
            return {"heat_waves": [], "cold_waves": [], "tropical_cyclones": []}
        if year not in self._events:
            self._events[year] = self.events.events_for_year(year)
        return self._events[year]

    def ground_truth(self, year: int) -> Dict[str, list]:
        """JSON-ready event log for *year* (empty when events are off)."""
        return {
            kind: [ev.to_dict() for ev in events]
            for kind, events in self._year_events(year).items()
        }

    def baseline_dataset(
        self,
        baseline_year: int = 1995,
        n_days: int = DAYS_PER_YEAR,
    ) -> Dataset:
        """The 20-year-average climatology file the workflow loads once.

        Contains per-day-of-year TMAX/TMIN baselines (no noise, no
        events) — the synthetic analogue of the paper's "long-term
        historical averages".
        """
        tmax, tmin = [], []
        for d in range(1, n_days + 1):
            sst = self.ocean.sst_clim(baseline_year, d)
            tmax.append(self.atmosphere.baseline_tmax(d, baseline_year, sst_clim=sst))
            tmin.append(self.atmosphere.baseline_tmin(d, baseline_year, sst_clim=sst))
        tmax = np.stack(tmax).astype(np.float32)
        tmin = np.stack(tmin).astype(np.float32)
        ds = Dataset(
            {
                "model": "CMCC-CM3-sim",
                "content": "baseline climatology",
                "baseline_year": baseline_year,
            }
        )
        ds.create_dimension("time", n_days)
        ds.create_variable("lat", self.grid.lat, ("lat",), {"units": "degrees_north"})
        ds.create_variable("lon", self.grid.lon, ("lon",), {"units": "degrees_east"})
        ds.create_variable(
            "TMAX_BASELINE", tmax, ("time", "lat", "lon"), {"units": "K"}
        )
        ds.create_variable(
            "TMIN_BASELINE", tmin, ("time", "lat", "lon"), {"units": "K"}
        )
        return ds

    def write_baseline(
        self,
        filesystem: SharedFilesystem,
        path: str = "baselines/climatology.rnc",
        baseline_year: int = 1995,
        n_days: int = DAYS_PER_YEAR,
    ) -> str:
        filesystem.write(
            path, self.baseline_dataset(baseline_year, n_days=n_days)
        )
        return path

