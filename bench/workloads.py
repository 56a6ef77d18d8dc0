"""The six reference workloads: sizes, seeded inputs, timed body, checks.

Every workload is closed loop with one client: the driver submits, waits
for the result, and only then starts the next repetition.  Sizes are
fixed constants (``SIZES``); ``--seed`` changes the generated inputs
only.  The program receives arrays, files and parameter values -- never
the seed or the workload name.

Heavy imports (NumPy, ``repro``) happen inside the functions, so the
driver process can read the catalogue without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: Sizes were chosen on a 2-core host so one timed repetition takes
#: 2-3 s: the contract allows ~25 s per benchmark run including set-up,
#: and three or more repetitions per run are needed for a steady median
#: (see README.md, "Sizing").  ``smoke`` proves the harness end to end
#: and produces no reportable numbers.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "case_study": {"years": [2030, 2031], "n_days": 60, "n_lat": 24,
                       "n_lon": 36, "tc_samples": 96, "tc_epochs": 3},
        "listing1": {"shape": [365, 96, 144], "years": 3, "tiered_years": 2,
                     "check_stride": 4},
        "dag_fanout": {"supersteps": 800},
        "service_burst": {"rounds": 6, "esm_days": 5},
    },
    "smoke": {
        "case_study": {"years": [2030, 2031], "n_days": 60, "n_lat": 24,
                       "n_lon": 24, "tc_samples": 32, "tc_epochs": 1},
        "listing1": {"shape": [40, 8, 12], "years": 2, "tiered_years": 2,
                     "check_stride": 1},
        "dag_fanout": {"supersteps": 20},
        "service_burst": {"rounds": 1, "esm_days": 2},
    },
}

CASE_STUDY_TASKS = 37           # 1 ESM + 1 baseline + 1 load + 17 per year
FANOUT_WIDTH = 4
FANOUT_MODULUS = 2 ** 31
BRANCH_SLEEP_S = 0.001
TENANTS = ("atmos", "ocean", "land", "ice")
TIER_BUDGET_CUBES = 1.25        # resident budget, in daily cubes
NFRAG = 4
OPHIDIA_CORES = 2               # also the size of the process pool
CUBE_DIMS = ("time", "lat", "lon")
INDEX_NAMES = ("duration_max", "number", "frequency")


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Region:
    """The timed region of one repetition: wall clock, CPU, peak RSS.

    In the traced repetition the region also opens a root span of the
    program's own tracer, so the spans the program records only inside
    an active trace (worker kernels, COMPSs tasks) are collected.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.start = self.end = 0.0
        self.cpu_s = self.peak_rss_mb = 0.0
        self._root = None

    def __enter__(self) -> "Region":
        if self.traced:
            from repro.observability import span

            self._root = span("bench.repetition", layer="benchmark")
            self._root.__enter__()
        self._cpu0 = _cpu_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end = time.perf_counter()
        self.cpu_s = _cpu_seconds() - self._cpu0
        self.peak_rss_mb = _peak_rss_mb()
        if self._root is not None:
            self._root.__exit__(*exc_info)

    @property
    def makespan_s(self) -> float:
        return self.end - self.start


@dataclass
class Outcome:
    """What one repetition produced, before the driver judges it."""

    work: float                     # numerator of work_per_s
    ops_attempted: int              # tasks, sweeps or jobs
    checks: Dict[str, bool]
    digests: Dict[str, str] = field(default_factory=dict)
    #: Numbers only the workload can see (task graph sizes, job rows);
    #: the per-layer table reads them next to spans and counters.
    stats: Dict[str, float] = field(default_factory=dict)


def _sha(*arrays: Any) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# case_study
# ---------------------------------------------------------------------------

def setup_case_study(seed: int, size: Dict[str, Any], inputs_dir: str) -> Dict[str, float]:
    """Train the TC localizer the workflow receives by path."""
    import numpy as np

    from repro.ml import make_patch_dataset
    from repro.ml.tc_localizer import TCLocalizer

    s_model, s_data, s_fit, s_esm = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4)
    )
    started = time.perf_counter()
    model = TCLocalizer(patch=16, seed=s_model)
    data = make_patch_dataset(n_samples=size["tc_samples"], patch=16, seed=s_data)
    model.fit(data, epochs=size["tc_epochs"], batch_size=64, lr=2e-3, seed=s_fit)
    model.save(os.path.join(inputs_dir, "tc_localizer.pkl"))
    train_s = time.perf_counter() - started
    _write_json(os.path.join(inputs_dir, "params.json"),
                {"esm_seed": s_esm % (2 ** 31)})
    return {"ml_train_s": train_s}


def load_case_study(size: Dict[str, Any], inputs_dir: str) -> Dict[str, Any]:
    params = _read_json(os.path.join(inputs_dir, "params.json"))
    return {"esm_seed": params["esm_seed"],
            "tc_model_path": os.path.join(inputs_dir, "tc_localizer.pkl")}


def run_case_study(size, inputs, rep_dir: str, region: Region) -> Outcome:
    from repro.cluster import laptop_like
    from repro.workflow.config import WorkflowParams
    from repro.workflow.extreme_events import run_extreme_events_workflow
    from repro.workflow.provenance import science_digests

    params = WorkflowParams(
        years=list(size["years"]), n_days=size["n_days"], n_lat=size["n_lat"],
        n_lon=size["n_lon"], seed=inputs["esm_seed"], with_ml=True,
        tc_model_path=inputs["tc_model_path"],
    )
    with laptop_like(scratch_root=os.path.join(rep_dir, "scratch")) as cluster:
        with region:
            summary = run_extreme_events_workflow(cluster, params)
        digests = science_digests(cluster.filesystem, params.results_dir)
    graph, schedule = summary["task_graph"], summary["schedule"]
    years = {int(y) for y in summary["years"]}
    return Outcome(
        work=float(len(size["years"]) * size["n_days"]),
        ops_attempted=CASE_STUDY_TASKS,
        checks={
            "task_count": graph["n_tasks"] == CASE_STUDY_TASKS,
            "years_present": years == set(size["years"]),
            "science_artifacts": len(digests) > 0,
        },
        digests=digests,
        stats={
            "compss_tasks": graph["n_tasks"],
            "compss_edges": graph["n_edges"],
            "compss_worker_utilisation": schedule["worker_utilisation"],
            "schedule_makespan_s": schedule["makespan_s"],
            "overlap_s": schedule["esm_analytics_overlap_s"],
            "pipelined_years": schedule["pipelined_years"],
        },
    )


# ---------------------------------------------------------------------------
# listing1_thread / listing1_process / listing1_tiered
# ---------------------------------------------------------------------------

def setup_listing1(seed: int, size: Dict[str, Any], inputs_dir: str) -> Dict[str, float]:
    """One shared baseline cube and ``years`` daily cubes, float32.

    The baseline varies slowly and the day-to-day noise is bounded, so
    the zone maps can prune quiet chunks; a handful of warm and cold
    spells per year (6-14 days, a quarter of the grid) are the waves.
    """
    import numpy as np

    n_days, n_lat, n_lon = size["shape"]
    rng = np.random.default_rng(seed)
    doy = np.arange(n_days, dtype=np.float32)[:, None, None]
    lat = np.linspace(-1.0, 1.0, n_lat, dtype=np.float32)[None, :, None]
    baseline = (288.0 + 1.5 * np.sin(2.0 * np.pi * doy / 365.0)
                + 1.0 * np.cos(0.5 * np.pi * lat)
                + np.zeros((1, 1, n_lon), dtype=np.float32)).astype(np.float32)
    np.save(os.path.join(inputs_dir, "baseline.npy"), baseline)
    span_lat, span_lon = max(1, n_lat // 4), max(1, n_lon // 4)
    for year in range(size["years"]):
        daily = baseline + rng.uniform(
            -1.0, 1.0, size=baseline.shape).astype(np.float32)
        for sign in (8.0, -8.0) * 3:
            length = int(rng.integers(6, min(15, n_days)))
            d0 = int(rng.integers(0, n_days - length + 1))
            a0 = int(rng.integers(0, n_lat - span_lat + 1))
            b0 = int(rng.integers(0, n_lon - span_lon + 1))
            daily[d0:d0 + length, a0:a0 + span_lat, b0:b0 + span_lon] += sign
        np.save(os.path.join(inputs_dir, f"year_{year:02d}.npy"), daily)
    return {}


def load_listing1(size: Dict[str, Any], inputs_dir: str, n_years: int) -> Dict[str, Any]:
    import numpy as np

    return {
        "baseline": np.load(os.path.join(inputs_dir, "baseline.npy")),
        "years": [np.load(os.path.join(inputs_dir, f"year_{y:02d}.npy"))
                  for y in range(n_years)],
    }


def run_listing1(size, inputs, rep_dir: str, region: Region,
                 backend: str, tiered: bool) -> Outcome:
    import numpy as np

    from repro.analytics.heatwaves import compute_wave_indices, ophidia_wave_pipeline
    from repro.cluster import SharedFilesystem
    from repro.observability.metrics import get_registry
    from repro.ophidia import Client, Cube, OphidiaServer

    baseline, years = inputs["baseline"], inputs["years"]
    # Exports go through a shared filesystem so their bytes are counted.
    fs = SharedFilesystem(os.path.join(rep_dir, "fs"))
    spill_dir = os.path.join(rep_dir, "spill")
    tier: Dict[str, Any] = {}
    if tiered:
        tier = {"memory_budget_bytes": int(TIER_BUDGET_CUBES * baseline.nbytes),
                "spill_dir": spill_dir}
    arrays: List[List[Any]] = []
    with region:
        # Pool spawn and join are inside the region: they are what the
        # process backend costs a user per server.
        with OphidiaServer(n_io_servers=2, n_cores=OPHIDIA_CORES,
                           filesystem=fs, lazy=True,
                           backend=backend, **tier) as server:
            client = Client(server)
            base_cube = Cube.from_array(baseline, CUBE_DIMS, client=client,
                                        fragment_dim="lat", nfrag=NFRAG)
            cubes, results = [base_cube], []
            for daily in years:
                year_cube = Cube.from_array(daily, CUBE_DIMS, client=client,
                                            fragment_dim="lat", nfrag=NFRAG)
                cubes.append(year_cube)
                results.append([
                    ophidia_wave_pipeline(year_cube, base_cube, kind=kind,
                                          name_prefix=prefix)
                    for kind, prefix in (("heat", "hw"), ("cold", "cw"))
                ])
            # Export after the last year: under a budget the early
            # years' index cubes have spilled by now and must reload.
            for y, per_kind in enumerate(results):
                year_arrays = []
                for prefix, indices in zip(("hw", "cw"), per_kind):
                    for cube, index in zip(indices, INDEX_NAMES):
                        cube.exportnc2("indices", f"{prefix}_{index}_{y:02d}")
                        year_arrays.append(cube.to_array())
                    cubes.extend(indices)
                arrays.append(year_arrays)
            for cube in cubes:
                cube.delete()

    stride = size["check_stride"]
    reference_ok = True
    for daily, year_arrays in zip(years, arrays):
        for k, kind in enumerate(("heat", "cold")):
            want = compute_wave_indices(
                daily[:, ::stride, ::stride], baseline[:, ::stride, ::stride],
                kind=kind,
            )
            dmax, number, freq = (a[::stride, ::stride]
                                  for a in year_arrays[3 * k:3 * k + 3])
            reference_ok &= bool(
                np.array_equal(dmax, want.duration_max)
                and np.array_equal(number, want.number)
                and np.allclose(freq, want.frequency, rtol=1e-12, atol=0.0)
            )
    snap = get_registry().snapshot()
    spills = snap.value("ophidia_fragments_spilled_total")
    reloads = snap.value("ophidia_fragments_reloaded_total")
    checks = {
        "matches_numpy_reference": reference_ok,
        "exports_written": len(fs.listdir("indices")) == 6 * len(years),
    }
    if tiered:
        checks["spilled_and_reloaded"] = spills > 0 and reloads > 0
    return Outcome(
        work=2.0 * len(years) * baseline.size / 1e6,
        ops_attempted=int(snap.value("ophidia_fragment_passes_run_total")),
        checks=checks,
        digests={f"year_{y:02d}": _sha(*a) for y, a in enumerate(arrays)},
    )


# ---------------------------------------------------------------------------
# dag_fanout
# ---------------------------------------------------------------------------

def setup_dag_fanout(seed: int, size: Dict[str, Any], inputs_dir: str) -> Dict[str, float]:
    import numpy as np

    rng = np.random.default_rng(seed)
    np.save(os.path.join(inputs_dir, "addends.npy"),
            rng.integers(0, FANOUT_MODULUS,
                         size=(size["supersteps"], FANOUT_WIDTH)))
    _write_json(os.path.join(inputs_dir, "token.json"),
                {"token": int(rng.integers(0, FANOUT_MODULUS))})
    return {}


def load_dag_fanout(size: Dict[str, Any], inputs_dir: str) -> Dict[str, Any]:
    import numpy as np

    addends = np.load(os.path.join(inputs_dir, "addends.npy"))
    return {"addends": [[int(a) for a in row] for row in addends],
            "token": _read_json(os.path.join(inputs_dir, "token.json"))["token"]}


def fanout_closed_form(token: int, addends: List[List[int]]) -> int:
    """The value the DAG must produce: t <- (4 t + sum(row)) mod 2**31."""
    for row in addends:
        token = (FANOUT_WIDTH * token + sum(row)) % FANOUT_MODULUS
    return token


def run_dag_fanout(size, inputs, rep_dir: str, region: Region) -> Outcome:
    from repro.compss import COMPSs, compss_wait_on, task
    from repro.observability.metrics import get_registry

    @task(returns=1)
    def seed_task(x):
        return x

    @task(returns=1)
    def branch(x, addend):
        time.sleep(BRANCH_SLEEP_S)
        return x + addend

    @task(returns=1)
    def join(a, b, c, d):
        return (a + b + c + d) % FANOUT_MODULUS

    addends = inputs["addends"]
    with region:
        with COMPSs(n_workers=FANOUT_WIDTH) as runtime:
            token = seed_task(inputs["token"])
            for row in addends:
                token = join(*[branch(token, addend) for addend in row])
            value = compss_wait_on(token)
            n_tasks = len(runtime.graph)
            n_edges = len(runtime.graph.edges())
            utilisation = runtime.tracer.worker_utilisation(FANOUT_WIDTH)
    expected_tasks = 1 + len(addends) * (FANOUT_WIDTH + 1)
    snap = get_registry().snapshot()
    completed = snap.value("compss_tasks_total", state="COMPLETED")
    return Outcome(
        work=float(n_tasks),
        ops_attempted=expected_tasks,
        checks={
            "closed_form": value == fanout_closed_form(inputs["token"], addends),
            "task_count": n_tasks == expected_tasks == int(completed),
        },
        digests={"value": str(value)},
        stats={
            "compss_tasks": n_tasks,
            "compss_edges": n_edges,
            "compss_worker_utilisation": utilisation,
            "supersteps": len(addends),
        },
    )


# ---------------------------------------------------------------------------
# service_burst
# ---------------------------------------------------------------------------

def setup_service_burst(seed: int, size: Dict[str, Any], inputs_dir: str) -> Dict[str, float]:
    """The submission list, and a trial deploy of the workflows it names."""
    import numpy as np

    from repro.cluster import laptop_like
    from repro.service import ANALYTICS_WORKFLOW, ESM_WORKFLOW, build_demo_services

    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(size["rounds"]):
        for tenant in TENANTS:
            jobs.append([tenant, ESM_WORKFLOW, 2, {
                "n_days": size["esm_days"], "n_lat": 24, "n_lon": 36,
                "seed": int(rng.integers(0, 2 ** 31)),
            }])
            for _ in range(2):
                jobs.append([tenant, ANALYTICS_WORKFLOW, 1, {
                    "n_days": 12, "seed": int(rng.integers(0, 2 ** 31)),
                }])
    _write_json(os.path.join(inputs_dir, "jobs.json"), jobs)
    with laptop_like(scratch_root=os.path.join(inputs_dir, "deploy_check")) as cluster:
        _a4c, api = build_demo_services(cluster)
        missing = {job[1] for job in jobs} - set(api.list_workflows())
    if missing:
        raise RuntimeError(f"workflows not deployable: {sorted(missing)}")
    return {}


def load_service_burst(size: Dict[str, Any], inputs_dir: str) -> Dict[str, Any]:
    return {"jobs": _read_json(os.path.join(inputs_dir, "jobs.json"))}


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_concurrency(rows: List[Any]) -> int:
    events = []
    for row in rows:
        if row.started_at is not None and row.finished_at is not None:
            events += [(row.started_at, 1), (row.finished_at, -1)]
    live = peak = 0
    for _, delta in sorted(events):
        live += delta
        peak = max(peak, live)
    return peak


def run_service_burst(size, inputs, rep_dir: str, region: Region) -> Outcome:
    from repro.cluster import laptop_like
    from repro.service import (
        JobState, ServiceDB, WorkflowService, build_demo_services,
    )

    jobs = inputs["jobs"]
    db = ServiceDB(os.path.join(rep_dir, "runs.db"))
    for tenant in TENANTS:
        db.add_tenant(tenant)       # equal shares
    with laptop_like(scratch_root=os.path.join(rep_dir, "scratch")) as cluster:
        _a4c, api = build_demo_services(cluster)
        with WorkflowService(db, api, cluster, site="bench") as service:
            with region:
                for tenant, workflow, cores, params in jobs:
                    service.submit(tenant, workflow, cores=cores, **params)
                service.drain(timeout=150)
    rows = db.jobs()
    completed = [r for r in rows if r.state is JobState.COMPLETED]
    per_tenant = {t: sum(1 for r in completed if r.tenant == t) for t in TENANTS}
    waits = [r.started_at - r.submitted_at for r in rows if r.started_at]
    turnarounds = [r.turnaround_s for r in rows if r.turnaround_s is not None]
    return Outcome(
        work=float(len(completed)),
        ops_attempted=len(jobs),
        checks={
            "all_completed": len(rows) == len(completed) == len(jobs),
            "tenants_equal": set(per_tenant.values()) == {len(jobs) // len(TENANTS)},
        },
        digests={"completed": str(len(completed))},
        stats={
            "service_jobs": len(rows),
            "service_jobs_failed": len(rows) - len(completed),
            "service_queue_wait_p50_s": _percentile(waits, 0.5),
            "service_turnaround_p50_s": _percentile(turnarounds, 0.5),
            "service_turnaround_p90_s": _percentile(turnarounds, 0.9),
            "service_peak_concurrent_runs": _peak_concurrency(rows),
        },
    )


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size_key: str
    work_unit: str
    setup: Callable[[int, Dict[str, Any], str], Dict[str, float]]
    load: Callable[[Dict[str, Any], str], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Dict[str, Any], str, Region], Outcome]


def _listing1(name: str, why: str, backend: str, tiered: bool) -> Workload:
    years_key = "tiered_years" if tiered else "years"
    return Workload(
        name, why, "listing1", "Mcell",
        setup_listing1,
        lambda size, d: load_listing1(size, d, size[years_key]),
        lambda size, inputs, rep_dir, region: run_listing1(
            size, inputs, rep_dir, region, backend, tiered),
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "case_study",
        "The paper's workflow end to end: ESM stepping and RNC/shared-FS I/O "
        "dominate, year N analytics overlap year N+1 simulation, Ophidia "
        "does little.",
        "case_study", "day", setup_case_study, load_case_study, run_case_study,
    ),
    _listing1(
        "listing1_thread",
        "Listing-1 heat+cold pipelines on in-memory cubes, thread backend: "
        "Ophidia sweeps, fusion and chunk pruning do nearly all the work.",
        "thread", False,
    ),
    _listing1(
        "listing1_process",
        "Same inputs and calls on the process backend: per-chunk dispatch, "
        "pickle/IPC and shared memory are added, so a kernel gain that costs "
        "IPC shows here.",
        "process", False,
    ),
    _listing1(
        "listing1_tiered",
        "First half of the same years under a 1.25-cube memory budget: "
        "spill (zlib) and reload are on the path, writes beside reads.",
        "thread", True,
    ),
    Workload(
        "dag_fanout",
        "Supersteps of 4 x 1 ms branch + 1 join on 4 workers: task bodies "
        "are nearly free, so submission, dependency analysis and wake-ups "
        "are the work.",
        "dag_fanout", "task", setup_dag_fanout, load_dag_fanout, run_dag_fanout,
    ),
    Workload(
        "service_burst",
        "4 equal-share tenants burst-submit ESM members and analytics jobs "
        "into a running service: queueing, fair share, SQLite, HPCWaaS "
        "invoke and LSF dominate.",
        "service_burst", "job", setup_service_burst, load_service_burst,
        run_service_burst,
    ),
)}


def size_of(workload: Workload, smoke: bool) -> Dict[str, Any]:
    return SIZES["smoke" if smoke else "full"][workload.size_key]
