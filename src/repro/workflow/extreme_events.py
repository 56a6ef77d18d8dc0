"""End-to-end assembly of the climate extreme-events workflow.

:func:`run_extreme_events_workflow` is the PyCOMPSs application main
program (§5.1 steps 1–7): it submits the ESM simulation, then watches
the output file stream and dispatches each year's analytics/ML task
graph the moment that year's files exist — so the simulation keeps
producing year N+1 while the runtime crunches year N (pipelined
dispatch; no worker is parked waiting on the stream).

The function doubles as the HPCWaaS entrypoint: signature
``(cluster, params-dict)``, JSON-able summary return.

:func:`run_distributed_extreme_events` is the paper's §7 extension: the
same body with the simulation and the analytics placed on different
sites of a :class:`~repro.hpcwaas.federation.Federation`.
"""

from __future__ import annotations

import json
import os
import threading
import time as _time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.compss import COMPSs, CheckpointManager, compss_wait_on
from repro.compss.scheduler import policy_by_name
from repro.compss.streams import FileDistroStream, StreamClosed
from repro.esm import parse_daily_filename
from repro.hpcwaas.federation import Federation
from repro.observability import (
    MetricsSnapshot,
    build_perfetto_trace,
    get_collector,
    get_registry,
    profile_spans,
    span,
)
from repro.observability.events import get_event_log, run_scope
from repro.observability.history import (
    RunHistory, default_history_path, new_run_id,
)
from repro.observability.resources import sample_process_resources
from repro.observability.slo import SLOMonitor, load_slo_rules
from repro.observability.spans import current_context, record_span
from repro.ophidia import Client, OphidiaServer
from repro.workflow import tasks
from repro.workflow.config import WorkflowParams

#: Analytics/ML task names used for the overlap metric (C1).
ANALYTICS_TASKS = frozenset({
    "transfer_year", "load_year_cubes", "compute_qualifying_durations",
    "index_duration_max", "index_duration_number", "index_frequency",
    "tc_preprocess", "tc_inference", "tc_georeference",
    "tc_deterministic_tracking", "validate_and_store", "make_map",
})


class YearCollector:
    """Shared, thread-safe year-bucketing view over a file stream.

    Callers of :meth:`collect_year` may be concurrent; whichever thread
    polls distributes fresh files into per-year buckets and wakes the
    others.

    With *filesystem* given, the underlying stream is event-driven
    (woken by write events) and collectors block untimed between events;
    the drivers additionally register :meth:`close` as a runtime failure
    listener, so a dying workflow wakes every blocked collector instead
    of relying on timed *abort* re-polls.  Without a filesystem the
    historical timed rescans remain as the fallback.
    """

    def __init__(self, directory: str, pattern: str = "cmcc_cm3_*.rnc",
                 poll_interval: float = 0.02, filesystem=None) -> None:
        self._stream = FileDistroStream(
            directory, pattern, poll_interval, filesystem=filesystem
        )
        self._by_year: Dict[int, List[str]] = defaultdict(list)
        self._cond = threading.Condition()
        self._polling = False
        self._closed = False

    def close(self) -> None:
        self._stream.close()
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def collect_year(
        self, year: int, n_days: int,
        abort: Optional[Callable[[], bool]] = None,
    ) -> List[str]:
        """Block until *n_days* files of *year* exist; chronological paths.

        *abort* is re-checked on every wake-up; when it returns True the
        wait gives up with :class:`StreamClosed` — the pipelined driver
        passes the runtime's failure flag so a dead simulation cannot
        park the dispatch loop forever.  (Event-driven collectors wake
        on writes and on :meth:`close`; callers whose abort condition
        can flip without either event should also arrange a wake-up,
        as the drivers do via ``runtime.add_failure_listener``.)
        """
        event_driven = self._stream.event_driven
        while True:
            with self._cond:
                files = self._by_year.get(year, [])
                if len(files) >= n_days:
                    return sorted(files)[:n_days]
                if abort is not None and abort():
                    raise StreamClosed(
                        f"collection aborted with {len(files)}/{n_days} "
                        f"files for {year}"
                    )
                if self._closed:
                    raise StreamClosed(
                        f"stream closed with {len(files)}/{n_days} files for {year}"
                    )
                if self._polling:
                    self._cond.wait(timeout=None if event_driven else 0.05)
                    continue
                self._polling = True
            fresh: List[str] = []
            try:
                fresh = self._stream.poll(
                    timeout=None if event_driven else 0.2, block=True
                )
            except StreamClosed:
                with self._cond:
                    self._closed = True
            finally:
                with self._cond:
                    for path in fresh:
                        parsed = parse_daily_filename(os.path.basename(path))
                        if parsed is not None:
                            self._by_year[parsed[0]].append(path)
                    self._polling = False
                    self._cond.notify_all()


def _retry_transient(action, attempts: int = 5):
    """Run idempotent driver-side I/O, absorbing *transient* faults.

    Artefact exports and provenance hashing run on the driver, outside
    any task, so the runtime's transient-resubmission machinery cannot
    cover them; a single flaky-storage blip there would otherwise kill a
    workflow whose science already completed.  Anything non-transient
    (or a fault that persists through every attempt) still raises.
    """
    for attempt in range(attempts):
        try:
            return action()
        except Exception as exc:  # noqa: BLE001 - retry transient only
            if not getattr(exc, "transient", False) or attempt == attempts - 1:
                raise


def _write_artifact(fs, rel_path: str, payload: bytes) -> None:
    _retry_transient(lambda: fs.write_bytes(rel_path, payload))


class RunControlPlane:
    """The durable control-plane spine shared by the workflow drivers.

    One instance per run bundles the three PR-6 facilities: the
    ``runs.db`` history row, the ``events.jsonl`` file sink and the
    live SLO monitor.  Drivers call :meth:`begin` before the traced
    body, :meth:`finish`/:meth:`fail` after — every step is
    best-effort: a broken control plane must never fail the science.
    """

    def __init__(self, kind: str, p: "WorkflowParams", events_path: Optional[str]) -> None:
        self.kind = kind
        self.params = p
        self.run_id = new_run_id()
        self.events_path = events_path
        self.started = _time.monotonic()
        self.history: Optional[RunHistory] = None
        self.monitor: Optional[SLOMonitor] = None
        self.breach_counts: Dict[str, int] = {}
        self._scope = None
        self._previous_events_path: Optional[str] = None
        self._log = get_event_log()

    def begin(self) -> str:
        db_path = self.params.runs_db or default_history_path()
        if db_path:
            try:
                self.history = RunHistory(db_path)
                self.history.record_start(
                    self.run_id, self.kind,
                    params=self.params.to_public_dict(),
                )
            except Exception:  # noqa: BLE001 - history must not fail the run
                self.history = None
        if self.events_path:
            self._previous_events_path = self._log.file_path
            try:
                self._log.attach_file(self.events_path)
            except OSError:
                self.events_path = None
        self._scope = run_scope(self.run_id)
        self._scope.__enter__()
        # Remember the driver's CPU total without emitting, so CPU burned
        # before this run stays out of the run's metrics delta.
        try:
            sample_process_resources("driver", baseline_only=True)
        except Exception:  # noqa: BLE001 - sampling must not fail the run
            pass
        self._log.emit(
            "INFO", "workflow", "run_started",
            f"{self.kind} {self.run_id} started",
            kind=self.kind, years=list(self.params.years),
            n_days=self.params.n_days, n_workers=self.params.n_workers,
        )
        if self.params.slo_rules_path:
            try:
                rules = load_slo_rules(self.params.slo_rules_path)
                monitor = SLOMonitor(rules)  # refuses ratio rules
            except (OSError, ValueError) as exc:
                self._log.emit(
                    "ERROR", "slo", "slo_rules_invalid", repr(exc),
                    path=self.params.slo_rules_path,
                )
            else:
                if rules:
                    self.monitor = monitor.start()
        return self.run_id

    def stop_monitor(self) -> None:
        if self.monitor is not None:
            try:
                self.breach_counts = self.monitor.stop()
            except Exception:  # noqa: BLE001
                self.breach_counts = {}
            self.monitor = None

    def slo_section(self) -> Optional[Dict[str, Any]]:
        if not self.params.slo_rules_path:
            return None
        return {
            "rules_path": self.params.slo_rules_path,
            "breach_counts": self.breach_counts,
            "breached": sorted(self.breach_counts),
        }

    def finish(
        self,
        trace_id: str,
        metrics: Optional[Dict[str, Any]],
        profile: Optional[Dict[str, Any]],
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.stop_monitor()
        wall = _time.monotonic() - self.started
        self._log.emit(
            "INFO", "workflow", "run_completed",
            f"{self.kind} {self.run_id} completed in {wall:.2f}s",
            kind=self.kind, wall_clock_s=round(wall, 3), trace_id=trace_id,
            slo_breaches=sum(self.breach_counts.values()),
        )
        if self.history is not None:
            try:
                self.history.record_end(
                    self.run_id, "completed", wall_clock_s=wall,
                    metrics=metrics, profile=profile, trace_id=trace_id,
                    extra=extra,
                )
            except Exception:  # noqa: BLE001
                pass
        self._close_scope()

    def fail(self, exc: BaseException) -> None:
        self.stop_monitor()
        wall = _time.monotonic() - self.started
        self._log.emit(
            "ERROR", "workflow", "run_failed",
            f"{self.kind} {self.run_id} failed: {exc!r}",
            kind=self.kind, wall_clock_s=round(wall, 3), error=repr(exc),
        )
        if self.history is not None:
            try:
                self.history.record_end(
                    self.run_id, "failed", wall_clock_s=wall, error=repr(exc),
                )
            except Exception:  # noqa: BLE001
                pass
        self._close_scope()

    def _close_scope(self) -> None:
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None
        if self.events_path:
            # Restore whatever sink was active before this run so nested
            # harnesses (chaos experiments) keep their own log.
            if self._previous_events_path:
                try:
                    self._log.attach_file(self._previous_events_path)
                except OSError:
                    self._log.detach_file()
            else:
                self._log.detach_file()


def run_extreme_events_workflow(
    cluster: Cluster,
    params: "WorkflowParams | Dict[str, Any]",
) -> Dict[str, Any]:
    """Execute the full case study on *cluster*; returns the run summary.

    The summary contains per-year heat/cold-wave statistics, TC results
    (CNN + deterministic tracker, with skill against the injected ground
    truth), the run-time task-graph census (Figure 3) and scheduling
    metrics (makespan and ESM/analytics overlap — claim C1).
    """
    # A single cluster is a federation of one: both roles on one site.
    return _run_placed(cluster, cluster, None, params)


def run_distributed_extreme_events(
    federation: Federation,
    params: "WorkflowParams | Dict[str, Any]",
) -> Dict[str, Any]:
    """Execute the case study across *federation*; returns the summary.

    Requires the ``simulation`` and ``analytics`` roles to be assigned.
    The ESM writes on the simulation site; each completed year is
    shipped by the federated Data Logistics Service to the analytics
    site, which holds everything else (Ophidia, ML, results, telemetry).
    The summary is the single-site one plus a ``federation`` section
    with per-transfer accounting.
    """
    return _run_placed(
        federation.for_role("simulation"), federation.for_role("analytics"),
        federation, params,
    )


def _run_placed(
    sim: Cluster,
    ana: Cluster,
    federation: Optional[Federation],
    params: "WorkflowParams | Dict[str, Any]",
) -> Dict[str, Any]:
    """The one driver: run, then export telemetry to the analytics site."""
    p = params if isinstance(params, WorkflowParams) else WorkflowParams.from_dict(params)
    fs = ana.filesystem
    fs.makedirs(p.results_dir)
    kind = "run" if sim is ana else "run-distributed"

    registry = get_registry()
    snap_before = registry.snapshot()
    control = RunControlPlane(
        kind, p, p.events_path or fs.path(f"{p.results_dir}/events.jsonl"),
    )
    control.begin()
    try:
        # The root span: every instrumented layer below (COMPSs tasks,
        # scheduler queueing, filesystem I/O, Ophidia operators) parents
        # into this trace.  When invoked through HPCWaaS the span joins
        # the API's trace instead of starting its own.
        with span(
            f"workflow.{kind}", layer="workflow",
            attrs={"years": len(p.years), "n_days": p.n_days,
                   "n_workers": p.n_workers, "scheduler": p.scheduler},
        ) as root:
            trace_id = root.context.trace_id
            summary = _run_traced(sim.filesystem, fs, federation, p)
    except BaseException as exc:
        control.fail(exc)
        raise

    # The root span is recorded only when its block exits, so the trace
    # and metrics artefacts are exported afterwards.
    summary["trace_id"] = trace_id
    summary["run_id"] = control.run_id
    summary["kind"] = kind
    schedule = summary.get("schedule", {})
    registry.gauge(
        "workflow_makespan_seconds", "Makespan of the last workflow run"
    ).set(schedule.get("makespan_s", 0.0))
    registry.gauge(
        "workflow_esm_analytics_overlap_seconds",
        "ESM/analytics overlap of the last run (claim C1)",
    ).set(schedule.get("esm_analytics_overlap_s", 0.0))
    registry.gauge(
        "workflow_worker_utilisation", "Worker utilisation of the last run"
    ).set(schedule.get("worker_utilisation", 0.0))

    # Critical-path profile of the run just recorded.  Computed before
    # the metrics delta so the critical-path gauge lands in this run's
    # snapshot.
    trace_spans = get_collector().for_trace(trace_id)
    try:
        profile = profile_spans(
            trace_spans,
            esm_functions=("esm_simulation",),
            analytics_functions=ANALYTICS_TASKS,
        ).to_json()
    except Exception:  # noqa: BLE001 - profiling must never fail the run
        profile = None
    if profile is not None:
        summary["profile"] = profile
        registry.gauge(
            "workflow_critical_path_seconds",
            "Summed critical-path duration of the last run",
        ).set(profile["critical_path_s"])
    # Stop the live SLO evaluator before the delta snapshot so any
    # slo_breaches_total increments land inside this run's metrics.
    control.stop_monitor()
    slo_section = control.slo_section()
    if slo_section is not None:
        summary["slo"] = slo_section
    # Final driver resource sample, before the delta snapshot: the
    # driver's CPU/RSS (role="driver") land in this run's metrics next
    # to the worker samples the process backend shipped home.
    try:
        sample_process_resources("driver")
    except Exception:  # noqa: BLE001
        pass
    summary["metrics"] = registry.snapshot().delta(snap_before).to_json()
    _count_sections(summary, sim.filesystem, fs)

    dropped_spans = get_collector().dropped
    if dropped_spans:
        summary["spans_dropped"] = dropped_spans
    _write_artifact(
        fs, f"{p.results_dir}/trace.json",
        build_perfetto_trace(trace_spans, dropped=dropped_spans).encode(),
    )
    _write_artifact(
        fs, f"{p.results_dir}/run_summary.json",
        json.dumps(summary, indent=1, default=str).encode(),
    )
    control.finish(trace_id, summary["metrics"], profile)
    return summary


def _count_sections(summary: Dict[str, Any], sim_fs, fs) -> None:
    """Select the summary's count sections from its own metrics delta.

    ``schedule.transfers``, ``storage`` and the federation's site counts
    are views of ``summary["metrics"]``, so they always agree with it.
    Concurrent runs in one process (service jobs) share these series, as
    they share every other counter.
    """
    metrics = MetricsSnapshot(summary["metrics"])

    def count(name: str, **labels: Any) -> int:
        return int(metrics.value(name, **labels))

    def fs_ops(site_fs, *ops: str) -> int:
        return sum(count("fs_operations_total", fs=site_fs.fs_label, op=op)
                   for op in ops)

    summary["schedule"]["transfers"] = {
        "local_hits": count("compss_transfers_total", kind="local_hit"),
        "remote_transfers": count("compss_transfers_total", kind="remote"),
        "bytes_transferred": count("compss_transfer_bytes_total"),
        "cache_hits": count("compss_cache_hits_total"),
        "cache_misses": count("compss_cache_misses_total"),
        "cache_evictions": count("compss_cache_evictions_total"),
        "bytes_saved": count("compss_transfer_bytes_saved_total"),
    }
    summary["storage"] = {
        "fs_reads": fs_ops(fs, "read", "read_bytes"),
        "fs_bytes_read": count("fs_bytes_read_total", fs=fs.fs_label),
        "ophidia_fragment_reads": count("ophidia_fragment_reads_total"),
    }
    if "federation" in summary:
        summary["federation"]["sim_site_writes"] = fs_ops(
            sim_fs, "write", "write_bytes")
        summary["federation"]["ana_site_reads"] = summary["storage"]["fs_reads"]


def _run_traced(
    sim_fs, fs, federation: Optional[Federation], p: WorkflowParams,
) -> Dict[str, Any]:
    """The traced workflow body; returns the run summary.

    The ESM writes to *sim_fs* and the collector watches it; *fs* (the
    analytics site) holds everything else.  When the two differ, each
    year's files cross the *federation*'s DLS in a ``transfer_year``
    task between collection and import.
    """
    tc_model_path = None
    if p.with_ml:
        tc_model_path = tasks.ensure_tc_model(
            p.tc_model_path, p.tc_patch, fs.path("models")
        )

    spill_dir = p.ophidia_spill_dir
    if spill_dir is None and p.ophidia_memory_budget_bytes > 0:
        spill_dir = fs.path("ophidia_spill")
    server = OphidiaServer(
        n_io_servers=p.ophidia_io_servers, n_cores=p.ophidia_cores, filesystem=fs,
        backend=p.execution_backend,
        memory_budget_bytes=p.ophidia_memory_budget_bytes, spill_dir=spill_dir,
    )
    # Everything below the server construction runs inside its
    # try/finally: a failure anywhere on the setup path must still
    # drain the executor pools, or chaos runs leak them between
    # experiments.
    collector = None
    try:
        client = Client(server)
        collector = YearCollector(sim_fs.path(p.output_dir), filesystem=sim_fs)

        checkpoint = CheckpointManager(p.checkpoint_dir) if p.checkpoint_dir else None
        summary: Dict[str, Any] = {"years": {}, "params": {"years": p.years, "n_days": p.n_days}}
        cube_futures = []
        registry = get_registry()

        with COMPSs(
            n_workers=p.n_workers,
            scheduler=policy_by_name(p.scheduler),
            checkpoint=checkpoint,
            # The reuse layer: per-worker resident sets, so a
            # predecessor's output moves to a worker at most once
            # (claim C2).
            worker_cache_bytes=p.worker_cache_bytes,
        ) as runtime:
            # A workflow failure closes the collector, waking any
            # blocked collect_year immediately (no timed abort polls).
            runtime.add_failure_listener(collector.close)
            try:
                # Step 3: the ESM simulation (runs for the whole projection).
                truth_f = tasks.esm_simulation(
                    sim_fs, list(p.years), p.n_days, p.n_lat, p.n_lon,
                    p.scenario, p.seed, p.output_dir,
                    p.pace_seconds, p.esm_restart_every,
                )
                baseline_path_f = tasks.write_baseline(
                    fs, p.n_lat, p.n_lon, p.scenario, p.seed, p.n_days,
                    executor=server.process_backend,
                )
                if p.sequential:
                    # C1 baseline: no overlap — the whole simulation finishes
                    # before any analytics is even submitted.
                    compss_wait_on(truth_f)
                shared_baseline = None
                if p.reuse_baseline:
                    shared_baseline = tasks.load_baseline_cubes(
                        client, baseline_path_f, p.nfrag, p.n_days
                    )

                # Pipelined dispatch (step 4): rather than parking one
                # worker per year in a monitor task, the driver itself
                # waits on the file stream and submits each year's
                # analytics the moment that year's outputs land — so
                # simulation year N+1 overlaps analytics year N without
                # consuming any worker slots on waiting.
                esm_node = runtime.graph.task(truth_f.last_writer_id)
                dispatch_wait = registry.histogram(
                    "workflow_year_dispatch_wait_seconds",
                    "Driver wait for a year's simulation files before "
                    "dispatching its analytics",
                )
                dispatched = registry.counter(
                    "workflow_years_dispatched_total",
                    "Per-year analytics dispatches by overlap mode",
                    labels=("mode",),
                )
                pipelined_years = 0

                per_year: Dict[int, Dict[str, Any]] = {}
                for year in p.years:
                    if shared_baseline is not None:
                        base_tmax_f, base_tmin_f = shared_baseline
                    else:
                        base_tmax_f, base_tmin_f = tasks.load_baseline_cubes(
                            client, baseline_path_f, p.nfrag, p.n_days
                        )
                    wait_start = _time.monotonic()
                    try:
                        days = collector.collect_year(
                            year, p.n_days, abort=lambda: runtime.failed
                        )
                    except StreamClosed:
                        # Surface the real task failure (e.g. a dead
                        # ESM) instead of the secondary stream symptom.
                        runtime.barrier(raise_on_error=True)
                        raise
                    wait_end = _time.monotonic()
                    # The simulation still running at dispatch time IS
                    # the overlap claim: this year's analytics will
                    # execute concurrently with later simulation years.
                    esm_still_running = not esm_node.done_event.is_set()
                    if esm_still_running:
                        pipelined_years += 1
                    dispatch_wait.observe(wait_end - wait_start)
                    dispatched.inc(
                        mode="pipelined" if esm_still_running
                        else "post_simulation"
                    )
                    record_span(
                        f"dispatch.year:{year}", layer="workflow",
                        start=wait_start, end=wait_end,
                        parent=current_context(),
                        attrs={"year": year, "n_files": len(days),
                               "esm_still_running": esm_still_running},
                    )
                    get_event_log().emit(
                        "INFO", "workflow", "year_dispatched",
                        f"analytics for {year} dispatched "
                        f"({'pipelined' if esm_still_running else 'post_simulation'})",
                        year=year, n_files=len(days),
                        wait_s=round(wait_end - wait_start, 3),
                        pipelined=esm_still_running,
                    )
                    if sim_fs is not fs:
                        days = tasks.transfer_year(federation, days, year, "staged")
                    tmax_f, tmin_f = tasks.load_year_cubes(client, days, p.nfrag)
                    futures: Dict[str, Any] = {}

                    for kind, data_f, base_f in (
                        ("heat", tmax_f, base_tmax_f),
                        ("cold", tmin_f, base_tmin_f),
                    ):
                        prefix = "hw" if kind == "heat" else "cw"
                        dur_f = tasks.compute_qualifying_durations(
                            client, data_f, base_f, kind, p.threshold_k, p.min_length_days
                        )
                        dmax_f = tasks.index_duration_max(
                            client, dur_f, f"{prefix}_duration_max_{year:04d}", p.results_dir
                        )
                        num_f = tasks.index_duration_number(
                            client, dur_f, f"{prefix}_number_{year:04d}", p.results_dir
                        )
                        freq_f = tasks.index_frequency(
                            client, dur_f, p.n_days,
                            f"{prefix}_frequency_{year:04d}", p.results_dir,
                        )
                        stats_f = tasks.validate_and_store(
                            fs, dmax_f, num_f, freq_f, kind, year,
                            p.n_days, p.min_length_days, p.results_dir,
                        )
                        map_f = tasks.make_map(
                            fs, num_f,
                            f"{'Heat' if kind == 'heat' else 'Cold'} Wave Number {year}",
                            f"{prefix}_number_map_{year:04d}", p.results_dir,
                        )
                        futures[f"{prefix}_stats"] = stats_f
                        futures[f"{prefix}_map"] = map_f
                        cube_futures.extend([dur_f, dmax_f, num_f, freq_f])

                    # Step 4b: tropical cyclones.
                    prep_f = tasks.tc_preprocess(
                        fs, days, tasks.CHANNELS if p.with_ml else tasks.TRACK_FIELDS
                    )
                    if p.with_ml:
                        det_f = tasks.tc_inference(
                            tc_model_path, prep_f, p.tc_target_grid
                        )
                        futures["tc_ml_path"] = tasks.tc_georeference(
                            fs, det_f, year, p.results_dir
                        )
                        futures["tc_ml"] = det_f
                    futures["tc_tracks"] = tasks.tc_deterministic_tracking(
                        fs, prep_f, year, p.results_dir
                    )
                    cube_futures.extend([tmax_f, tmin_f])
                    per_year[year] = futures

                # Step 5/6: synchronise, validate, summarise.
                truth = compss_wait_on(truth_f)
                for year, futures in per_year.items():
                    year_summary: Dict[str, Any] = {
                        "heat_waves": compss_wait_on(futures["hw_stats"]),
                        "cold_waves": compss_wait_on(futures["cw_stats"]),
                        "maps": [
                            compss_wait_on(futures["hw_map"]),
                            compss_wait_on(futures["cw_map"]),
                        ],
                    }
                    tracking = compss_wait_on(futures["tc_tracks"])
                    year_summary["tc_deterministic"] = {
                        "n_tracks": len(tracking["tracks"]),
                        "path": tracking["path"],
                        "skill": tasks.score_against_truth(
                            tracking["tracks"],
                            truth[year]["tropical_cyclones"],
                            p.n_days,
                        ),
                    }
                    if p.with_ml:
                        detections = compss_wait_on(futures["tc_ml"])
                        year_summary["tc_ml"] = {
                            "n_detections": len(detections),
                            "path": compss_wait_on(futures["tc_ml_path"]),
                        }
                    summary["years"][year] = year_summary

                # Free datacubes now that everything is exported.
                for cube in compss_wait_on(cube_futures):
                    cube.delete()
                if shared_baseline is not None:
                    for cube in compss_wait_on(list(shared_baseline)):
                        cube.delete()

                # Step 6/7: provenance artefacts.
                summary["task_graph"] = {
                    "n_tasks": len(runtime.graph),
                    "n_edges": len(runtime.graph.edges()),
                    "by_function": dict(runtime.graph.counts_by_function()),
                    "critical_path": runtime.graph.critical_path_length(),
                    "max_width": runtime.graph.max_width(),
                }
                _write_artifact(
                    fs, f"{p.results_dir}/task_graph.dot",
                    runtime.graph.to_dot("extreme_events").encode(),
                )
                registry.gauge(
                    "workflow_pipelined_years",
                    "Years whose analytics were dispatched while the "
                    "simulation was still running (last run)",
                ).set(pipelined_years)
                summary["schedule"] = {
                    "makespan_s": runtime.tracer.makespan(),
                    "esm_analytics_overlap_s": runtime.tracer.overlap_group_seconds(
                        "esm_simulation", ANALYTICS_TASKS
                    ),
                    "worker_utilisation": runtime.tracer.worker_utilisation(p.n_workers),
                    "pipelined_years": pipelined_years,
                }
                if sim_fs is not fs:
                    summary["federation"] = {
                        "sites": federation.sites,
                        "roles": federation.roles,
                        "transfers": federation.dls.total_transfers,
                        "bytes_moved": federation.dls.total_bytes,
                        "transfer_seconds": federation.dls.total_seconds,
                    }
                from repro.workflow.provenance import write_provenance

                summary["provenance_path"] = _retry_transient(
                    lambda: write_provenance(
                        runtime, fs, path=f"{p.results_dir}/provenance.json",
                        params={"years": p.years, "n_days": p.n_days,
                                "scenario": p.scenario, "seed": p.seed},
                        output_dirs=[p.results_dir],
                    )
                )
            finally:
                # Stop the stream poller before COMPSs.__exit__ joins
                # the workers; on a failed run nothing must keep
                # watching the output directory.
                collector.close()
    finally:
        if collector is not None:
            collector.close()
        server.shutdown()

    return summary
