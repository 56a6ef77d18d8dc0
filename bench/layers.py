"""Per-layer metrics: where the spans go and how the numbers are derived.

Layers are named after the packages under ``src/repro/``.  Times come
from the spans `bench/spans.py` records around each layer's public
functions in the traced repetition; counts come from the program's own
public counters (the metrics registry, storage and filesystem stats,
job rows).  README.md maps every metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from spans import Recorder, instrument
from workloads import BRANCH_SLEEP_S, OPHIDIA_CORES, Outcome, Region

MIB = 1024.0 * 1024.0

#: (name, unit, better).  Every name is reported for every workload;
#: a layer a workload does not enter reads 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("esm.step_s", "s", "lower"),
    ("esm.days", "count", "higher"),
    ("esm.days_per_s", "1/s", "higher"),
    ("netcdf.encode_s", "s", "lower"),
    ("netcdf.decode_s", "s", "lower"),
    ("netcdf.encode_mb_per_s", "MiB/s", "higher"),
    ("netcdf.decode_mb_per_s", "MiB/s", "higher"),
    ("cluster.fs_write_s", "s", "lower"),
    ("cluster.fs_read_s", "s", "lower"),
    ("cluster.fs_writes", "count", "lower"),
    ("cluster.fs_reads", "count", "lower"),
    ("cluster.fs_bytes_written", "bytes", "lower"),
    ("cluster.fs_bytes_read", "bytes", "lower"),
    ("cluster.fs_cache_hit_ratio", "ratio", "higher"),
    ("cluster.lsf_jobs", "count", "higher"),
    ("cluster.lsf_pend_p50_s", "s", "lower"),
    ("compss.tasks", "count", "higher"),
    ("compss.edges", "count", "lower"),
    ("compss.submit_s", "s", "lower"),
    ("compss.wait_s", "s", "lower"),
    ("compss.task_body_s", "s", "lower"),
    ("compss.overhead_per_task_us", "us", "lower"),
    ("compss.ready_latency_p50_s", "s", "lower"),
    ("compss.ready_latency_p90_s", "s", "lower"),
    ("compss.worker_utilisation", "ratio", "higher"),
    ("compss.transfer_bytes", "bytes", "lower"),
    ("compss.tasks_retried", "count", "lower"),
    ("compss.tasks_failed", "count", "lower"),
    ("ophidia.import_s", "s", "lower"),
    ("ophidia.plan_s", "s", "lower"),
    ("ophidia.sweep_s", "s", "lower"),
    ("ophidia.sweeps", "count", "lower"),
    ("ophidia.export_s", "s", "lower"),
    ("ophidia.fragment_reads", "count", "lower"),
    ("ophidia.fragment_writes", "count", "lower"),
    ("ophidia.bytes_read", "bytes", "lower"),
    ("ophidia.bytes_written", "bytes", "lower"),
    ("ophidia.chunk_reads", "count", "lower"),
    ("ophidia.chunks_pruned_ratio", "ratio", "higher"),
    ("ophidia.passes_avoided_ratio", "ratio", "higher"),
    ("ophidia.sweep_mb_per_s", "MiB/s", "higher"),
    ("ophidia.backend_fallbacks", "count", "lower"),
    ("ophidia.spills", "count", "lower"),
    ("ophidia.reloads", "count", "lower"),
    ("ophidia.spilled_bytes", "bytes", "lower"),
    ("ophidia.reloaded_bytes", "bytes", "lower"),
    ("ophidia.spill_failures", "count", "lower"),
    ("parallel.map_kernel_s", "s", "lower"),
    ("parallel.kernel_tasks", "count", "lower"),
    ("parallel.worker_kernel_s", "s", "lower"),
    ("parallel.dispatch_overhead_s", "s", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.worker_rss_mb", "MiB", "lower"),
    ("parallel.shm_segments_leaked", "count", "lower"),
    ("ml.inference_s", "s", "lower"),
    ("ml.snapshots", "count", "higher"),
    ("ml.snapshots_per_s", "1/s", "higher"),
    ("ml.train_s", "s", "lower"),
    ("analytics.regrid_s", "s", "lower"),
    ("analytics.tracking_s", "s", "lower"),
    ("analytics.validate_render_s", "s", "lower"),
    ("workflow.dispatch_wait_s", "s", "lower"),
    ("workflow.overlap_s", "s", "higher"),
    ("workflow.pipelined_years", "count", "higher"),
    ("workflow.driver_tail_s", "s", "lower"),
    ("observability.profile_s", "s", "lower"),
    ("observability.export_s", "s", "lower"),
    ("observability.spans", "count", "lower"),
    ("observability.spans_dropped", "count", "lower"),
    ("observability.history_s", "s", "lower"),
    ("hpcwaas.deploy_s", "s", "lower"),
    ("hpcwaas.invoke_s", "s", "lower"),
    ("hpcwaas.invoke_p50_ms", "ms", "lower"),
    ("service.jobs", "count", "higher"),
    ("service.jobs_failed", "count", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.submit_p50_ms", "ms", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.turnaround_p50_s", "s", "lower"),
    ("service.turnaround_p90_s", "s", "lower"),
    ("service.backfill_launches", "count", "higher"),
    ("service.peak_concurrent_runs", "count", "higher"),
    ("service.drain_s", "s", "lower"),
    ("bench.fs_io_mb", "MiB", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.trace_coverage_share", "ratio", "higher"),
]

def instrument_program(rec: Recorder) -> None:
    """Wrap the public entry points of every layer (traced run only)."""
    import repro.analytics.maps as maps
    import repro.analytics.regrid as regrid
    import repro.analytics.tc_tracking as tc_tracking
    import repro.analytics.validation as validation
    import repro.ml.tc_localizer as tc_localizer
    import repro.netcdf.io as ncio
    import repro.observability.export as export
    import repro.observability.profile as profile
    from repro.cluster.filesystem import SharedFilesystem
    from repro.compss.runtime import COMPSsRuntime
    from repro.esm.model import CMCCCM3
    from repro.hpcwaas import Alien4Cloud, HPCWaaSAPI
    from repro.observability.history import RunHistory
    from repro.observability.metrics import MetricsSnapshot
    from repro.ophidia import Cube, OphidiaServer
    from repro.parallel import ProcessPoolBackend
    from repro.service import WorkflowService
    from repro.workflow.extreme_events import YearCollector

    for attr in ("run_year", "write_baseline"):
        instrument(rec, CMCCCM3, attr, "esm")

    instrument(rec, ncio, "write_dataset", "netcdf", "encode", nbytes=int)
    instrument(rec, ncio, "read_dataset", "netcdf", "decode",
               nbytes=lambda ds: ds.nbytes)
    instrument(rec, ncio, "read_variable", "netcdf", "decode",
               nbytes=lambda var: var.nbytes)

    for attr in ("write", "write_bytes"):
        instrument(rec, SharedFilesystem, attr, "cluster", "fs_write")
    for attr in ("read", "read_bytes"):
        instrument(rec, SharedFilesystem, attr, "cluster", "fs_read")

    instrument(rec, COMPSsRuntime, "submit", "compss")
    for attr in ("wait_on", "barrier"):
        instrument(rec, COMPSsRuntime, attr, "compss", "wait")

    for attr in ("from_array", "importnc2"):
        instrument(rec, Cube, attr, "ophidia", "import")
    for attr in ("apply", "transform", "reduce", "reduce2", "intercube",
                 "subset", "runlength", "materialize", "delete"):
        instrument(rec, Cube, attr, "ophidia", "plan")
    for attr in ("to_array", "exportnc2"):
        instrument(rec, Cube, attr, "ophidia", "export")
    for attr in ("sweep", "sweep_kernel", "map_fragments"):
        instrument(rec, OphidiaServer, attr, "ophidia", "sweep")

    instrument(rec, ProcessPoolBackend, "map_kernel", "parallel")

    instrument(rec, tc_localizer, "localize_in_snapshot", "ml", "inference")

    instrument(rec, regrid, "regrid_bilinear", "analytics", "regrid")
    instrument(rec, tc_tracking, "detect_tc_candidates", "analytics", "tracking")
    instrument(rec, tc_tracking, "link_tracks", "analytics", "tracking")
    instrument(rec, validation, "validate_indices", "analytics", "validate_render")
    instrument(rec, maps, "render_ascii_map", "analytics", "validate_render")
    instrument(rec, maps, "render_pgm", "analytics", "validate_render")

    instrument(rec, YearCollector, "collect_year", "workflow", "dispatch_wait")

    instrument(rec, profile, "profile_spans", "observability", "profile")
    instrument(rec, export, "build_perfetto_trace", "observability", "export")
    for attr in ("to_json", "to_prometheus"):
        instrument(rec, MetricsSnapshot, attr, "observability", "export")
    for attr in ("record_start", "record_end", "record_run"):
        instrument(rec, RunHistory, attr, "observability", "history")

    for attr in ("upload_topology", "deploy", "publish_workflow"):
        instrument(rec, Alien4Cloud, attr, "hpcwaas", "deploy")
    instrument(rec, HPCWaaSAPI, "invoke", "hpcwaas", "invoke")

    instrument(rec, WorkflowService, "submit", "service")
    instrument(rec, WorkflowService, "drain", "service")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def fs_io_mb(snapshot: Any) -> float:
    """Shared-FS bytes read + written plus Ophidia spill + reload bytes.

    A count made by the program, not a device measurement.
    """
    return sum(snapshot.value(name) for name in (
        "fs_bytes_read_total", "fs_bytes_written_total",
        "ophidia_spill_bytes_written_total", "ophidia_reload_bytes_total",
    )) / MIB


def layer_metrics(
    rec: Recorder,
    region: Region,
    outcome: Outcome,
    setup_info: Dict[str, float],
    shm_leaked: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition.

    ``bench.trace_overhead_share`` needs the untraced median and is
    filled in by the driver.
    """
    from repro.observability import get_collector
    from repro.observability.metrics import get_registry

    snap = get_registry().snapshot()
    inside = rec.within(region.start, region.end)
    stats = outcome.stats
    makespan = region.makespan_s
    m: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}

    m["esm.step_s"] = inside.self_seconds("esm")
    m["esm.days"] = snap.value("esm_days_written_total")
    m["esm.days_per_s"] = _ratio(m["esm.days"], m["esm.step_s"])

    for kind in ("encode", "decode"):
        spans = inside.select("netcdf", [kind])
        seconds = sum(s.duration for s in spans)
        m[f"netcdf.{kind}_s"] = seconds
        m[f"netcdf.{kind}_mb_per_s"] = _ratio(
            sum(s.nbytes for s in spans) / MIB, seconds)

    m["cluster.fs_write_s"] = inside.self_seconds("cluster", ["fs_write"])
    m["cluster.fs_read_s"] = inside.self_seconds("cluster", ["fs_read"])
    m["cluster.fs_writes"] = (snap.value("fs_operations_total", op="write")
                              + snap.value("fs_operations_total", op="write_bytes"))
    m["cluster.fs_reads"] = (snap.value("fs_operations_total", op="read")
                             + snap.value("fs_operations_total", op="read_bytes"))
    m["cluster.fs_bytes_written"] = snap.value("fs_bytes_written_total")
    m["cluster.fs_bytes_read"] = snap.value("fs_bytes_read_total")
    hits = snap.value("fs_cache_hits_total")
    m["cluster.fs_cache_hit_ratio"] = _ratio(
        hits, hits + snap.value("fs_cache_misses_total"))
    m["cluster.lsf_jobs"] = snap.value("lsf_jobs_total")
    m["cluster.lsf_pend_p50_s"] = _finite(
        snap.quantile("lsf_queue_wait_seconds", 0.5))

    m["compss.tasks"] = stats.get("compss_tasks", 0.0)
    m["compss.edges"] = stats.get("compss_edges", 0.0)
    m["compss.submit_s"] = inside.self_seconds("compss", ["submit"])
    m["compss.wait_s"] = inside.self_seconds("compss", ["wait"])
    m["compss.task_body_s"] = snap.value("compss_task_duration_seconds")
    if "supersteps" in stats and m["compss.tasks"]:
        m["compss.overhead_per_task_us"] = 1e6 * (
            makespan - stats["supersteps"] * BRANCH_SLEEP_S
        ) / m["compss.tasks"]
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        m[f"compss.ready_latency_{label}_s"] = _finite(
            snap.quantile("compss_ready_queue_latency_seconds", q))
    m["compss.worker_utilisation"] = stats.get("compss_worker_utilisation", 0.0)
    m["compss.transfer_bytes"] = snap.value("compss_transfer_bytes_total")
    m["compss.tasks_retried"] = snap.value("compss_tasks_retried_total")
    m["compss.tasks_failed"] = snap.value("compss_tasks_total", state="FAILED")

    for name in ("import", "plan", "sweep", "export"):
        m[f"ophidia.{name}_s"] = inside.self_seconds("ophidia", [name])
    passes = snap.value("ophidia_fragment_passes_run_total")
    avoided = snap.value("ophidia_fragment_passes_avoided_total")
    pruned = snap.value("ophidia_chunks_pruned_total")
    m["ophidia.sweeps"] = passes
    m["ophidia.fragment_reads"] = snap.value("ophidia_fragment_reads_total")
    m["ophidia.fragment_writes"] = snap.value("ophidia_fragment_writes_total")
    m["ophidia.bytes_read"] = snap.value("ophidia_fragment_bytes_read_total")
    m["ophidia.bytes_written"] = snap.value("ophidia_fragment_bytes_written_total")
    m["ophidia.chunk_reads"] = snap.value("ophidia_chunks_read_total")
    m["ophidia.chunks_pruned_ratio"] = _ratio(
        pruned, pruned + m["ophidia.chunk_reads"])
    m["ophidia.passes_avoided_ratio"] = _ratio(avoided, avoided + passes)
    m["ophidia.sweep_mb_per_s"] = _ratio(
        (m["ophidia.bytes_read"] + m["ophidia.bytes_written"]) / MIB,
        m["ophidia.sweep_s"])
    m["ophidia.backend_fallbacks"] = snap.value("ophidia_backend_fallbacks_total")
    m["ophidia.spills"] = snap.value("ophidia_fragments_spilled_total")
    m["ophidia.reloads"] = snap.value("ophidia_fragments_reloaded_total")
    m["ophidia.spilled_bytes"] = snap.value("ophidia_spill_bytes_written_total")
    m["ophidia.reloaded_bytes"] = snap.value("ophidia_reload_bytes_total")
    m["ophidia.spill_failures"] = snap.value("ophidia_spill_failures_total")

    # The program ships worker-side kernel spans home only inside an
    # active trace; Region opened one for this repetition.
    program_spans = get_collector().spans()
    kernels = [s for s in program_spans if s.name == "worker.kernel"]
    m["parallel.map_kernel_s"] = inside.seconds("parallel")
    m["parallel.kernel_tasks"] = float(len(kernels))
    m["parallel.worker_kernel_s"] = sum(s.duration for s in kernels)
    if kernels:
        m["parallel.dispatch_overhead_s"] = (
            m["parallel.map_kernel_s"]
            - m["parallel.worker_kernel_s"] / OPHIDIA_CORES)
    m["parallel.worker_cpu_s"] = snap.value(
        "process_cpu_seconds_total", role="worker")
    rss = snap.to_json().get("process_rss_bytes", {}).get("series", [])
    m["parallel.worker_rss_mb"] = max(
        (s["value"] for s in rss if s["labels"].get("role") == "worker"),
        default=0.0) / MIB
    m["parallel.shm_segments_leaked"] = float(shm_leaked)

    inference = inside.select("ml", ["inference"])
    m["ml.inference_s"] = sum(s.duration for s in inference)
    m["ml.snapshots"] = float(len(inference))
    m["ml.snapshots_per_s"] = _ratio(m["ml.snapshots"], m["ml.inference_s"])
    m["ml.train_s"] = setup_info.get("ml_train_s", 0.0)

    for name in ("regrid", "tracking", "validate_render"):
        m[f"analytics.{name}_s"] = inside.self_seconds("analytics", [name])

    m["workflow.dispatch_wait_s"] = inside.seconds("workflow", ["dispatch_wait"])
    m["workflow.overlap_s"] = stats.get("overlap_s", 0.0)
    m["workflow.pipelined_years"] = stats.get("pipelined_years", 0.0)
    if "schedule_makespan_s" in stats:
        m["workflow.driver_tail_s"] = makespan - stats["schedule_makespan_s"]

    m["observability.profile_s"] = inside.self_seconds("observability", ["profile"])
    m["observability.export_s"] = inside.self_seconds("observability", ["export"])
    m["observability.history_s"] = inside.self_seconds("observability", ["history"])
    m["observability.spans"] = float(len(program_spans))
    m["observability.spans_dropped"] = float(get_collector().dropped)

    # The deploy happens before the timer starts (set-up); the traced
    # repetition's own deploy is the layer's number.
    m["hpcwaas.deploy_s"] = rec.seconds("hpcwaas", ["deploy"])
    invokes = inside.select("hpcwaas", ["invoke"])
    m["hpcwaas.invoke_s"] = sum(s.duration for s in invokes)
    m["hpcwaas.invoke_p50_ms"] = 1e3 * _median([s.duration for s in invokes])

    submits = inside.select("service", ["submit"])
    m["service.jobs"] = stats.get("service_jobs", 0.0)
    m["service.jobs_failed"] = stats.get("service_jobs_failed", 0.0)
    m["service.submit_s"] = sum(s.duration for s in submits)
    m["service.submit_p50_ms"] = 1e3 * _median([s.duration for s in submits])
    for name in ("queue_wait_p50_s", "turnaround_p50_s", "turnaround_p90_s",
                 "peak_concurrent_runs"):
        m[f"service.{name}"] = stats.get(f"service_{name}", 0.0)
    m["service.backfill_launches"] = snap.value("service_backfill_launches_total")
    m["service.drain_s"] = inside.seconds("service", ["drain"])

    m["bench.fs_io_mb"] = fs_io_mb(snap)
    m["bench.trace_coverage_share"] = rec.coverage(region.start, region.end)
    return m
