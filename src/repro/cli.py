"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Execute the full extreme-events workflow on a simulated cluster.
``run-distributed``
    Execute it across a two-site HPC+Cloud federation.
``simulate``
    Run only the ESM, writing daily files (plus ground truth) to a
    directory.
``indices``
    Compute heat-wave index maps from a directory of daily files.
``chaos``
    Run the workflow under a seeded fault schedule (node crash, flaky
    I/O, task failures) and verify recovery reproduces a fault-free run.
``analyze``
    Profile a finished run (trace.json / run_summary.json): critical
    path, per-worker utilization, stragglers, what-if estimates.
``history``
    Query the persistent run-history store: list runs, show one, or
    compare two runs' headline metrics (exits nonzero on drift with
    ``--fail-on-drift``).
``tail``
    Follow a structured event log (events.jsonl) live, with severity
    and component filtering.
``slo``
    Evaluate declarative SLO rules against a finished run's metrics;
    exits nonzero on critical breaches.
``service``
    Operate the multi-tenant workflow service: create the control-plane
    database, manage tenants and quotas, inspect job queues, and run
    the fair-share launcher over the demo workflows.
``submit``
    Enqueue a workflow job for a tenant into the service database; a
    running (or later-started) ``service run`` launches it.
``top``
    Live per-tenant fleet view (tenants, jobs, worker CPU/RSS, ready
    queue, recent events) assembled from runs.db and events.jsonl.
``info``
    Print the component inventory and version.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _add_workflow_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--years", type=int, nargs="+", default=[2030])
    parser.add_argument("--days", type=int, default=30)
    parser.add_argument("--n-lat", type=int, default=24)
    parser.add_argument("--n-lon", type=int, default=36)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--scenario", default="ssp245")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--min-length", type=int, default=6,
                        help="minimum wave length in days")
    parser.add_argument("--with-ml", action="store_true",
                        help="enable the CNN TC localizer")
    parser.add_argument("--pace", type=float, default=0.0, metavar="SECONDS",
                        help="wall-clock pacing per simulated day (makes "
                             "ESM/analytics overlap visible in profiles)")
    parser.add_argument("--scratch", default=None,
                        help="cluster scratch directory (kept after the run)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="copy the merged Perfetto trace JSON here")
    parser.add_argument("--worker-cache-mb", type=float, default=None,
                        metavar="MB",
                        help="per-worker resident-set budget for task "
                             "outputs (default 256; 0 disables)")
    parser.add_argument("--fs-cache-mb", type=float, default=None,
                        metavar="MB",
                        help="shared-filesystem block-cache budget "
                             "(default 64; 0 disables)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the whole in-memory reuse layer "
                             "(worker resident sets + FS block cache)")
    parser.add_argument("--runs-db", default=None, metavar="PATH",
                        help="persist this run into the given run-history "
                             "database (default: $REPRO_RUNS_DB if set)")
    parser.add_argument("--slo", dest="slo_rules", default=None,
                        metavar="RULES.yaml",
                        help="evaluate these SLO rules live during the run "
                             "(breaches become slo_breach events)")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="write the structured event log here (default: "
                             "<results>/events.jsonl on the cluster FS)")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread",
                        help="execution backend for Ophidia fragment sweeps "
                             "and the ESM baseline: 'thread' (default) or "
                             "'process' (spawned workers, shared-memory "
                             "array transport)")
    parser.add_argument("--cores-per-node", type=int, default=4,
                        metavar="N",
                        help="cores per simulated cluster node (explicit "
                             "and deterministic; default 4)")
    parser.add_argument("--ophidia-memory-budget-mb", type=float, default=None,
                        metavar="MB",
                        help="resident-fragment byte budget per Ophidia IO "
                             "server; LRU fragments spill compressed to the "
                             "shared FS and reload transparently (default 0 "
                             "= no tiering)")
    parser.add_argument("--ophidia-spill-dir", default=None, metavar="DIR",
                        help="directory for spilled fragment files (default: "
                             "<cluster fs>/ophidia_spill when a budget is "
                             "set)")


def _params_from_args(args) -> "WorkflowParams":
    from repro.workflow import WorkflowParams

    kwargs = {}
    if args.no_cache:
        kwargs["worker_cache_bytes"] = 0
        kwargs["fs_cache_bytes"] = 0
    else:
        if args.worker_cache_mb is not None:
            kwargs["worker_cache_bytes"] = int(args.worker_cache_mb * 2**20)
        if args.fs_cache_mb is not None:
            kwargs["fs_cache_bytes"] = int(args.fs_cache_mb * 2**20)
    if args.ophidia_memory_budget_mb is not None:
        kwargs["ophidia_memory_budget_bytes"] = int(
            args.ophidia_memory_budget_mb * 2**20
        )
    if args.ophidia_spill_dir is not None:
        kwargs["ophidia_spill_dir"] = args.ophidia_spill_dir
    return WorkflowParams(
        years=args.years, n_days=args.days, n_lat=args.n_lat, n_lon=args.n_lon,
        n_workers=args.workers, scenario=args.scenario, seed=args.seed,
        min_length_days=args.min_length, with_ml=args.with_ml,
        pace_seconds=args.pace,
        execution_backend=args.backend,
        cluster_cores_per_node=args.cores_per_node,
        runs_db=args.runs_db, slo_rules_path=args.slo_rules,
        events_path=args.events_out, **kwargs,
    )


def _export_trace(fs, params, trace_out: "str | None") -> None:
    """Copy the run's merged trace JSON from *fs* to a host path."""
    if not trace_out:
        return
    with open(trace_out, "wb") as fh:
        fh.write(fs.read_bytes(f"{params.results_dir}/trace.json"))
    print(f"# trace: {trace_out}", file=sys.stderr)


def _cmd_run(args) -> int:
    from repro.cluster import laptop_like
    from repro.workflow import run_extreme_events_workflow

    params = _params_from_args(args)
    with laptop_like(
        scratch_root=args.scratch,
        cores_per_node=params.cluster_cores_per_node,
    ) as cluster:
        summary = run_extreme_events_workflow(cluster, params)
        print(json.dumps(summary, indent=1, default=str))
        print(f"# artefacts: {cluster.filesystem.root}/results/", file=sys.stderr)
        _export_trace(cluster.filesystem, params, args.trace_out)
    return 0


def _cmd_run_distributed(args) -> int:
    import os

    from repro.cluster import Cluster, Node
    from repro.hpcwaas import FederatedDataLogistics, Federation
    from repro.workflow import run_distributed_extreme_events

    params = _params_from_args(args)
    cores = params.cluster_cores_per_node
    dls = FederatedDataLogistics(wan_bandwidth_mbps=args.wan_mbps)
    with Federation(dls=dls) as fed:
        for name, node, role in (
            ("hpc-sim", Node("h1", 2 * cores, 32.0), "simulation"),
            ("cloud-sim", Node("c1", cores, 16.0), "analytics"),
        ):
            root = os.path.join(args.scratch, name) if args.scratch else None
            fed.add_site(Cluster(name, [node], scratch_root=root), role=role)
        summary = run_distributed_extreme_events(fed, params)
        print(json.dumps(summary, indent=1, default=str))
        ana_fs = fed.for_role("analytics").filesystem
        print(f"# artefacts: {ana_fs.root}/results/", file=sys.stderr)
        _export_trace(ana_fs, params, args.trace_out)
    return 0


def _metrics_selftest() -> int:
    """Exercise the registry, spans and exporters end to end."""
    from repro.observability import (
        MetricsRegistry, TraceCollector, build_perfetto_trace,
        record_span, render_run_report, span,
    )

    registry = MetricsRegistry()
    registry.counter("selftest_total", "Selftest counter",
                     labels=("case",)).inc(case="counter")
    registry.gauge("selftest_gauge", "Selftest gauge").set(1.0)
    registry.histogram("selftest_seconds", "Selftest histogram").observe(0.01)
    snap = registry.snapshot()
    assert snap.value("selftest_total", case="counter") == 1
    assert "selftest_total" in snap.to_prometheus()
    assert registry.snapshot().delta(snap).value(
        "selftest_total", case="counter"
    ) == 0, "idle counter delta must be zero"

    collector = TraceCollector()
    with span("selftest.root", layer="workflow", collector=collector) as root:
        with span("selftest.child", layer="compss", collector=collector):
            pass
        record_span("selftest.recorded", layer="scheduler", start=0.0, end=0.1,
                    parent=root.context, collector=collector)
    spans = collector.spans()
    assert len(spans) == 3
    assert len({s.trace_id for s in spans}) == 1

    trace = json.loads(build_perfetto_trace(spans))
    assert any(ev.get("ph") == "X" for ev in trace["traceEvents"])
    report = render_run_report(snap, spans, title="selftest")
    assert "selftest" in report

    n_series = sum(len(f["series"]) for f in snap.to_json().values())
    print(f"observability selftest: OK ({len(spans)} spans, "
          f"{n_series} series)")
    return 0


def _cmd_metrics(args) -> int:
    from repro.observability import get_registry, snapshot_from_json

    if args.selftest:
        return _metrics_selftest()
    if getattr(args, "from_path", None):
        with open(args.from_path) as fh:
            snap = snapshot_from_json(json.load(fh))
    else:
        snap = get_registry().snapshot()
    if args.format == "json":
        print(json.dumps(snap.to_json(), indent=1))
    else:
        print(snap.to_prometheus(), end="")
    return 0


def _cmd_simulate(args) -> int:
    from repro.cluster import SharedFilesystem
    from repro.esm import CMCCCM3, ModelConfig

    fs = SharedFilesystem(args.output)
    model = CMCCCM3(ModelConfig(
        n_lat=args.n_lat, n_lon=args.n_lon, scenario=args.scenario,
        seed=args.seed,
    ))
    truth = model.run(args.years, fs, output_dir=".", n_days=args.days)
    model.write_baseline(fs, path="climatology.rnc", n_days=args.days)
    for year, events in truth.items():
        print(f"{year}: {len(events['heat_waves'])} heat waves, "
              f"{len(events['cold_waves'])} cold waves, "
              f"{len(events['tropical_cyclones'])} tropical cyclones")
    print(f"# wrote {len(args.years) * args.days} daily files to {fs.root}",
          file=sys.stderr)
    return 0


def _cmd_indices(args) -> int:
    from repro.analytics import compute_heatwave_indices, render_ascii_map, validate_indices
    from repro.cluster import SharedFilesystem
    from repro.netcdf import read_dataset, read_variable
    import numpy as np

    fs = SharedFilesystem(args.data_dir)
    day_files = fs.glob(".", "cmcc_cm3_*.rnc")
    if not day_files:
        print(f"no cmcc_cm3_*.rnc files in {args.data_dir}", file=sys.stderr)
        return 2
    tmax = np.stack([
        fs.read(path, variables=["TREFHTMX"])["TREFHTMX"].data[0]
        for path in day_files
    ])
    baseline = fs.read(args.baseline, variables=["TMAX_BASELINE"])
    base = baseline["TMAX_BASELINE"].data[: tmax.shape[0]]
    indices = compute_heatwave_indices(
        tmax.astype(np.float64), base.astype(np.float64),
        min_length_days=args.min_length,
    )
    stats = validate_indices(indices, n_days=tmax.shape[0],
                             min_length_days=args.min_length)
    print(render_ascii_map(indices.number, title="Heat Wave Number"))
    print(json.dumps(stats, indent=1))
    return 0


def _cmd_chaos(args) -> int:
    from repro.cluster import laptop_like
    from repro.faults import FaultPlan, NodeCrash, run_chaos_experiment
    from repro.workflow import WorkflowParams

    crashes = []
    for node in args.kill_node or ():
        if args.at_seconds is not None:
            crashes.append(NodeCrash(node, at_seconds=args.at_seconds))
        else:
            crashes.append(NodeCrash(node, after_fs_writes=args.after_writes))
    plan = FaultPlan(
        seed=args.seed,
        fs_error_rate=args.fs_error_rate,
        task_error_rate=args.task_error_rate,
        transfer_error_rate=args.transfer_error_rate,
        node_crashes=tuple(crashes),
    )
    params = WorkflowParams(
        years=args.years, n_days=args.days, n_workers=args.workers,
        seed=args.seed, with_ml=args.with_ml,
        min_length_days=min(6, args.days),
        runs_db=args.runs_db, slo_rules_path=args.slo_rules,
        events_path=args.events_out,
    )
    # The reference and chaos runs each get their own cluster; when the
    # user pins a scratch directory, keep the two roots apart.
    import itertools
    import os

    cluster_ids = itertools.count(1)

    def make_cluster():
        root = None
        if args.scratch:
            root = os.path.join(args.scratch, f"cluster{next(cluster_ids)}")
        return laptop_like(scratch_root=root)

    print(f"# {plan.describe()}", file=sys.stderr)
    report = run_chaos_experiment(
        plan, params,
        make_cluster=make_cluster,
        max_workflow_attempts=args.max_attempts,
        log=lambda msg: print(f"# {msg}", file=sys.stderr),
    )
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report, fh, indent=1, default=str)
    print(json.dumps(report, indent=1, default=str))
    verdict = "MATCH" if report["match"] else "MISMATCH"
    counters = report["counters"]
    print(
        f"# {verdict}: attempts={report['workflow_attempts']} "
        f"faults_injected={counters['faults_injected_total']:g} "
        f"tasks_retried={counters['compss_tasks_retried_total']:g} "
        f"jobs_requeued={counters['lsf_jobs_requeued_total']:g}",
        file=sys.stderr,
    )
    return 0 if report["match"] else 1


def _cmd_analyze(args) -> int:
    """Profile a finished run: critical path, timelines, what-ifs."""
    from repro.observability import profile_from_perfetto, render_profile
    from repro.workflow.extreme_events import ANALYTICS_TASKS

    with open(args.from_path) as fh:
        payload = json.load(fh)

    if "traceEvents" in payload:
        profile = profile_from_perfetto(
            payload,
            esm_functions=("esm_simulation",),
            analytics_functions=ANALYTICS_TASKS,
            what_if_top_k=args.top,
        ).to_json()
    elif "profile" in payload and isinstance(payload["profile"], dict):
        profile = payload["profile"]  # a run_summary.json
    elif "critical_path_s" in payload:
        profile = payload  # an exported profile.json
    else:
        print(f"{args.from_path}: neither a Perfetto trace, a "
              "run_summary.json, nor a profile.json", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(profile, indent=1))
    else:
        print(render_profile(profile, top=args.top), end="")
    return 0


def _open_history(args) -> "RunHistory | None":
    from repro.observability.history import RunHistory, default_history_path

    db_path = args.db or default_history_path()
    if not db_path:
        print("no runs database: pass --db PATH or set $REPRO_RUNS_DB",
              file=sys.stderr)
        return None
    return RunHistory(db_path)


def _cmd_history(args) -> int:
    """Query the persistent run-history store."""
    from repro.observability.history import (
        render_comparison, render_run, render_run_table,
    )

    history = _open_history(args)
    if history is None:
        return 2
    if args.history_command == "list":
        records = history.list_runs(limit=args.limit, kind=args.kind)
        if args.format == "json":
            print(json.dumps([r.to_json() for r in records], indent=1))
        else:
            print(render_run_table(records), end="")
        return 0
    if args.history_command == "show":
        try:
            record = history.get(args.run_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(record.to_json(), indent=1))
        else:
            print(render_run(record), end="")
        return 0
    # compare
    try:
        report = history.compare(args.run_a, args.run_b)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.format == "json":
        print(json.dumps(report, indent=1))
    else:
        print(render_comparison(report), end="")
    if args.fail_on_drift and report["drifted"]:
        return 1
    return 0


def _cmd_tail(args) -> int:
    """Follow (or dump) a structured events.jsonl, with filtering."""
    from repro.observability.events import render_event, tail_events

    try:
        for event in tail_events(
            args.path, min_severity=args.level, component=args.component,
            follow=args.follow, poll_interval=args.poll_interval,
        ):
            print(render_event(event), flush=args.follow)
    except FileNotFoundError:
        print(f"{args.path}: no such event log", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _cmd_slo(args) -> int:
    """Post-hoc SLO evaluation: exit 1 on critical breaches."""
    from repro.observability.export import _looks_like_snapshot
    from repro.observability.slo import (
        evaluate_rules, load_slo_rules, render_slo_report, slo_report,
    )

    try:
        rules = load_slo_rules(args.rules)
    except (OSError, ValueError) as exc:
        print(f"bad SLO rules {args.rules}: {exc}", file=sys.stderr)
        return 2

    if args.run_id:
        history = _open_history(args)
        if history is None:
            return 2
        try:
            snapshot = history.get(args.run_id).metrics
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if not snapshot:
            print(f"run {args.run_id} has no metrics snapshot",
                  file=sys.stderr)
            return 2
    else:
        with open(args.from_path) as fh:
            payload = json.load(fh)
        snapshot = payload.get("metrics", payload)
        if not _looks_like_snapshot(snapshot):
            print(f"{args.from_path}: neither a metrics.json nor a "
                  "run_summary.json", file=sys.stderr)
            return 2

    results = evaluate_rules(rules, snapshot)
    report = slo_report(results)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.format == "json":
        print(json.dumps(report, indent=1))
    else:
        print(render_slo_report(results), end="")
    return 1 if report["critical_breaches"] else 0


def _open_service_db(args) -> "ServiceDB | None":
    from repro.observability.history import default_history_path
    from repro.service import ServiceDB

    db_path = args.db or default_history_path()
    if not db_path:
        print("no service database: pass --db PATH or set $REPRO_RUNS_DB",
              file=sys.stderr)
        return None
    return ServiceDB(db_path)


def _parse_params(pairs) -> dict:
    """``key=value`` pairs; values parse as JSON when possible."""
    params = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --param {pair!r}: expected key=value")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def _cmd_service(args) -> int:
    """The multi-tenant workflow service control plane."""
    db = _open_service_db(args)
    if db is None:
        return 2
    # runs.db is released on return, not when the last job thread that
    # shares the connection lets go of it.
    with db:
        return _service_command(args, db)


def _service_command(args, db) -> int:
    from repro.service import JobState

    if args.service_command == "init":
        print(f"service database ready: {db.path} "
              f"(schema v{db.schema_version()})")
        return 0

    if args.service_command == "add-tenant":
        try:
            tenant = db.add_tenant(
                args.name, share=args.share, max_running=args.max_running,
                max_cores=args.max_cores,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps(tenant.to_json(), indent=1))
        return 0

    if args.service_command == "tenants":
        tenants = [t.to_json() for t in db.list_tenants()]
        if args.format == "json":
            print(json.dumps(tenants, indent=1))
        else:
            print(f"{'TENANT':16s} {'SHARE':>6s} {'MAX_RUN':>8s} "
                  f"{'MAX_CORES':>10s}")
            for t in tenants:
                print(f"{t['name']:16s} {t['share']:6g} "
                      f"{t['max_running']:8d} {t['max_cores']:10d}")
        return 0

    if args.service_command == "jobs":
        state = JobState(args.state) if args.state else None
        jobs = db.jobs(tenant=args.tenant, state=state)
        if args.format == "json":
            print(json.dumps([j.to_json() for j in jobs], indent=1))
        else:
            print(f"{'JOB':12s} {'TENANT':12s} {'WORKFLOW':24s} "
                  f"{'STATE':10s} {'CORES':>5s} {'BF':>2s} {'TURNAROUND':>10s}")
            for j in jobs:
                turnaround = (f"{j.turnaround_s:.2f}s"
                              if j.turnaround_s is not None else "-")
                print(f"{j.job_id:12s} {j.tenant:12s} {j.workflow:24s} "
                      f"{j.state.value:10s} {j.cores:5d} "
                      f"{'y' if j.backfilled else '-':>2s} {turnaround:>10s}")
        return 0

    # run: drain the queued jobs through the fair-share launcher.
    from repro.cluster import laptop_like
    from repro.service import WorkflowService, build_demo_services

    with laptop_like(
        scratch_root=args.scratch, cores_per_node=args.cores_per_node,
    ) as cluster:
        _a4c, api = build_demo_services(cluster)
        service = WorkflowService(db, api, cluster, site=args.site)
        with service:
            queued = len(db.jobs(state=JobState.SUBMITTED))
            print(f"# service up on {cluster.name}: {queued} queued job(s)",
                  file=sys.stderr)
            try:
                service.drain(timeout=args.timeout)
            except TimeoutError as exc:
                print(f"# {exc}", file=sys.stderr)
                return 1
        report = service.report()
        if args.report_out:
            with open(args.report_out, "w") as fh:
                json.dump(report, fh, indent=1)
        print(json.dumps(report, indent=1))
    return 0


def _cmd_submit(args) -> int:
    """Enqueue a job for a tenant; ``service run`` launches it."""
    db = _open_service_db(args)
    if db is None:
        return 2
    try:
        job = db.submit_job(
            args.tenant, args.workflow, params=_parse_params(args.param),
            cores=args.cores, memory_gb=args.memory_gb,
        )
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    print(json.dumps(job.to_json(), indent=1))
    return 0


def _cmd_top(args) -> int:
    """Live per-tenant fleet view assembled from runs.db + events.jsonl."""
    import time

    from repro.service.top import gather_top_state, render_top

    db = _open_service_db(args)
    if db is None:
        return 2
    if args.once:
        state = gather_top_state(db, events_path=args.events,
                                 limit=args.limit)
        if args.format == "json":
            print(json.dumps(state, indent=1))
        else:
            print(render_top(state), end="")
        return 0
    try:
        while True:
            state = gather_top_state(db, events_path=args.events,
                                     limit=args.limit)
            # Clear screen + home, then redraw — a full-screen live view.
            sys.stdout.write("\x1b[2J\x1b[H" + render_top(state))
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        sys.stdout.write("\n")
    return 0


def _cmd_report(args) -> int:
    from repro.analytics import generate_report

    with open(args.summary) as fh:
        summary = json.load(fh)
    print(generate_report(summary, title=args.title))
    return 0


def _cmd_info(args) -> int:
    import repro

    components = {
        "compss": "PyCOMPSs-style task runtime",
        "ophidia": "datacube HPDA framework",
        "esm": "coupled CMCC-CM3-like simulator",
        "ml": "NumPy CNN for TC localization",
        "analytics": "climate indices + TC tracking",
        "hpcwaas": "eFlows4HPC orchestration stack",
        "cluster": "simulated LSF cluster + shared FS",
        "netcdf": "RNC container format",
        "workflow": "the extreme-events case study",
    }
    print(f"repro {getattr(repro, '__version__', '1.0.0')} — "
          "End-to-End Workflows for Climate Science (SC-W 2023) reproduction")
    for name, desc in components.items():
        print(f"  repro.{name:10s} {desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full workflow")
    _add_workflow_args(run)
    run.set_defaults(fn=_cmd_run)

    dist = sub.add_parser("run-distributed", help="run across a federation")
    _add_workflow_args(dist)
    dist.add_argument("--wan-mbps", type=float, default=200.0)
    dist.set_defaults(fn=_cmd_run_distributed)

    sim = sub.add_parser("simulate", help="run only the ESM")
    sim.add_argument("output", help="output directory for daily files")
    sim.add_argument("--years", type=int, nargs="+", default=[2030])
    sim.add_argument("--days", type=int, default=30)
    sim.add_argument("--n-lat", type=int, default=24)
    sim.add_argument("--n-lon", type=int, default=36)
    sim.add_argument("--scenario", default="ssp245")
    sim.add_argument("--seed", type=int, default=42)
    sim.set_defaults(fn=_cmd_simulate)

    idx = sub.add_parser("indices", help="heat-wave indices from daily files")
    idx.add_argument("data_dir", help="directory with cmcc_cm3_*.rnc files")
    idx.add_argument("--baseline", default="climatology.rnc",
                     help="baseline file (relative to data_dir)")
    idx.add_argument("--min-length", type=int, default=6)
    idx.set_defaults(fn=_cmd_indices)

    metrics = sub.add_parser(
        "metrics", help="dump telemetry metrics as Prometheus text or JSON"
    )
    metrics.add_argument("--from", dest="from_path", default=None,
                         metavar="PATH",
                         help="read a metrics.json or run_summary.json "
                              "instead of the in-process registry")
    metrics.add_argument("--format", choices=("prom", "json"), default="prom")
    metrics.add_argument("--selftest", action="store_true",
                         help="exercise registry, spans and exporters")
    metrics.set_defaults(fn=_cmd_metrics)

    chaos = sub.add_parser(
        "chaos",
        help="run the workflow under injected faults and verify recovery",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="seeds the fault decision stream (reproducible)")
    chaos.add_argument("--kill-node", action="append", metavar="NAME",
                       help="crash this node mid-run (repeatable; the "
                            "default cluster has nodes local1, local2)")
    chaos.add_argument("--after-writes", type=int, default=5,
                       help="crash trigger: after N shared-FS writes")
    chaos.add_argument("--at-seconds", type=float, default=None,
                       help="crash trigger: wall-clock seconds after start "
                            "(overrides --after-writes)")
    chaos.add_argument("--fs-error-rate", type=float, default=0.0,
                       help="probability an FS data op raises a transient "
                            "I/O error")
    chaos.add_argument("--task-error-rate", type=float, default=0.0,
                       help="probability a task body raises on entry")
    chaos.add_argument("--transfer-error-rate", type=float, default=0.0,
                       help="probability a task with remote deps fails its "
                            "transfer")
    chaos.add_argument("--years", type=int, nargs="+", default=[2030])
    chaos.add_argument("--days", type=int, default=12)
    chaos.add_argument("--workers", type=int, default=4)
    chaos.add_argument("--with-ml", action="store_true")
    chaos.add_argument("--max-attempts", type=int, default=4,
                       help="whole-workflow executions before giving up")
    chaos.add_argument("--scratch", default=None)
    chaos.add_argument("--report-out", default=None, metavar="PATH",
                       help="also write the JSON report here")
    chaos.add_argument("--runs-db", default=None, metavar="PATH",
                       help="persist the experiment (and its workflow "
                            "attempts) into this run-history database")
    chaos.add_argument("--slo", dest="slo_rules", default=None,
                       metavar="RULES.yaml",
                       help="SLO rules evaluated live during each attempt")
    chaos.add_argument("--events-out", default=None, metavar="PATH",
                       help="write the structured event log here")
    chaos.set_defaults(fn=_cmd_chaos)

    analyze = sub.add_parser(
        "analyze",
        help="profile a finished run: critical path, utilization, what-ifs",
    )
    analyze.add_argument("--from", dest="from_path", required=True,
                         metavar="PATH",
                         help="a trace.json (Perfetto), run_summary.json, "
                              "or profile.json from a finished run")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--top", type=int, default=10,
                         help="contributors/what-ifs to show (default 10)")
    analyze.set_defaults(fn=_cmd_analyze)

    history = sub.add_parser(
        "history",
        help="query the persistent run-history store (runs.db)",
    )
    history_sub = history.add_subparsers(dest="history_command", required=True)
    h_list = history_sub.add_parser("list", help="recent runs, newest first")
    h_list.add_argument("--limit", type=int, default=20)
    h_list.add_argument("--kind", default=None,
                        help="filter by run kind (run, run-distributed, "
                             "chaos)")
    h_show = history_sub.add_parser("show", help="one run in full")
    h_show.add_argument("run_id", help="run id (unique prefix accepted)")
    h_compare = history_sub.add_parser(
        "compare",
        help="diff two runs' headline metrics and critical-path "
             "attribution; flags drift beyond the per-metric tolerances",
    )
    h_compare.add_argument("run_a", help="baseline run id (prefix ok)")
    h_compare.add_argument("run_b", help="candidate run id (prefix ok)")
    h_compare.add_argument("--fail-on-drift", action="store_true",
                           help="exit 1 when any metric drifts beyond "
                                "tolerance (CI gating)")
    h_compare.add_argument("--report-out", default=None, metavar="PATH",
                           help="also write the comparison JSON here")
    for sp in (h_list, h_show, h_compare):
        sp.add_argument("--db", default=None, metavar="PATH",
                        help="runs database (default: $REPRO_RUNS_DB)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
    history.set_defaults(fn=_cmd_history)

    tail = sub.add_parser(
        "tail", help="follow a structured event log (events.jsonl)"
    )
    tail.add_argument("path", help="path to an events.jsonl")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep watching for new events (like tail -f)")
    tail.add_argument("--level", default="DEBUG",
                      choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                      help="minimum severity to show")
    tail.add_argument("--component", default=None,
                      help="only events from this component (workflow, "
                           "compss, lsf, ophidia, chaos, faults, slo)")
    tail.add_argument("--poll-interval", type=float, default=0.2,
                      metavar="SECONDS",
                      help="base sleep between --follow polls; backs off "
                           "geometrically (up to 16x) while the log is idle "
                           "(default 0.2)")
    tail.set_defaults(fn=_cmd_tail)

    slo = sub.add_parser(
        "slo", help="evaluate SLO rules against a finished run"
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    s_check = slo_sub.add_parser(
        "check",
        help="post-hoc SLO evaluation; exit 1 on critical breaches",
    )
    s_check.add_argument("--rules", required=True, metavar="RULES.yaml",
                         help="declarative SLO rules (YAML)")
    source = s_check.add_mutually_exclusive_group(required=True)
    source.add_argument("--from", dest="from_path", metavar="PATH",
                        help="a metrics.json or run_summary.json")
    source.add_argument("--run", dest="run_id", metavar="RUN_ID",
                        help="evaluate a persisted run's metrics snapshot")
    s_check.add_argument("--db", default=None, metavar="PATH",
                         help="runs database for --run "
                              "(default: $REPRO_RUNS_DB)")
    s_check.add_argument("--format", choices=("text", "json"), default="text")
    s_check.add_argument("--report-out", default=None, metavar="PATH",
                         help="also write the report JSON here")
    s_check.set_defaults(fn=_cmd_slo)

    service = sub.add_parser(
        "service",
        help="multi-tenant workflow service (tenants, quotas, launcher)",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)
    sv_init = service_sub.add_parser(
        "init", help="create (or migrate) the service database"
    )
    sv_add = service_sub.add_parser("add-tenant", help="register a tenant")
    sv_add.add_argument("name")
    sv_add.add_argument("--share", type=float, default=1.0,
                        help="fair-share weight (default 1.0)")
    sv_add.add_argument("--max-running", type=int, default=4,
                        help="max concurrently running jobs (0 disables "
                             "the tenant; default 4)")
    sv_add.add_argument("--max-cores", type=int, default=0,
                        help="max concurrently held cores (0 = unlimited)")
    sv_tenants = service_sub.add_parser("tenants", help="list tenants")
    sv_jobs = service_sub.add_parser("jobs", help="list service jobs")
    sv_jobs.add_argument("--tenant", default=None,
                         help="only this tenant's jobs")
    sv_jobs.add_argument("--state", default=None,
                         choices=("SUBMITTED", "LAUNCHED", "RUNNING",
                                  "COMPLETED", "FAILED", "CANCELLED"))
    sv_run = service_sub.add_parser(
        "run",
        help="start the fair-share launcher over the demo workflows and "
             "drain the queued jobs",
    )
    sv_run.add_argument("--site", default="laptop",
                        help="site name recorded on job rows")
    sv_run.add_argument("--timeout", type=float, default=300.0,
                        help="max seconds to wait for the queue to drain")
    sv_run.add_argument("--scratch", default=None,
                        help="cluster scratch directory (kept after the run)")
    sv_run.add_argument("--cores-per-node", type=int, default=4, metavar="N")
    sv_run.add_argument("--report-out", default=None, metavar="PATH",
                        help="also write the per-tenant report JSON here")
    for sp in (sv_init, sv_add, sv_tenants, sv_jobs, sv_run):
        sp.add_argument("--db", default=None, metavar="PATH",
                        help="service database (default: $REPRO_RUNS_DB)")
    for sp in (sv_tenants, sv_jobs):
        sp.add_argument("--format", choices=("text", "json"), default="text")
    service.set_defaults(fn=_cmd_service)

    submit = sub.add_parser(
        "submit",
        help="enqueue a workflow job for a tenant into the service database",
    )
    submit.add_argument("tenant", help="tenant submitting the job")
    submit.add_argument("workflow",
                        help="deployed workflow id (e.g. esm-ensemble-member, "
                             "heatwave-analytics)")
    submit.add_argument("--cores", type=int, default=1)
    submit.add_argument("--memory-gb", type=float, default=0.0)
    submit.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="workflow parameter (repeatable; values parse "
                             "as JSON when possible)")
    submit.add_argument("--db", default=None, metavar="PATH",
                        help="service database (default: $REPRO_RUNS_DB)")
    submit.set_defaults(fn=_cmd_submit)

    top = sub.add_parser(
        "top",
        help="live per-tenant fleet view (tenants, jobs, worker CPU/RSS, "
             "queue depth, recent events) from runs.db + events.jsonl",
    )
    top.add_argument("--db", default=None, metavar="PATH",
                     help="service database (default: $REPRO_RUNS_DB)")
    top.add_argument("--events", default=None, metavar="PATH",
                     help="also show the tail of this events.jsonl")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (for scripting)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="refresh period for the live view (default 2)")
    top.add_argument("--limit", type=int, default=10,
                     help="rows per table (default 10)")
    top.add_argument("--format", choices=("text", "json"), default="text",
                     help="with --once, emit the raw state as JSON")
    top.set_defaults(fn=_cmd_top)

    report = sub.add_parser("report", help="Markdown report from a run summary")
    report.add_argument("summary", help="path to a run_summary.json")
    report.add_argument("--title", default="Climate extremes run report")
    report.set_defaults(fn=_cmd_report)

    info = sub.add_parser("info", help="component inventory")
    info.set_defaults(fn=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
