"""Command-line interface: ``python -m repro <command>``; ``--help`` lists the commands."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

#: Per-command workflow defaults, applied before the user's ``--param``
#: pairs; every other field keeps its :class:`WorkflowParams` default.
_WORKFLOW_DEFAULTS = {
    "run": {"n_days": 30, "with_ml": False},
    "run-distributed": {"n_days": 30, "with_ml": False},
    "chaos": {"n_days": 12, "with_ml": False},
    "simulate": {"n_days": 30},
}


def _parse_param(pair: str):
    """``KEY=VALUE`` -> ``(key, value)``; the value parses as JSON when possible."""
    key, sep, raw = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {pair!r}")
    try:
        return key, json.loads(raw)
    except ValueError:
        return key, raw


def _workflow_params(args) -> "WorkflowParams":
    """The command's defaults overlaid with its ``--param`` pairs."""
    from repro.workflow import WorkflowParams

    params = {**_WORKFLOW_DEFAULTS[args.command], **dict(args.param or ())}
    if args.command == "chaos":
        params.setdefault("seed", args.seed)
    n_days = params["n_days"]
    if args.command in ("chaos", "simulate") and isinstance(n_days, int):
        # Short experiments shorten the minimum wave length to fit.
        params.setdefault("min_length_days", min(6, n_days))
    return WorkflowParams.from_dict(params)


def _emit(args, doc, render) -> None:
    """Print *doc* as JSON under ``--format json``, else ``render()``'s text."""
    if args.format == "json":
        print(json.dumps(doc, indent=1))
    else:
        print(render(), end="")


def _open_db(args, factory, what: str):
    """*factory* on ``--db`` (default ``$REPRO_RUNS_DB``), or None after
    saying why when neither names a database."""
    from repro.observability.history import default_history_path

    db_path = args.db or default_history_path()
    if not db_path:
        print(f"no {what} database: pass --db PATH or set $REPRO_RUNS_DB",
              file=sys.stderr)
        return None
    return factory(db_path)


def _cmd_run(args) -> int:
    from repro.cluster import laptop_like
    from repro.workflow import run_extreme_events_workflow

    with laptop_like(
        scratch_root=args.scratch,
        cores_per_node=args.params.cluster_cores_per_node,
    ) as cluster:
        summary = run_extreme_events_workflow(cluster, args.params)
        print(json.dumps(summary, indent=1, default=str))
        print(f"# artefacts: {cluster.filesystem.root}/results/", file=sys.stderr)
    return 0


def _cmd_run_distributed(args) -> int:
    import os

    from repro.cluster import Cluster, Node
    from repro.hpcwaas import FederatedDataLogistics, Federation
    from repro.workflow import run_distributed_extreme_events

    cores = args.params.cluster_cores_per_node
    dls = FederatedDataLogistics(wan_bandwidth_mbps=args.wan_mbps)
    with Federation(dls=dls) as fed:
        for name, node, role in (
            ("hpc-sim", Node("h1", 2 * cores, 32.0), "simulation"),
            ("cloud-sim", Node("c1", cores, 16.0), "analytics"),
        ):
            root = os.path.join(args.scratch, name) if args.scratch else None
            fed.add_site(Cluster(name, [node], scratch_root=root), role=role)
        summary = run_distributed_extreme_events(fed, args.params)
        print(json.dumps(summary, indent=1, default=str))
        ana_fs = fed.for_role("analytics").filesystem
        print(f"# artefacts: {ana_fs.root}/results/", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    from repro.cluster import SharedFilesystem
    from repro.esm import CMCCCM3, ModelConfig

    p = args.params
    fs = SharedFilesystem(args.output)
    model = CMCCCM3(ModelConfig(
        n_lat=p.n_lat, n_lon=p.n_lon, scenario=p.scenario, seed=p.seed,
    ))
    truth = model.run(p.years, fs, output_dir=".", n_days=p.n_days)
    model.write_baseline(fs, path="climatology.rnc", n_days=p.n_days)
    for year, events in truth.items():
        print(f"{year}: {len(events['heat_waves'])} heat waves, "
              f"{len(events['cold_waves'])} cold waves, "
              f"{len(events['tropical_cyclones'])} tropical cyclones")
    print(f"# wrote {len(p.years) * p.n_days} daily files to {fs.root}",
          file=sys.stderr)
    return 0


def _cmd_indices(args) -> int:
    from repro.analytics import compute_heatwave_indices, render_ascii_map, validate_indices
    from repro.cluster import SharedFilesystem
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
    import itertools
    import os

    from repro.cluster import laptop_like
    from repro.faults import FaultPlan, NodeCrash, run_chaos_experiment

    crashes = tuple(
        NodeCrash(node, at_seconds=args.at_seconds)
        if args.at_seconds is not None
        else NodeCrash(node, after_fs_writes=args.after_writes)
        for node in args.kill_node or ()
    )
    plan = FaultPlan(
        seed=args.seed,
        fs_error_rate=args.fs_error_rate,
        task_error_rate=args.task_error_rate,
        transfer_error_rate=args.transfer_error_rate,
        node_crashes=crashes,
    )
    # The reference and chaos runs each get their own cluster; when the
    # user pins a scratch directory, keep the two roots apart.
    cluster_ids = itertools.count(1)

    def make_cluster():
        root = None
        if args.scratch:
            root = os.path.join(args.scratch, f"cluster{next(cluster_ids)}")
        return laptop_like(scratch_root=root)

    print(f"# {plan.describe()}", file=sys.stderr)
    report = run_chaos_experiment(
        plan, args.params,
        make_cluster=make_cluster,
        max_workflow_attempts=args.max_attempts,
        log=lambda msg: print(f"# {msg}", file=sys.stderr),
    )
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


def _resolve(args, name: str):
    """The run *name* names (see :func:`resolve_run`), or None after
    saying in one line why it names none."""
    from repro.observability.history import resolve_run

    try:
        return resolve_run(name, args.db)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


def _cmd_explain(args) -> int:
    """Where a finished run's time went: header, profile and metrics."""
    from repro.observability.history import render_record
    from repro.observability.metrics import MetricsSnapshot

    record = _resolve(args, args.run)
    if record is None:
        return 2
    if args.format == "prom":
        print(MetricsSnapshot(record.metrics).to_prometheus(), end="")
    else:
        _emit(args, record.to_json(), lambda: render_record(record))
    return 0


def _cmd_history(args) -> int:
    """Query the persistent run-history store."""
    from repro.observability.history import (
        RunHistory, compare_runs, render_comparison, render_run_table,
    )

    if args.history_command == "list":
        history = _open_db(args, RunHistory, "runs")
        if history is None:
            return 2
        records = history.list_runs(limit=args.limit, kind=args.kind)
        _emit(args, [r.to_json() for r in records],
              lambda: render_run_table(records))
        return 0
    a, b = _resolve(args, args.run_a), _resolve(args, args.run_b)
    if a is None or b is None:
        return 2
    report = compare_runs(a, b)
    _emit(args, report, lambda: render_comparison(report))
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
    """Post-hoc SLO evaluation: exit 1 on critical breaches, 2 on bad input."""
    from repro.observability.slo import (
        evaluate_rules, load_slo_rules, render_slo_report, slo_report,
    )

    try:
        rules = load_slo_rules(args.rules)
    except (OSError, ValueError) as exc:
        print(f"bad SLO rules {args.rules}: {exc}", file=sys.stderr)
        return 2
    if any(rule.ratio for rule in rules) and not args.against:
        print(f"{args.rules}: ratio rules need --against REF",
              file=sys.stderr)
        return 2
    snapshots = []
    for name in filter(None, (args.run, args.against)):
        record = _resolve(args, name)
        if record is None:
            return 2
        if not record.metrics:
            print(f"run {record.run_id} has no metrics snapshot",
                  file=sys.stderr)
            return 2
        snapshots.append(record.metrics)

    results = evaluate_rules(rules, *snapshots)
    report = slo_report(results)
    _emit(args, report, lambda: render_slo_report(results))
    return 1 if report["critical_breaches"] else 0


def _cmd_service(args) -> int:
    """The multi-tenant workflow service control plane."""
    from repro.service import ServiceDB

    db = _open_db(args, ServiceDB, "service")
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
        rows = [f"{'TENANT':16s} {'SHARE':>6s} {'MAX_RUN':>8s} "
                f"{'MAX_CORES':>10s}"]
        rows += [f"{t['name']:16s} {t['share']:6g} "
                 f"{t['max_running']:8d} {t['max_cores']:10d}"
                 for t in tenants]
        _emit(args, tenants, lambda: "\n".join(rows) + "\n")
        return 0

    if args.service_command == "jobs":
        state = JobState(args.state) if args.state else None
        jobs = db.jobs(tenant=args.tenant, state=state)
        rows = [f"{'JOB':12s} {'TENANT':12s} {'WORKFLOW':24s} "
                f"{'STATE':10s} {'CORES':>5s} {'BF':>2s} {'TURNAROUND':>10s}"]
        for j in jobs:
            turnaround = (f"{j.turnaround_s:.2f}s"
                          if j.turnaround_s is not None else "-")
            rows.append(f"{j.job_id:12s} {j.tenant:12s} {j.workflow:24s} "
                        f"{j.state.value:10s} {j.cores:5d} "
                        f"{'y' if j.backfilled else '-':>2s} {turnaround:>10s}")
        _emit(args, [j.to_json() for j in jobs], lambda: "\n".join(rows) + "\n")
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
        print(json.dumps(service.report(), indent=1))
    return 0


def _cmd_submit(args) -> int:
    """Enqueue a job for a tenant; ``service run`` launches it."""
    from repro.service import ServiceDB

    db = _open_db(args, ServiceDB, "service")
    if db is None:
        return 2
    try:
        job = db.submit_job(
            args.tenant, args.workflow, params=dict(args.param or ()),
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

    from repro.service import ServiceDB
    from repro.service.top import gather_top_state, render_top

    db = _open_db(args, ServiceDB, "service")
    if db is None:
        return 2
    if args.once:
        state = gather_top_state(db, events_path=args.events,
                                 limit=args.limit)
        _emit(args, state, lambda: render_top(state))
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
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several commands, each declared once.
    param = argparse.ArgumentParser(add_help=False)
    param.add_argument("--param", action="append", type=_parse_param,
                       metavar="KEY=VALUE",
                       help="workflow parameter, any WorkflowParams field "
                            "(repeatable; values parse as JSON when possible)")
    scratch = argparse.ArgumentParser(add_help=False)
    scratch.add_argument("--scratch",
                         help="cluster scratch directory (kept after the run)")
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", metavar="PATH",
                    help="runs database, which also holds the service "
                         "tables (default: $REPRO_RUNS_DB)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    run_arg = argparse.ArgumentParser(add_help=False)
    run_arg.add_argument("run", metavar="RUN",
                         help="a finished run: its run_summary.json, or a "
                              "run id (unique prefix) in --db")

    def command(name, fn, help, *parents, under=sub):
        cmd = under.add_parser(name, help=help, parents=list(parents))
        cmd.set_defaults(fn=fn)
        return cmd

    command("run", _cmd_run, "run the full workflow", param, scratch)
    dist = command("run-distributed", _cmd_run_distributed,
                   "run across a federation", param, scratch)
    dist.add_argument("--wan-mbps", type=float, default=200.0)

    sim = command("simulate", _cmd_simulate, "run only the ESM", param)
    sim.add_argument("output", help="output directory for daily files")

    idx = command("indices", _cmd_indices, "heat-wave indices from daily files")
    idx.add_argument("data_dir", help="directory with cmcc_cm3_*.rnc files")
    idx.add_argument("--baseline", default="climatology.rnc",
                     help="baseline file (relative to data_dir)")
    idx.add_argument("--min-length", type=int, default=6)

    chaos = command("chaos", _cmd_chaos,
                    "run the workflow under injected faults and verify "
                    "recovery", param, scratch)
    chaos.add_argument("--seed", type=int, default=7,
                       help="seeds the fault decision stream and, unless "
                            "--param seed=N is given, the workflow")
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
    chaos.add_argument("--max-attempts", type=int, default=4,
                       help="whole-workflow executions before giving up")

    explain = command("explain", _cmd_explain,
                      "where a finished run's time went: its record, "
                      "critical path, what-ifs and metrics", run_arg, db)
    explain.add_argument("--format", choices=("text", "json", "prom"),
                         default="text",
                         help="text report, the run record as JSON, or the "
                              "run's metrics as Prometheus text")

    history = command("history", _cmd_history,
                      "query the persistent run-history store (runs.db)")
    history_sub = history.add_subparsers(dest="history_command", required=True)
    h_list = history_sub.add_parser("list", help="recent runs, newest first",
                                    parents=[db, fmt])
    h_list.add_argument("--limit", type=int, default=20)
    h_list.add_argument("--kind", default=None,
                        help="filter by run kind (run, run-distributed, "
                             "chaos)")
    h_compare = history_sub.add_parser(
        "compare", parents=[db, fmt],
        help="two runs side by side: metadata and critical-path "
             "attribution (judge drift with `slo check --against`)",
    )
    h_compare.add_argument("run_a", help="first run (as RUN of explain)")
    h_compare.add_argument("run_b", help="second run (as RUN of explain)")

    tail = command("tail", _cmd_tail,
                   "follow a structured event log (events.jsonl)")
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

    slo = command("slo", _cmd_slo, "evaluate SLO rules against a finished run")
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    s_check = slo_sub.add_parser(
        "check", parents=[run_arg, db, fmt],
        help="post-hoc SLO evaluation; exit 1 on critical breaches, "
             "2 on bad input",
    )
    s_check.add_argument("--rules", required=True, metavar="RULES.yaml",
                         help="declarative SLO rules (YAML)")
    s_check.add_argument("--against", metavar="REF",
                         help="reference run (named as RUN is) that "
                              "max_ratio/min_ratio rules are relative to")

    service = command("service", _cmd_service,
                      "multi-tenant workflow service (tenants, quotas, "
                      "launcher)")
    service_sub = service.add_subparsers(dest="service_command", required=True)
    service_sub.add_parser("init", parents=[db],
                           help="create (or migrate) the service database")
    sv_add = service_sub.add_parser("add-tenant", help="register a tenant",
                                    parents=[db])
    sv_add.add_argument("name")
    sv_add.add_argument("--share", type=float, default=1.0,
                        help="fair-share weight (default 1.0)")
    sv_add.add_argument("--max-running", type=int, default=4,
                        help="max concurrently running jobs (0 disables "
                             "the tenant; default 4)")
    sv_add.add_argument("--max-cores", type=int, default=0,
                        help="max concurrently held cores (0 = unlimited)")
    service_sub.add_parser("tenants", help="list tenants", parents=[db, fmt])
    sv_jobs = service_sub.add_parser("jobs", help="list service jobs",
                                     parents=[db, fmt])
    sv_jobs.add_argument("--tenant", default=None,
                         help="only this tenant's jobs")
    sv_jobs.add_argument("--state", default=None,
                         choices=("SUBMITTED", "LAUNCHED", "RUNNING",
                                  "COMPLETED", "FAILED", "CANCELLED"))
    sv_run = service_sub.add_parser(
        "run", parents=[db, scratch],
        help="start the fair-share launcher over the demo workflows, drain "
             "the queued jobs and print the per-tenant report JSON",
    )
    sv_run.add_argument("--site", default="laptop",
                        help="site name recorded on job rows")
    sv_run.add_argument("--timeout", type=float, default=300.0,
                        help="max seconds to wait for the queue to drain")
    sv_run.add_argument("--cores-per-node", type=int, default=4, metavar="N")

    submit = command("submit", _cmd_submit,
                     "enqueue a workflow job for a tenant into the service "
                     "database", param, db)
    submit.add_argument("tenant", help="tenant submitting the job")
    submit.add_argument("workflow",
                        help="deployed workflow id (e.g. esm-ensemble-member, "
                             "heatwave-analytics)")
    submit.add_argument("--cores", type=int, default=1)
    submit.add_argument("--memory-gb", type=float, default=0.0)

    top = command("top", _cmd_top,
                  "live per-tenant fleet view (tenants, jobs, worker "
                  "CPU/RSS, queue depth, recent events) from runs.db + "
                  "events.jsonl; with --once --format json, the raw state",
                  db, fmt)
    top.add_argument("--events", default=None, metavar="PATH",
                     help="also show the tail of this events.jsonl")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (for scripting)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="refresh period for the live view (default 2)")
    top.add_argument("--limit", type=int, default=10,
                     help="rows per table (default 10)")

    report = command("report", _cmd_report,
                     "Markdown report from a run summary")
    report.add_argument("summary", help="path to a run_summary.json")
    report.add_argument("--title", default="Climate extremes run report")

    command("info", _cmd_info, "component inventory")
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse *argv*; a workflow command's ``args.params`` holds its
    :class:`WorkflowParams` (a bad parameter is a usage error, exit 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _WORKFLOW_DEFAULTS:
        try:
            args.params = _workflow_params(args)
        except ValueError as exc:
            parser.error(str(exc))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
