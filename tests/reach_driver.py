"""Run every entry point of the program once at toy size, for
``tests/test_reach.py``: the ``bench/workloads.py`` workloads at smoke
size, the CLI sub-commands (those CI runs plus one of each other, the
service demo workflows included) and the examples at the sizes
``tests/test_examples.py`` uses.  Arguments: WORKDIR TC_MODEL_PATH.
"""

import contextlib
import io
import json
import os
import runpy
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = ("--param", "n_lat=8", "--param", "n_lon=12")


def cli(*argv, expect=(0,)):
    """``repro.cli.main`` in-process; returns what it printed."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(a) for a in argv])
    if rc not in expect:
        raise SystemExit(f"repro {' '.join(map(str, argv))}: exit {rc}")
    return out.getvalue()


def run_bench_workloads(work):
    sys.path.insert(0, os.path.join(REPO, "bench"))
    from workloads import WORKLOADS, Region, size_of

    # dag_fanout checks its task count against the process-wide metrics
    # registry, so it runs before anything else in this process counts
    # tasks (bench/ runs every repetition in a fresh process instead).
    for name in sorted(WORKLOADS, key=lambda name: name != "dag_fanout"):
        workload, size = WORKLOADS[name], size_of(WORKLOADS[name], True)
        inputs, rep = f"{work}/bench/{name}/in", f"{work}/bench/{name}/rep"
        for path in (inputs, rep):
            os.makedirs(path)
        workload.setup(12, size, inputs)
        outcome = workload.run(size, workload.load(size, inputs), rep, Region(False))
        if not all(outcome.checks.values()):
            raise SystemExit(f"bench workload {name}: checks {outcome.checks}")


def run_cli(work):
    db, events, svc = f"{work}/runs.db", f"{work}/events.jsonl", f"{work}/svc.db"
    rules = {name: f"{work}/{name}.yaml" for name in ("tight", "loose", "malformed")}
    for name, text in zip(rules, ("max: 0.000001", "max: 100000", "[unterminated")):
        with open(rules[name], "w") as fh:
            fh.write("slos:\n  - name: makespan\n    metric: "
                     f"workflow_makespan_seconds\n    {text}\n    severity: critical\n")
    with open(rules["loose"], "a") as fh:
        fh.write("  - name: task-p95\n    metric: compss_task_duration_seconds\n"
                 "    quantile: 0.95\n    max: 100000\n")
    rules["drift"] = f"{work}/drift.yaml"
    with open(rules["drift"], "w") as fh:
        fh.write("slos:\n  - name: makespan\n    metric: workflow_makespan_seconds\n"
                 "    max_ratio: 1.25\n  - name: tasks\n    metric: compss_tasks_total\n"
                 "    max_ratio: 1\n    severity: critical\n")
    summary = f"{work}/perf/results/run_summary.json"

    cli("info")
    cli("run-distributed", "--param", "n_days=5", "--param", "n_lat=16",
        "--param", "n_lon=24", "--param", "min_length_days=3",
        "--scratch", f"{work}/dist")
    years = ("--param", "years=[2030, 2031]", "--param", "n_days=8", *SMALL,
             "--param", "min_length_days=4", "--param", f"runs_db={db}")
    cli("run", *years, "--param", "pace_seconds=0.02", "--param",
        f"events_path={events}", "--scratch", f"{work}/perf")
    cli("run", *years, "--scratch", f"{work}/fast")
    cli("history", "list", "--db", db)
    fast, paced = (r["run_id"] for r in json.loads(cli(
        "history", "list", "--db", db, "--kind", "run", "--format", "json")))
    for fmt in ("text", "json"):
        cli("history", "compare", fast, paced, "--db", db, "--format", fmt)
    for fmt in ("text", "json", "prom"):
        cli("explain", paced, "--db", db, "--format", fmt)
        cli("explain", summary, "--format", fmt)
    cli("slo", "check", "--rules", rules["tight"], fast, "--db", db, expect=(1,))
    cli("slo", "check", "--rules", rules["loose"], fast, "--db", db)
    cli("slo", "check", "--rules", rules["loose"], summary)
    cli("slo", "check", "--rules", rules["malformed"], summary, expect=(2,))
    cli("tail", events, "--level", "WARNING")
    cli("run", "--param", "years=2032", "--param", "n_days=6", *SMALL,
        "--param", "min_length_days=3",
        "--scratch", f"{work}/proc", "--param", f"runs_db={db}",
        "--param", f"events_path={events}")
    # The one-year run completes fewer tasks than the two-year fast
    # run, so the fast run drifts from it on a counter.
    proc = json.loads(cli("history", "list", "--db", db, "--limit", 1,
                          "--format", "json"))[0]["run_id"]
    for fmt in ("text", "json"):
        check = ("slo", "check", "--rules", rules["drift"], fast,
                 "--db", db, "--format", fmt)
        cli(*check, "--against", proc, expect=(1,))
        cli(*check, "--against", fast)
    cli("top", "--db", db, "--events", events, "--once")
    cli("report", summary)
    cli("run", "--param", "n_days=6", *SMALL, "--param", "min_length_days=3",
        "--param", f"slo_rules_path={rules['loose']}",
        "--param", "ophidia_memory_budget_bytes=10485",
        "--scratch", f"{work}/tiered")
    json.loads(cli("chaos", "--seed", 7, "--kill-node", "local1",
                   "--fs-error-rate", 0.05, "--param", "n_days=6",
                   "--scratch", f"{work}/chaos"))
    cli("simulate", f"{work}/sim", "--param", "n_days=8", *SMALL)
    cli("indices", f"{work}/sim", "--min-length", 3)
    cli("service", "init", "--db", svc)
    cli("service", "add-tenant", "atmos", "--db", svc)
    cli("submit", "atmos", "esm-ensemble-member", "--cores", 2,
        "--param", "n_days=2", "--db", svc)
    cli("submit", "atmos", "heatwave-analytics", "--param", "n_days=12", "--db", svc)
    cli("service", "run", "--db", svc, "--scratch", f"{work}/svc", "--timeout", 120)
    cli("service", "tenants", "--db", svc)
    cli("service", "jobs", "--db", svc)


def run_examples(tc_model):
    for argv in (
        ["quickstart.py", "--days", "6", "--no-ml"],
        ["heatwave_indices.py", "--days", "20"],
        ["streaming_overlap.py", "--days", "6", "--years", "1", "--pace", "0.01"],
        ["hpcwaas_deployment.py", "--days", "5"],
        ["distributed_federation.py", "--days", "4", "--years", "2030"],
        ["fault_tolerance.py"],
        ["ensemble_analysis.py", "--members", "2", "--days", "20"],
        ["percentile_indices.py", "--hist-years", "3", "--days", "30"],
        ["scenario_comparison.py", "--days", "20", "--decades", "2"],
        ["tc_detection.py", "--days", "6", "--model", tc_model],
    ):
        sys.argv = [os.path.join(REPO, "examples", argv[0])] + argv[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(sys.argv[0], run_name="__main__")


if __name__ == "__main__":
    run_bench_workloads(sys.argv[1])
    run_cli(sys.argv[1])
    run_examples(sys.argv[2])
