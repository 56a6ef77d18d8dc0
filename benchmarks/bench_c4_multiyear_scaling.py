"""C4 — multi-year projections scale linearly.

§5.2: projections span "multiple tens of years"; per-year tasks repeat
while the first simulation/baseline tasks do not (Figure 3 caption).
Shape: end-to-end time grows roughly linearly in the number of years,
and the task census scales exactly as the figure predicts.
"""

from benchmarks.conftest import print_table
from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow

PER_YEAR_TASKS = 10   # load, 2x(dur+3 idx... ) w/o ML: see below
GLOBAL_TASKS = 3      # esm, write_baseline, load_baseline


def run_years(tmp_path, n_years: int):
    years = [2030 + i for i in range(n_years)]
    with laptop_like(scratch_root=str(tmp_path / f"y{n_years}")) as cluster:
        params = WorkflowParams(
            years=years, n_days=15, n_lat=16, n_lon=24, n_workers=4,
            min_length_days=4, with_ml=False, seed=5,
        )
        return run_extreme_events_workflow(cluster, params)


def test_c4_multiyear_scaling(benchmark, tmp_path):
    results = {}
    for n in (1, 2, 4):
        if n == 4:
            results[n] = benchmark.pedantic(
                lambda: run_years(tmp_path, 4), rounds=1, iterations=1
            )
        else:
            results[n] = run_years(tmp_path, n)

    rows = []
    for n, summary in results.items():
        g = summary["task_graph"]
        rows.append([
            n, g["n_tasks"], g["n_edges"],
            f"{summary['schedule']['makespan_s']:.2f}",
        ])
        # Census shape: global tasks constant, per-year tasks proportional.
        by_fn = g["by_function"]
        assert by_fn["esm_simulation"] == 1
        assert by_fn["write_baseline"] == 1
        assert by_fn["load_baseline_cubes"] == 1
        assert by_fn["compute_qualifying_durations"] == 2 * n
        assert by_fn["index_duration_max"] == 2 * n
        assert len(summary["years"]) == n

    t1 = results[1]["schedule"]["makespan_s"]
    t4 = results[4]["schedule"]["makespan_s"]
    # Shape: 4x the years costs clearly more than 1x but less than ~8x
    # (parallelism absorbs some growth; it must not explode superlinearly).
    assert t4 > t1
    assert t4 < 8 * t1

    tasks_1 = results[1]["task_graph"]["n_tasks"]
    tasks_4 = results[4]["task_graph"]["n_tasks"]
    per_year = (tasks_4 - tasks_1) / 3
    print_table(
        "C4: scaling with projection length",
        ["years", "tasks", "edges", "makespan (s)"],
        rows,
    )
    print(f"per-year task increment: {per_year:.1f} tasks/year "
          f"(globals stay constant)")
