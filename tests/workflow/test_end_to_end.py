"""End-to-end integration tests: the full case study on a tiny grid."""

import json
import math
import multiprocessing
import os
import threading
from types import SimpleNamespace

import pytest

from repro.analytics import regrid, tc_tracking
from repro.cluster import Cluster, Node, SharedFilesystem, laptop_like
from repro.faults.errors import InjectedIOError
from repro.hpcwaas import Federation
from repro.observability.metrics import snapshot_value
from repro.observability.slo import evaluate_rules, parse_slo_rules
from repro.workflow import (
    CASE_STUDY_TOSCA,
    WorkflowParams,
    build_case_study_services,
    run_distributed_extreme_events,
    run_extreme_events_workflow,
)


@pytest.fixture
def cluster(tmp_path):
    with laptop_like(scratch_root=str(tmp_path)) as c:
        yield c


@pytest.fixture
def placement(cluster):
    """The one driver on a placement: here, both roles on one site.

    ``run(params)`` executes the workflow; ``fs`` is the analytics
    site's filesystem (where results land), ``sim_fs`` the simulation
    site's, ``n_transfers`` the ``transfer_year`` tasks per year.
    :class:`TwoSite` rebinds this fixture to a two-site federation, so
    the ``*Cases`` classes below run unchanged on either placement.
    """
    return SimpleNamespace(
        run=lambda params: run_extreme_events_workflow(cluster, params),
        fs=cluster.filesystem, sim_fs=cluster.filesystem, n_transfers=0,
    )


class TwoSite:
    @pytest.fixture
    def placement(self, tmp_path):
        with Federation() as fed:
            hpc = Cluster("hpc-sim", [Node("h1", 8, 32.0)],
                          scratch_root=str(tmp_path / "hpc"))
            cloud = Cluster("cloud-sim", [Node("c1", 4, 16.0)],
                            scratch_root=str(tmp_path / "cloud"))
            fed.add_site(hpc, role="simulation")
            fed.add_site(cloud, role="analytics")
            yield SimpleNamespace(
                run=lambda params: run_distributed_extreme_events(fed, params),
                fs=cloud.filesystem, sim_fs=hpc.filesystem, n_transfers=1,
            )


def small_params(tc_model_path, **overrides):
    defaults = dict(
        years=[2030],
        n_days=12,
        n_lat=16,
        n_lon=24,
        n_workers=4,
        min_length_days=4,
        tc_model_path=tc_model_path,
        tc_target_grid=(16, 32),
        seed=5,
    )
    defaults.update(overrides)
    return WorkflowParams(**defaults)


class EndToEndCases:
    def test_full_run_produces_all_artifacts(self, placement, tc_model_path):
        params = small_params(tc_model_path)
        summary = placement.run(params)
        fs = placement.fs

        year = summary["years"][2030]
        assert "heat_waves" in year and "cold_waves" in year
        assert year["tc_deterministic"]["n_tracks"] >= 0
        assert year["tc_ml"]["n_detections"] >= 0

        # Index exports, maps, summaries, graph, run summary.
        for prefix in ("hw", "cw"):
            for suffix in ("duration_max", "number", "frequency"):
                assert fs.exists(f"results/{prefix}_{suffix}_2030.rnc"), suffix
            assert fs.exists(f"results/{prefix}_number_map_2030.pgm")
        for name in ("task_graph.dot", "run_summary.json", "provenance.json",
                     "trace.json", "events.jsonl"):
            assert fs.exists(f"results/{name}"), name
        assert placement.sim_fs.glob("esm_output", "cmcc_cm3_2030_*.rnc")
        stored = json.loads(fs.read_bytes("results/run_summary.json"))
        assert stored["task_graph"]["n_tasks"] == summary["task_graph"]["n_tasks"]

    def test_task_graph_census_matches_fig3_structure(self, placement, tc_model_path):
        """Per-year task multiset implied by Figure 3 / §5.1."""
        params = small_params(tc_model_path)
        summary = placement.run(params)
        by_fn = summary["task_graph"]["by_function"]
        # The placement's only footprint in the graph: one DLS transfer
        # per year when the sites differ, none on a single site.
        assert by_fn.pop("transfer_year", 0) == placement.n_transfers
        assert sum(by_fn.values()) == 20
        assert by_fn["esm_simulation"] == 1
        assert by_fn["write_baseline"] == 1
        assert by_fn["load_baseline_cubes"] == 1
        assert by_fn["load_year_cubes"] == 1
        assert by_fn["compute_qualifying_durations"] == 2   # HW + CW
        assert by_fn["index_duration_max"] == 2
        assert by_fn["index_duration_number"] == 2
        assert by_fn["index_frequency"] == 2
        assert by_fn["validate_and_store"] == 2
        assert by_fn["make_map"] == 2
        assert by_fn["tc_preprocess"] == 1
        assert by_fn["tc_inference"] == 1
        assert by_fn["tc_georeference"] == 1
        assert by_fn["tc_deterministic_tracking"] == 1
        assert summary["task_graph"]["n_edges"] > 0

    def test_schedule_gauges_feed_slo_rules(self, placement, tc_model_path):
        """The four schedule gauges land in the run's metrics, so a
        makespan SLO rule has something to judge on either placement."""
        summary = placement.run(small_params(tc_model_path, n_days=8, with_ml=False))
        for gauge in ("workflow_makespan_seconds",
                      "workflow_esm_analytics_overlap_seconds",
                      "workflow_worker_utilisation",
                      "workflow_pipelined_years"):
            assert gauge in summary["metrics"], gauge
        (result,) = evaluate_rules(parse_slo_rules(
            "slos:\n  - name: makespan\n"
            "    metric: workflow_makespan_seconds\n    max: 0.000001\n"
        ), summary["metrics"])
        assert result.value == pytest.approx(summary["schedule"]["makespan_s"])
        assert not result.ok

    def test_count_sections_are_the_runs_own_metrics(self, placement):
        """Two runs on one placement: each summary's storage, transfer
        and federation counts equal its own metrics delta, not the
        filesystems' lifetime totals."""
        params = WorkflowParams(years=[2030], n_days=8, n_lat=8, n_lon=12,
                                min_length_days=4, with_ml=False, seed=5)
        for _ in range(2):
            summary = placement.run(params)

            def count(name, **labels):
                return snapshot_value(summary["metrics"], name, **labels)

            def fs_ops(fs, *ops):
                return sum(count("fs_operations_total", fs=fs.fs_label, op=op)
                           for op in ops)

            label = placement.fs.fs_label
            assert summary["storage"] == {
                "fs_reads": fs_ops(placement.fs, "read", "read_bytes"),
                "fs_bytes_read": count("fs_bytes_read_total", fs=label),
                "ophidia_fragment_reads": count("ophidia_fragment_reads_total"),
            }
            assert summary["storage"]["fs_reads"] > 0
            transfers = summary["schedule"]["transfers"]
            assert transfers["bytes_transferred"] == count(
                "compss_transfer_bytes_total")
            assert (transfers["local_hits"] + transfers["remote_transfers"]
                    + transfers["cache_hits"]
                    == count("compss_transfers_total")
                    == summary["task_graph"]["n_edges"])
            if placement.n_transfers:
                federation = summary["federation"]
                assert federation["sim_site_writes"] == fs_ops(
                    placement.sim_fs, "write", "write_bytes") > 0
                assert federation["ana_site_reads"] == \
                    summary["storage"]["fs_reads"]


class TestEndToEndTwoSite(TwoSite, EndToEndCases):
    pass


class TestEndToEnd(EndToEndCases):
    def test_multi_year_scales_task_counts(self, cluster, tc_model_path):
        params = small_params(tc_model_path, years=[2030, 2031], with_ml=False)
        summary = run_extreme_events_workflow(cluster, params)
        by_fn = summary["task_graph"]["by_function"]
        # Per-year tasks double; global tasks don't (paper: "the number of
        # tasks would be repeated with the exception of the first four").
        assert by_fn["esm_simulation"] == 1
        assert by_fn["load_baseline_cubes"] == 1
        assert by_fn["compute_qualifying_durations"] == 4
        assert set(summary["years"]) == {2030, 2031}
        assert summary["schedule"]["pipelined_years"] >= 0

    def test_tc_inference_runs_one_pass_per_4_steps(self, cluster, tc_model_path):
        """The year's snapshots reach the CNN as one stack, 4 steps a pass."""
        params = small_params(tc_model_path, years=[2030, 2031], n_days=5)
        run_extreme_events_workflow(cluster, params)
        trace = json.loads(cluster.filesystem.read_bytes("results/trace.json"))
        spans = [e["args"] for e in trace["traceEvents"]
                 if e.get("ph") == "X" and e["name"] == "ml.tc_inference"]
        assert [s["steps"] for s in spans] == [20, 20]
        assert all(s["passes"] == math.ceil(s["steps"] / 4) for s in spans)

    def test_tc_branch_reads_once_and_works_per_year(self, cluster, tc_model_path,
                                                     monkeypatch):
        """The TC branch reads each day file once (the CNN and the tracker
        share ``tc_preprocess``'s stacks), detects each year with three
        stencil calls, and builds one regrid plan per run."""
        reads = []
        read = SharedFilesystem.read
        monkeypatch.setattr(
            SharedFilesystem, "read",
            lambda fs, path, variables=None:
            reads.append((path, tuple(variables or ()))) or read(fs, path, variables))
        stencil_calls = []
        for name in ("minimum_filter", "maximum_filter"):
            f = getattr(tc_tracking, name)
            monkeypatch.setattr(tc_tracking, name,
                                lambda *a, _f=f, **k: stencil_calls.append(1) or _f(*a, **k))
        regrid._plan.cache_clear()
        params = small_params(tc_model_path, years=[2030, 2031], n_days=8)
        summary = run_extreme_events_workflow(cluster, params)

        day_files = sorted(path for path, v in reads if v == ("TREFHTMX",))
        tc_reads = sorted(path for path, v in reads if "PSL" in v)
        assert len(day_files) == len(set(day_files)) == 2 * 8
        assert tc_reads == day_files
        # Per day file: TMAX, TMIN and the one TC read; plus two baseline reads.
        assert len(reads) == 3 * 2 * 8 + 2 == snapshot_value(
            summary["metrics"], "fs_operations_total",
            fs=cluster.filesystem.fs_label, op="read")
        assert len(stencil_calls) == 3 * 2
        assert regrid._plan.cache_info().misses == 1
        assert all(summary["years"][y]["tc_ml"]["n_detections"] >= 0
                   for y in (2030, 2031))

    def test_without_ml(self, cluster, tc_model_path):
        params = small_params(tc_model_path, with_ml=False)
        summary = run_extreme_events_workflow(cluster, params)
        assert "tc_ml" not in summary["years"][2030]
        assert "tc_inference" not in summary["task_graph"]["by_function"]
        # The tracker still takes its fields from the one preprocessing read.
        assert summary["task_graph"]["by_function"]["tc_preprocess"] == 1

    def test_no_baseline_reuse_loads_per_year(self, cluster, tc_model_path):
        params = small_params(
            tc_model_path, years=[2030, 2031], with_ml=False, reuse_baseline=False
        )
        summary = run_extreme_events_workflow(cluster, params)
        assert summary["task_graph"]["by_function"]["load_baseline_cubes"] == 2

    def test_dict_params_entrypoint_shape(self, cluster, tc_model_path):
        """The HPCWaaS entrypoint signature: (cluster, dict)."""
        summary = run_extreme_events_workflow(cluster, {
            "years": [2030], "n_days": 8, "n_lat": 16, "n_lon": 24,
            "min_length_days": 4, "with_ml": False, "seed": 5,
        })
        assert 2030 in summary["years"]

    def test_detects_injected_heat_waves_over_full_year(self, tmp_path, tc_model_path):
        """With a full year, the injected heat waves must surface in the
        indices (the scientific shape of Figure 4)."""
        with laptop_like(scratch_root=str(tmp_path / "c")) as cluster:
            params = small_params(
                tc_model_path, n_days=250, with_ml=False, min_length_days=6,
                n_lat=24, n_lon=36,
            )
            summary = run_extreme_events_workflow(cluster, params)
            hw = summary["years"][2030]["heat_waves"]
            assert hw["cells_with_waves"] > 0.0
            assert hw["max_duration_days"] >= 6


class _FlakyExports:
    """Filesystem chaos hook: the first write of each telemetry or
    provenance artefact fails with a transient I/O error."""

    def __init__(self):
        self.hit = set()

    def before_op(self, op, path, fs=None):
        name = path.rsplit("/", 1)[-1]
        if (op == "write_bytes" and name not in self.hit and name in (
                "trace.json", "run_summary.json", "provenance.json",
                "task_graph.dot")):
            self.hit.add(name)
            raise InjectedIOError(op, path)


class ResilienceCases:
    def test_second_run_recovers_checkpointable_tasks(
            self, placement, tmp_path, tc_model_path):
        """Re-running with the same checkpoint store recovers the tasks
        with picklable outputs (simulation truth, staged paths, stats);
        cube-producing tasks re-execute by design.  Science identical.

        A restart reuses the same scratch: recovered task outputs
        reference files that must still exist."""
        params = small_params(
            tc_model_path, n_days=8, with_ml=False,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        first = placement.run(params)
        second = placement.run(params)
        assert second["years"][2030]["heat_waves"] == first["years"][2030]["heat_waves"]
        assert second["task_graph"]["n_tasks"] == first["task_graph"]["n_tasks"]
        # The heavy producer (ESM) and the per-year transfer recovered.
        prov = json.loads(placement.fs.read_bytes("results/provenance.json"))
        recovered = {a["function"] for a in prov["activities"]
                     if a["state"] == "RECOVERED"}
        assert "esm_simulation" in recovered
        assert ("transfer_year" in recovered) == bool(placement.n_transfers)

    def test_esm_restart_files_written_by_workflow(self, placement, tc_model_path):
        params = small_params(tc_model_path, n_days=9, with_ml=False,
                              esm_restart_every=4)
        placement.run(params)
        restarts = placement.sim_fs.glob("restarts", "restart_2030_*.rnc")
        assert len(restarts) == 2

    def test_transient_export_faults_are_absorbed(self, placement, tc_model_path):
        """Driver-side artefact writes sit outside any task, so the
        driver itself retries a flaky analytics filesystem."""
        flaky = placement.fs.fault_injector = _FlakyExports()
        summary = placement.run(small_params(tc_model_path, n_days=8, with_ml=False))
        assert len(flaky.hit) == 4
        stored = json.loads(placement.fs.read_bytes("results/run_summary.json"))
        assert stored["run_id"] == summary["run_id"]
        assert placement.fs.exists(summary["provenance_path"])

    def test_failed_esm_leaks_nothing(self, placement, tc_model_path, monkeypatch):
        """A dying simulation surfaces as the task's error, closes the
        collector (its write listener leaves the simulation site) and
        leaves no runtime, timer-wheel or Ophidia thread, no worker
        process and no shared-memory segment behind."""
        def die(self, *args, **kwargs):
            raise RuntimeError("model blew up")

        monkeypatch.setattr("repro.workflow.tasks.CMCCCM3.run_year", die)
        shm_before = set(os.listdir("/dev/shm"))
        threads_before = set(threading.enumerate())
        with pytest.raises(Exception, match="model blew up"):
            placement.run(small_params(
                tc_model_path, n_days=8, with_ml=False,
                execution_backend="process",
            ))
        leaked = [t.name for t in set(threading.enumerate()) - threads_before
                  if t.is_alive()]
        assert leaked == []
        assert placement.sim_fs._write_listeners == []
        assert multiprocessing.active_children() == []
        assert set(os.listdir("/dev/shm")) <= shm_before


class TestResilience(ResilienceCases):
    pass


class TestResilienceTwoSite(TwoSite, ResilienceCases):
    pass


class TestHPCWaaSLifecycle:
    def test_fig2_deploy_invoke_undeploy(self, cluster, tc_model_path):
        """The Figure-2 path: A4C upload → Yorc deploy → publish →
        Execution API invoke → undeploy."""
        a4c, api = build_case_study_services()
        deployment = a4c.deploy("climate-extreme-events", cluster)

        def entrypoint(cl, params):
            wf = {k: v for k, v in params.items() if k in (
                "years", "n_days", "n_lat", "n_lon", "min_length_days",
                "with_ml", "seed", "tc_model_path", "tc_target_grid",
            )}
            return run_extreme_events_workflow(cl, wf)

        a4c.set_parameters(
            "climate-extreme-events",
            n_lat=16, n_lon=24, min_length_days=4, with_ml=False, seed=5,
        )
        record = a4c.publish_workflow(
            "extreme-events", deployment, entrypoint,
            description="climate extremes case study",
        )
        assert api.list_workflows() == ["extreme-events"]
        execution = api.invoke("extreme-events", years=[2030], n_days=8)
        summary = execution.wait(timeout=300)
        assert 2030 in summary["years"]
        # Deployment staged the TC model placeholder via the DLS.
        assert cluster.filesystem.exists("models/tc_localizer_staged.pkl")
        a4c.undeploy(record.deployment)
        with pytest.raises(RuntimeError):
            api.invoke("extreme-events")

    def test_case_study_tosca_parses(self):
        from repro.hpcwaas import topology_from_yaml

        topo = topology_from_yaml(CASE_STUDY_TOSCA)
        assert topo.name == "climate-extreme-events"
        order = [t.name for t in topo.deployment_order()]
        assert order.index("zeus") < order.index("extremes_app")
