"""Container service, DLS, Yorc orchestration, registry and API tests."""

import time

import pytest

from repro.cluster import laptop_like
from repro.cluster.lsf import JobError
from repro.hpcwaas import (
    Alien4Cloud,
    ContainerImageCreationService,
    DataLogisticsService,
    DataMovement,
    DeploymentState,
    DLSError,
    ExecutionState,
    HPCWaaSAPI,
    WorkflowRecord,
    WorkflowRegistry,
    YorcOrchestrator,
    topology_from_yaml,
)

TOSCA = """
metadata:
  template_name: demo-app
topology_template:
  inputs:
    years:
      default: [2030]
  node_templates:
    compute:
      type: eflows.nodes.ComputeAccess
      properties:
        queue: p_short
    runtime_image:
      type: eflows.nodes.ContainerRuntime
      properties:
        packages: [numpy, tensorflow]
        target_platform: x86_64
      artifacts:
        container:
          name: climate-runtime
      requirements:
        - host: compute
    baseline_data:
      type: eflows.nodes.DataPipeline
      properties:
        pipeline: stage_baseline
      requirements:
        - host: compute
    env:
      type: eflows.nodes.PythonEnvironment
      properties:
        packages: [pyophidia, pycompss]
      requirements:
        - host: compute
    app:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: demo.main
        arguments:
          n_workers: 2
      requirements:
        - dependency: runtime_image
        - dependency: baseline_data
        - dependency: env
"""


@pytest.fixture
def cluster(tmp_path):
    with laptop_like(scratch_root=str(tmp_path)) as c:
        yield c


@pytest.fixture
def orchestrator():
    yorc = YorcOrchestrator()
    yorc.dls.register_pipeline(
        "stage_baseline",
        [DataMovement(destination="baselines/climatology.bin",
                      producer=lambda: b"\x00" * 128)],
    )
    return yorc


class TestContainerService:
    def test_build_and_reference(self):
        svc = ContainerImageCreationService()
        image = svc.build("rt", ["numpy", "scipy"])
        assert image.reference.startswith("rt@sha256:")
        assert image.packages == ("numpy", "scipy")

    def test_cache_hit_on_same_spec(self):
        svc = ContainerImageCreationService()
        a = svc.build("rt", ["scipy", "numpy"])
        b = svc.build("rt", ["numpy", "scipy"])  # order-insensitive
        assert b is a

    def test_different_platform_different_image(self):
        svc = ContainerImageCreationService()
        a = svc.build("rt", ["numpy"], target_platform="x86_64")
        b = svc.build("rt", ["numpy"], target_platform="ppc64le")
        assert a.digest != b.digest
        assert svc.build("rt", ["numpy"], target_platform="ppc64le") is b

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ContainerImageCreationService().build("", [])


class TestDLS:
    def test_producer_pipeline(self, cluster):
        dls = DataLogisticsService()
        dls.register_pipeline(
            "p", [DataMovement(destination="data/x.bin", producer=lambda: b"abc")]
        )
        moved = dls.execute("p", cluster.filesystem)
        assert moved == 3
        assert cluster.filesystem.read_bytes("data/x.bin") == b"abc"
        assert dls.transfers == 1

    def test_host_source_pipeline(self, cluster, tmp_path):
        src = tmp_path / "ext.bin"
        src.write_bytes(b"external payload")
        dls = DataLogisticsService()
        dls.register_pipeline("p", [DataMovement(destination="in/ext.bin",
                                                 source=str(src))])
        dls.execute("p", cluster.filesystem)
        assert cluster.filesystem.read_bytes("in/ext.bin") == b"external payload"

    def test_relative_source_copy(self, cluster):
        cluster.filesystem.write_bytes("a.bin", b"xy")
        dls = DataLogisticsService()
        dls.register_pipeline(
            "p", [DataMovement(destination="b.bin", source="a.bin",
                               source_is_relative=True)]
        )
        dls.execute("p", cluster.filesystem)
        assert cluster.filesystem.read_bytes("b.bin") == b"xy"

    def test_unknown_pipeline(self, cluster):
        with pytest.raises(DLSError):
            DataLogisticsService().execute("ghost", cluster.filesystem)

    def test_missing_source_fails(self, cluster):
        dls = DataLogisticsService()
        dls.register_pipeline("p", [DataMovement(destination="x", source="/no/such")])
        with pytest.raises(DLSError):
            dls.execute("p", cluster.filesystem)

    def test_movement_validation(self):
        with pytest.raises(ValueError):
            DataMovement(destination="x")
        with pytest.raises(ValueError):
            DataMovement(destination="x", source="s", producer=lambda: b"")
        with pytest.raises(ValueError):
            DataLogisticsService().register_pipeline("p", [])

    def test_duplicate_pipeline_rejected(self):
        dls = DataLogisticsService()
        m = [DataMovement(destination="x", producer=lambda: b"")]
        dls.register_pipeline("p", m)
        with pytest.raises(ValueError):
            dls.register_pipeline("p", m)


class TestYorcDeployment:
    def test_full_deploy(self, cluster, orchestrator):
        topo = topology_from_yaml(TOSCA)
        deployment = orchestrator.deploy(topo, cluster)
        assert deployment.state is DeploymentState.DEPLOYED
        assert deployment.provisioned["runtime_image"]["kind"] == "container"
        assert deployment.provisioned["baseline_data"]["bytes"] == 128
        assert cluster.filesystem.exists("baselines/climatology.bin")
        assert cluster.filesystem.exists("deployments/demo-app/envs/env/manifest.json")
        assert cluster.filesystem.exists("deployments/demo-app/deployment.json")
        assert deployment.application is not None
        assert deployment.application.name == "app"

    def test_deploy_order_is_requirements_first(self, cluster, orchestrator):
        topo = topology_from_yaml(TOSCA)
        deployment = orchestrator.deploy(topo, cluster)
        names = list(deployment.provisioned)
        assert names.index("compute") < names.index("runtime_image")
        assert names.index("runtime_image") < names.index("app")

    def test_unknown_type_fails_deployment(self, cluster, orchestrator):
        bad = """
metadata:
  template_name: bad-app
topology_template:
  node_templates:
    odd:
      type: eflows.nodes.QuantumAccelerator
"""
        topo = topology_from_yaml(bad)
        with pytest.raises(Exception):
            orchestrator.deploy(topo, cluster)
        failed = [d for d in orchestrator._deployments.values()
                  if d.state is DeploymentState.FAILED]
        assert failed

    def test_execution_time_pipeline_deferred(self, cluster, orchestrator):
        orchestrator.dls.register_pipeline(
            "late", [DataMovement(destination="late.bin", producer=lambda: b"z")]
        )
        text = TOSCA + """
    late_data:
      type: eflows.nodes.DataPipeline
      properties:
        pipeline: late
        when: execution
      requirements:
        - host: compute
"""
        topo = topology_from_yaml(text.replace("template_name: demo-app",
                                               "template_name: demo-app2"))
        deployment = orchestrator.deploy(topo, cluster)
        assert "late" in deployment.execution_pipelines
        assert not cluster.filesystem.exists("late.bin")

    def test_undeploy_lifecycle(self, cluster, orchestrator):
        topo = topology_from_yaml(TOSCA)
        deployment = orchestrator.deploy(topo, cluster)
        orchestrator.undeploy(deployment)
        assert deployment.state is DeploymentState.UNDEPLOYED
        with pytest.raises(RuntimeError):
            orchestrator.undeploy(deployment)

    def test_two_applications_rejected(self, cluster, orchestrator):
        text = TOSCA + """
    app2:
      type: eflows.nodes.PyCOMPSsApplication
      properties:
        entrypoint: other.main
"""
        topo = topology_from_yaml(text.replace("demo-app", "demo-app3"))
        with pytest.raises(Exception):
            orchestrator.deploy(topo, cluster)


class TestRegistryAndAPI:
    def _published(self, cluster, orchestrator, entrypoint):
        a4c = Alien4Cloud(orchestrator=orchestrator)
        a4c.upload_topology(topology_from_yaml(TOSCA))
        a4c.set_parameters("demo-app", region="global")
        deployment = a4c.deploy("demo-app", cluster)
        record = a4c.publish_workflow("climate-extremes-wf", deployment, entrypoint)
        api = HPCWaaSAPI(a4c.registry, orchestrator=orchestrator)
        return a4c, api, record

    def test_invoke_and_result(self, cluster, orchestrator):
        def entrypoint(cl, params):
            return {"cluster": cl.name, "params": params}

        _, api, record = self._published(cluster, orchestrator, entrypoint)
        assert api.list_workflows() == ["climate-extremes-wf"]
        execution = api.invoke("climate-extremes-wf", years=[2031])
        result = execution.wait(timeout=10)
        assert api.status(execution.execution_id) is ExecutionState.COMPLETED
        assert result["params"]["years"] == [2031]          # user override
        assert result["params"]["n_workers"] == 2           # app default
        assert result["params"]["region"] == "global"       # a4c parameter
        assert api.result(execution.execution_id) == result

    def test_default_params_from_inputs(self, cluster, orchestrator):
        captured = {}

        def entrypoint(cl, params):
            captured.update(params)

        _, api, _ = self._published(cluster, orchestrator, entrypoint)
        api.invoke("climate-extremes-wf").wait(timeout=10)
        assert captured["years"] == [2030]  # topology input default

    def test_failed_workflow_surfaces(self, cluster, orchestrator):
        def entrypoint(cl, params):
            raise RuntimeError("science went wrong")

        _, api, _ = self._published(cluster, orchestrator, entrypoint)
        execution = api.invoke("climate-extremes-wf")
        with pytest.raises(JobError):
            execution.wait(timeout=10)
        assert execution.state is ExecutionState.FAILED
        assert isinstance(execution.error, RuntimeError)
        with pytest.raises(RuntimeError):
            _ = execution.result

    def test_invoke_undeployed_rejected(self, cluster, orchestrator):
        a4c, api, record = self._published(cluster, orchestrator, lambda c, p: 1)
        a4c.undeploy(record.deployment)
        with pytest.raises(RuntimeError):
            api.invoke("climate-extremes-wf")

    def test_execution_pipeline_runs_before_workflow(self, cluster, orchestrator):
        orchestrator.dls.register_pipeline(
            "late", [DataMovement(destination="late.bin", producer=lambda: b"z")]
        )

        def entrypoint(cl, params):
            # Deferred pipeline must have landed by now.
            return cl.filesystem.exists("late.bin")

        a4c = Alien4Cloud(orchestrator=orchestrator)
        text = TOSCA + """
    late_data:
      type: eflows.nodes.DataPipeline
      properties:
        pipeline: late
        when: execution
      requirements:
        - host: compute
"""
        a4c.upload_topology(topology_from_yaml(text.replace("demo-app", "demo-app4")))
        deployment = a4c.deploy("demo-app4", cluster)
        a4c.publish_workflow("wf4", deployment, entrypoint)
        api = HPCWaaSAPI(a4c.registry, orchestrator=orchestrator)
        assert api.invoke("wf4").wait(timeout=10) is True

    def test_registry_duplicate_and_unknown(self, cluster, orchestrator):
        registry = WorkflowRegistry()
        _, _, record = self._published(cluster, orchestrator, lambda c, p: 1)
        registry.register(WorkflowRecord("w", record.deployment, lambda c, p: 1))
        with pytest.raises(ValueError):
            registry.register(WorkflowRecord("w", record.deployment, lambda c, p: 1))
        with pytest.raises(KeyError):
            registry.get("ghost")

    def test_executions_listing(self, cluster, orchestrator):
        _, api, _ = self._published(cluster, orchestrator, lambda c, p: 1)
        e1 = api.invoke("climate-extremes-wf")
        e2 = api.invoke("climate-extremes-wf")
        e1.wait(timeout=10)
        e2.wait(timeout=10)
        assert [e.execution_id for e in api.executions()] == [
            e1.execution_id, e2.execution_id
        ]
        assert len(api.executions("climate-extremes-wf")) == 2
        with pytest.raises(KeyError):
            api.status(10**9)

    def test_invocation_lands_on_declared_queue(self, cluster, orchestrator):
        """The TOSCA ComputeAccess queue drives the LSF submission."""
        _, api, _ = self._published(cluster, orchestrator, lambda c, p: 1)
        execution = api.invoke("climate-extremes-wf")
        execution.wait(timeout=10)
        assert execution.job.queue.name == "p_short"  # from the TOSCA

    def test_upload_duplicate_topology_rejected(self, cluster, orchestrator):
        a4c = Alien4Cloud(orchestrator=orchestrator)
        a4c.upload_topology(topology_from_yaml(TOSCA))
        with pytest.raises(ValueError):
            a4c.upload_topology(topology_from_yaml(TOSCA))

    def test_set_parameters_unknown_topology(self):
        with pytest.raises(KeyError):
            Alien4Cloud().set_parameters("ghost", x=1)
