"""The Yorc-like TOSCA orchestrator.

Walks a validated topology in dependency order and provisions each node
template onto the target cluster:

* ``eflows.nodes.ContainerRuntime`` (or any template with a
  ``container`` artifact) — builds the image through the Container
  Image Creation service;
* ``eflows.nodes.DataPipeline`` — registers/executes a Data Logistics
  Service pipeline (``when: deployment`` runs it immediately,
  ``when: execution`` defers to workflow launch);
* ``eflows.nodes.PythonEnvironment`` / software nodes — create an
  environment directory on the cluster's shared filesystem with a
  manifest of the requested packages;
* ``eflows.nodes.PyCOMPSsApplication`` — records the application
  entrypoint metadata the Execution API launches.

The deployment's lifecycle mirrors Yorc's: UNDEPLOYED → DEPLOYING →
DEPLOYED → UNDEPLOYING → UNDEPLOYED, with FAILED on provisioning errors.
"""

from __future__ import annotations

import enum
import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.hpcwaas.container import ContainerImageCreationService
from repro.hpcwaas.dls import DataLogisticsService, DLSError
from repro.hpcwaas.tosca import NodeTemplate, Topology, TOSCAError
from repro.observability.metrics import get_registry
from repro.observability.spans import maybe_span, span


class DeploymentState(enum.Enum):
    UNDEPLOYED = "UNDEPLOYED"
    DEPLOYING = "DEPLOYING"
    DEPLOYED = "DEPLOYED"
    UNDEPLOYING = "UNDEPLOYING"
    FAILED = "FAILED"


@dataclass
class Deployment:
    """A topology deployed (or deploying) onto a cluster."""

    deployment_id: int
    topology: Topology
    cluster: Cluster
    state: DeploymentState = DeploymentState.UNDEPLOYED
    provisioned: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    error: Optional[str] = None

    #: Node template holding the PyCOMPSs application entry metadata.
    application: Optional[NodeTemplate] = None
    #: DLS pipelines to run at execution time (deferred).
    execution_pipelines: List[str] = field(default_factory=list)

    @property
    def root(self) -> str:
        return f"deployments/{self.topology.name}"


class YorcOrchestrator:
    """Provisions topologies; owns the supporting services."""

    _ids = itertools.count(1)

    def __init__(
        self,
        container_service: Optional[ContainerImageCreationService] = None,
        dls: Optional[DataLogisticsService] = None,
    ) -> None:
        self.container_service = container_service or ContainerImageCreationService()
        self.dls = dls or DataLogisticsService()
        self._deployments: Dict[int, Deployment] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def deploy(self, topology: Topology, cluster: Cluster) -> Deployment:
        """Provision *topology* on *cluster*; raises on failure with the
        deployment left in FAILED state for inspection."""
        deployment = Deployment(next(self._ids), topology, cluster)
        with self._lock:
            self._deployments[deployment.deployment_id] = deployment
        deployment.state = DeploymentState.DEPLOYING
        outcome = "deployed"
        try:
            with span(f"deploy:{topology.name}", layer="hpcwaas",
                      attrs={"topology": topology.name,
                             "cluster": cluster.name}):
                for template in topology.deployment_order():
                    with maybe_span(f"provision:{template.name}",
                                    layer="hpcwaas",
                                    attrs={"type": template.type}):
                        record = self._provision(template, deployment)
                    deployment.provisioned[template.name] = record
        except (TOSCAError, DLSError, ValueError, OSError) as exc:
            deployment.state = DeploymentState.FAILED
            deployment.error = str(exc)
            outcome = "failed"
            raise
        finally:
            get_registry().counter(
                "hpcwaas_deployments_total", "Deployments by outcome",
                labels=("outcome",),
            ).inc(outcome=outcome)
        deployment.state = DeploymentState.DEPLOYED
        self._write_manifest(deployment)
        return deployment

    def undeploy(self, deployment: Deployment) -> None:
        if deployment.state is not DeploymentState.DEPLOYED:
            raise RuntimeError(
                f"cannot undeploy from state {deployment.state.value}"
            )
        deployment.state = DeploymentState.UNDEPLOYING
        # Environments are removed; workflow outputs are kept (undeploy
        # must never destroy science results).
        deployment.provisioned.clear()
        deployment.state = DeploymentState.UNDEPLOYED

    # ------------------------------------------------------------------

    def _provision(
        self, template: NodeTemplate, deployment: Deployment
    ) -> Dict[str, Any]:
        kind = template.type.rsplit(".", 1)[-1].lower()
        props = template.properties
        fs = deployment.cluster.filesystem

        if kind == "containerruntime" or "container" in template.artifacts:
            spec = template.artifacts.get("container", {})
            image = self.container_service.build(
                name=str(spec.get("name", template.name)),
                packages=list(props.get("packages", [])),
                base=str(spec.get("base", "python:3.11-slim")),
                target_platform=str(props.get("target_platform", "x86_64")),
            )
            return {"kind": "container", "image": image.reference}

        if kind == "datapipeline":
            pipeline = str(props.get("pipeline", template.name))
            when = str(props.get("when", "deployment"))
            if when == "deployment":
                moved = self.dls.execute(pipeline, fs)
                return {"kind": "data", "pipeline": pipeline, "bytes": moved}
            deployment.execution_pipelines.append(pipeline)
            return {"kind": "data", "pipeline": pipeline, "deferred": True}

        if kind in ("pythonenvironment", "softwarecomponent"):
            env_dir = f"{deployment.root}/envs/{template.name}"
            fs.makedirs(env_dir)
            manifest = {
                "packages": list(props.get("packages", [])),
                "python": str(props.get("python", "3.11")),
            }
            fs.write_bytes(f"{env_dir}/manifest.json", json.dumps(manifest).encode())
            return {"kind": "environment", "path": env_dir}

        if kind == "pycompssapplication":
            if deployment.application is not None:
                raise TOSCAError("topology declares two PyCOMPSs applications")
            deployment.application = template
            return {
                "kind": "application",
                "entrypoint": str(props.get("entrypoint", "")),
                "defaults": dict(props.get("arguments", {}) or {}),
            }

        if kind == "computeaccess":
            # Declares which cluster/queue the workflow targets.
            return {
                "kind": "compute",
                "cluster": deployment.cluster.name,
                "queue": str(props.get("queue", "p_short")),
            }

        raise TOSCAError(
            f"template {template.name!r} has unsupported type {template.type!r}"
        )

    def _write_manifest(self, deployment: Deployment) -> None:
        manifest = {
            "topology": deployment.topology.name,
            "cluster": deployment.cluster.name,
            "nodes": {
                name: {k: v for k, v in rec.items() if isinstance(v, (str, int, bool, list, dict))}
                for name, rec in deployment.provisioned.items()
            },
        }
        deployment.cluster.filesystem.write_bytes(
            f"{deployment.root}/deployment.json",
            json.dumps(manifest, indent=1, default=str).encode(),
        )
