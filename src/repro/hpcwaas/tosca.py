"""TOSCA topology model (the subset Alien4Cloud/Yorc exchange).

A topology declares node templates — software components, jobs, data
sets — with properties, typed requirements on other templates, and
artifacts (container image specs, data pipelines).  The orchestrator
walks templates in dependency order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from repro.hpcwaas.yamlsubset import parse_yaml


class TOSCAError(ValueError):
    """Invalid topology description."""


@dataclass
class NodeTemplate:
    """One component of the application architecture."""

    name: str
    type: str
    properties: Dict[str, Any] = field(default_factory=dict)
    requirements: List[str] = field(default_factory=list)   # names of others
    artifacts: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Topology:
    """A TOSCA application topology."""

    name: str
    node_templates: Dict[str, NodeTemplate] = field(default_factory=dict)
    inputs: Dict[str, Any] = field(default_factory=dict)

    def add(self, template: NodeTemplate) -> None:
        if template.name in self.node_templates:
            raise TOSCAError(f"duplicate node template {template.name!r}")
        self.node_templates[template.name] = template

    def validate(self) -> None:
        """Check requirement targets exist and requirements form no cycle."""
        self.deployment_order()

    def deployment_order(self) -> List[NodeTemplate]:
        """Templates sorted so requirements deploy before dependents.

        Kahn's algorithm with a heap of names: of the templates whose
        requirements are all deployed, the lexicographically smallest
        goes next.
        """
        templates = self.node_templates
        waiting: Dict[str, Set[str]] = {}   # requirements not yet deployed
        dependents: Dict[str, List[str]] = {name: [] for name in templates}
        for template in templates.values():
            for req in template.requirements:
                if req not in templates:
                    raise TOSCAError(
                        f"template {template.name!r} requires unknown node {req!r}"
                    )
            waiting[template.name] = set(template.requirements)
            for req in waiting[template.name]:
                dependents[req].append(template.name)
        ready = [name for name, reqs in waiting.items() if not reqs]
        heapq.heapify(ready)
        order: List[NodeTemplate] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(templates[name])
            for dependent in dependents[name]:
                waiting[dependent].discard(name)
                if not waiting[dependent]:
                    heapq.heappush(ready, dependent)
        if len(order) < len(templates):
            raise TOSCAError(f"requirement cycle: {' -> '.join(_cycle(waiting))}")
        return order


def _cycle(waiting: Dict[str, Set[str]]) -> List[str]:
    """One requirement cycle among the templates Kahn's algorithm left,
    closed on its first name: every one still waits on another of them."""
    path: List[str] = []
    name = min(name for name, reqs in waiting.items() if reqs)
    while name not in path:
        path.append(name)
        name = min(waiting[name])
    return path[path.index(name):] + [name]


def topology_from_yaml(text: str) -> Topology:
    """Build a :class:`Topology` from a TOSCA-style YAML document.

    Expected shape (a pragmatic subset of TOSCA Simple Profile)::

        tosca_definitions_version: tosca_simple_yaml_1_3
        metadata:
          template_name: climate-extremes
        topology_template:
          inputs:
            years: {...}          # or scalar defaults
          node_templates:
            <name>:
              type: <type string>
              properties: {...}
              requirements:
                - host: <other template>
              artifacts: {...}
    """
    doc = parse_yaml(text)
    if not isinstance(doc, dict):
        raise TOSCAError("topology document must be a mapping")
    meta = doc.get("metadata") or {}
    tt = doc.get("topology_template")
    if not isinstance(tt, dict):
        raise TOSCAError("missing topology_template section")
    name = str(meta.get("template_name") or doc.get("template_name") or "unnamed")
    topology = Topology(name=name, inputs=dict(tt.get("inputs") or {}))

    templates = tt.get("node_templates")
    if not isinstance(templates, dict) or not templates:
        raise TOSCAError("topology_template.node_templates must be a non-empty mapping")
    for tpl_name, body in templates.items():
        if not isinstance(body, dict):
            raise TOSCAError(f"node template {tpl_name!r} must be a mapping")
        type_name = body.get("type")
        if not type_name:
            raise TOSCAError(f"node template {tpl_name!r} lacks a type")
        requirements: List[str] = []
        for req in body.get("requirements") or []:
            if isinstance(req, dict):
                requirements.extend(str(v) for v in req.values())
            else:
                requirements.append(str(req))
        topology.add(NodeTemplate(
            name=str(tpl_name),
            type=str(type_name),
            properties=dict(body.get("properties") or {}),
            requirements=requirements,
            artifacts=dict(body.get("artifacts") or {}),
        ))
    topology.validate()
    return topology
