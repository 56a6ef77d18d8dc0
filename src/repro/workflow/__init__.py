"""The climate extreme-events case study (the paper's §5–§6).

Everything below this package is substrate; this package is the
workflow the paper actually presents: a single PyCOMPSs application
that

1. runs the (simulated) CMCC-CM3 model, producing one file per day,
2. monitors the output directory through a streaming interface and
   reacts as soon as each full year of data is available,
3. computes heat-wave and cold-wave indices through Ophidia operator
   pipelines (duration max / number / frequency — the paper's
   Listing 1 tasks),
4. localizes tropical cyclones with the pre-trained CNN and a
   deterministic tracker,
5. validates results, stores them as NetCDF-like files and renders
   maps (Figure 4),

all orchestrated as dependent tasks so analytics overlap the running
simulation.  :mod:`repro.workflow.tosca` carries the TOSCA topology
used to deploy the application through the HPCWaaS stack (Figure 2).
"""

from repro.workflow.config import WorkflowParams
from repro.workflow.extreme_events import (
    run_distributed_extreme_events,
    run_extreme_events_workflow,
)
from repro.workflow.tosca import CASE_STUDY_TOSCA, build_case_study_services

__all__ = [
    "WorkflowParams",
    "run_extreme_events_workflow",
    "run_distributed_extreme_events",
    "CASE_STUDY_TOSCA",
    "build_case_study_services",
]
