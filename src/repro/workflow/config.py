"""Case-study configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class WorkflowParams:
    """Parameters of the extreme-events workflow.

    Defaults are test-scale; examples and benchmarks scale them up.
    The paper's production run uses 768x1152 cells, 365-day years and
    multi-decade projections.
    """

    years: List[int] = field(default_factory=lambda: [2030])
    n_days: int = 60                 # days simulated per year (365 = full)
    n_lat: int = 24
    n_lon: int = 36
    scenario: str = "ssp245"
    seed: int = 42

    n_workers: int = 4               # COMPSs workers
    scheduler: str = "fifo"
    ophidia_io_servers: int = 2
    ophidia_cores: int = 2
    nfrag: int = 4
    #: Resident-fragment byte budget of the whole Ophidia IO server
    #: pool (summed over all ``ophidia_io_servers``).  When the budget
    #: is exceeded, least-recently-used fragments spill to the shared
    #: filesystem and reload transparently on next access.  0 keeps
    #: every fragment resident (no tiering).
    ophidia_memory_budget_bytes: int = 0
    #: Directory for spilled fragment files.  ``None`` derives
    #: ``<cluster fs>/ophidia_spill`` when a budget is set.
    ophidia_spill_dir: Optional[str] = None
    #: Cores per simulated node for CLI/benchmark ``laptop_like``
    #: clusters.  Explicit and deterministic — never derived from
    #: ``os.cpu_count()`` — so scheduling order and perf baselines do
    #: not depend on the host machine.
    cluster_cores_per_node: int = 4

    threshold_k: float = 5.0
    min_length_days: int = 6

    with_ml: bool = True
    tc_model_path: Optional[str] = None   # host path; trained if absent
    tc_patch: int = 16
    tc_target_grid: Tuple[int, int] = (32, 64)

    reuse_baseline: bool = True      # C2 ablation knob
    #: When True, analytics are submitted only after the simulation task
    #: completes — the no-streaming-overlap baseline of experiment C1.
    sequential: bool = False
    #: Sleep per simulated day, emulating the real model's production
    #: cadence (the real CMCC-CM3 takes minutes-to-hours per day).
    pace_seconds: float = 0.0
    #: ESM restart-file cadence in days (0 = no restarts).  A re-run of
    #: an interrupted simulation resumes from the newest restart file.
    esm_restart_every: int = 0
    output_dir: str = "esm_output"
    results_dir: str = "results"
    checkpoint_dir: Optional[str] = None
    #: Host path of the persistent run-history database.  ``None``
    #: defers to ``$REPRO_RUNS_DB``; when neither is set the run is not
    #: persisted (library/unit-test invocations stay side-effect free).
    runs_db: Optional[str] = None
    #: Host path of an SLO rules YAML; when set, a live evaluator runs
    #: alongside the workflow and emits ``slo_breach`` events.
    slo_rules_path: Optional[str] = None
    #: Host path override for the structured event log.  Default: the
    #: run writes ``<results_dir>/events.jsonl`` on the cluster FS.
    events_path: Optional[str] = None

    def to_public_dict(self) -> Dict[str, Any]:
        """JSON-safe parameter dict for provenance/history records."""
        from dataclasses import asdict

        doc = asdict(self)
        doc["tc_target_grid"] = list(doc["tc_target_grid"])
        return doc

    def __post_init__(self) -> None:
        if not self.years:
            raise ValueError("need at least one simulation year")
        if not 1 <= self.n_days <= 365:
            raise ValueError("n_days must be in [1, 365]")
        if self.min_length_days > self.n_days:
            raise ValueError("min_length_days cannot exceed n_days")
        for name, low in _LOWER_BOUNDS:
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        if self.tc_target_grid[0] % self.tc_patch or self.tc_target_grid[1] % self.tc_patch:
            raise ValueError("tc_target_grid must be divisible by tc_patch")

    @classmethod
    def from_dict(cls, params: Dict[str, Any]) -> "WorkflowParams":
        """Build from a loose dict (HPCWaaS invocation, service job or
        CLI ``--param`` pairs): the one gate for parameters from outside
        the program.  Each value must match its field's type; a wrong
        one raises :class:`ValueError` naming the field.
        """
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(params) - set(types)
        if unknown:
            raise ValueError(f"unknown workflow parameters: {sorted(unknown)}")
        kwargs = dict(params)
        years = kwargs.get("years")
        if isinstance(years, int) and not isinstance(years, bool):
            kwargs["years"] = [years]
        elif isinstance(years, list) and all(
            isinstance(y, str) and y.isdigit() for y in years
        ):
            kwargs["years"] = [int(y) for y in years]
        for name, value in kwargs.items():
            if not _TYPE_CHECKS[types[name]](value):
                raise ValueError(
                    f"workflow parameter {name!r} must be {types[name]}, "
                    f"got {value!r}"
                )
            if types[name] == "float":
                kwargs[name] = float(value)
        if "tc_target_grid" in kwargs:
            kwargs["tc_target_grid"] = tuple(kwargs["tc_target_grid"])
        return cls(**kwargs)


#: Smallest accepted value of each numeric field with a range.
_LOWER_BOUNDS = (
    ("n_workers", 1),
    ("ophidia_io_servers", 1),
    ("ophidia_cores", 1),
    ("ophidia_memory_budget_bytes", 0),
    ("cluster_cores_per_node", 1),
    ("min_length_days", 1),
    ("tc_patch", 1),
    ("pace_seconds", 0),
    ("esm_restart_every", 0),
)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: ``from_dict`` value checks, keyed by the (string) field annotation.
_TYPE_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
    "Optional[str]": lambda v: v is None or isinstance(v, str),
    "List[int]": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "Tuple[int, int]": lambda v: (
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v))
    ),
}
