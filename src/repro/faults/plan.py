"""Declarative, seed-driven fault schedules.

A :class:`FaultPlan` states *what* goes wrong during a run — which node
dies and when, how flaky the shared filesystem is, how often task
bodies or transfers spontaneously fail — without saying anything about
recovery.  Two runs with the same plan draw the same pseudo-random
decision stream, so chaos experiments are reproducible bug reports:
``repro chaos --seed 7 ...`` fails the same way every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

#: Filesystem operations eligible for error injection by default.
#: Namespace probes (list/exists/size) are excluded: real GPFS flakiness
#: shows up on data movement, and failing ``listdir`` would break stream
#: polling loops that sit outside any retry scope.  They *are*
#: injectable when listed explicitly in ``FaultPlan.fs_ops`` — every op
#: now routes through the fault hook.  ``delete`` mutates namespace
#: state like a write, so it is fair game by default.
DEFAULT_FS_OPS = (
    "read", "write", "read_bytes", "write_bytes", "delete",
)


@dataclass(frozen=True)
class NodeCrash:
    """One scheduled node death.

    Exactly one trigger must be set:

    at_seconds:
        Wall-clock trigger — the node dies this long after the
        controller starts (how a power failure behaves).
    after_fs_writes:
        Event trigger — the node dies when the shared filesystem has
        absorbed this many write operations.  Deterministic with respect
        to workflow progress, so tests and CI use it.
    """

    node: str
    at_seconds: Optional[float] = None
    after_fs_writes: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.at_seconds is None) == (self.after_fs_writes is None):
            raise ValueError(
                "set exactly one of at_seconds / after_fs_writes "
                f"(got {self.at_seconds!r} / {self.after_fs_writes!r})"
            )
        if self.at_seconds is not None and self.at_seconds < 0:
            raise ValueError("at_seconds must be non-negative")
        if self.after_fs_writes is not None and self.after_fs_writes < 1:
            raise ValueError("after_fs_writes must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault schedule for one chaos run.

    Parameters
    ----------
    seed:
        Seeds every injector's RNG; same seed, same decision stream.
    fs_error_rate:
        Probability in [0, 1) that an eligible filesystem operation
        raises :class:`~repro.faults.errors.InjectedIOError`.
    fs_ops:
        Which filesystem operations are eligible.
    task_error_rate:
        Probability that a task execution raises
        :class:`~repro.faults.errors.InjectedTaskError` before running.
    task_targets:
        Restrict task-error injection to these function names
        (``None`` = every task).
    transfer_error_rate:
        Probability that a task with remote dependencies fails with
        :class:`~repro.faults.errors.InjectedTransferError`.
    node_crashes:
        Scheduled :class:`NodeCrash` events.
    """

    seed: int = 0
    fs_error_rate: float = 0.0
    fs_ops: Tuple[str, ...] = DEFAULT_FS_OPS
    task_error_rate: float = 0.0
    task_targets: Optional[Tuple[str, ...]] = None
    transfer_error_rate: float = 0.0
    node_crashes: Tuple[NodeCrash, ...] = ()

    def __post_init__(self) -> None:
        for name, rate in (
            ("fs_error_rate", self.fs_error_rate),
            ("task_error_rate", self.task_error_rate),
            ("transfer_error_rate", self.transfer_error_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        # Tolerate lists from loose construction (e.g. CLI assembly).
        if not isinstance(self.fs_ops, tuple):
            object.__setattr__(self, "fs_ops", tuple(self.fs_ops))
        if self.task_targets is not None and not isinstance(self.task_targets, tuple):
            object.__setattr__(self, "task_targets", tuple(self.task_targets))
        if not isinstance(self.node_crashes, tuple):
            object.__setattr__(self, "node_crashes", tuple(self.node_crashes))

    def describe(self) -> str:
        """One-line human summary for logs and the chaos CLI banner."""
        parts = [f"seed={self.seed}"]
        if self.fs_error_rate:
            parts.append(f"fs_error_rate={self.fs_error_rate:g}")
        if self.task_error_rate:
            target = ",".join(self.task_targets) if self.task_targets else "*"
            parts.append(f"task_error_rate={self.task_error_rate:g}@{target}")
        if self.transfer_error_rate:
            parts.append(f"transfer_error_rate={self.transfer_error_rate:g}")
        for crash in self.node_crashes:
            when = (
                f"t+{crash.at_seconds:g}s" if crash.at_seconds is not None
                else f"write#{crash.after_fs_writes}"
            )
            parts.append(f"kill {crash.node}@{when}")
        if len(parts) == 1:
            parts.append("no faults")
        return "FaultPlan(" + ", ".join(parts) + ")"
