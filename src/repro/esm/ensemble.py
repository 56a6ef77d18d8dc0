"""Initial-condition ensembles (the paper's §3).

"The time scale for execution of such simulations may vary ... according
to ... the number of simulation runs in the ensemble (group of runs of
the same ESM with different initial conditions)."  An ensemble here is
a set of model instances sharing configuration but differing in the
seed that controls weather noise and ocean initial phase — the injected
forced events (which represent the externally-forced signal) stay
identical across members, so ensemble statistics separate forced signal
from internal variability exactly as large-ensemble studies do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

import numpy as np

from repro.esm.model import CMCCCM3, ModelConfig


def member_name(index: int) -> str:
    """Canonical member directory name (CMIP 'r<N>i1p1f1' flavour)."""
    return f"r{index + 1}i1p1f1"


@dataclass(frozen=True)
class EnsembleConfig:
    """An ensemble: one base model configuration + member count."""

    base: ModelConfig
    n_members: int = 3

    def __post_init__(self) -> None:
        if self.n_members < 1:
            raise ValueError("ensemble needs at least one member")

    def member_config(self, index: int) -> ModelConfig:
        """Member *index*'s configuration: same physics, distinct seed.

        The event seed is kept at the base value so every member sees
        the same forced extremes; only internal variability differs.
        """
        if not 0 <= index < self.n_members:
            raise ValueError(f"member {index} outside [0, {self.n_members})")
        return replace(self.base, seed=self.base.seed + 1000 * (index + 1))


def build_member(config: EnsembleConfig, index: int) -> CMCCCM3:
    """Instantiate member *index* with shared forced events."""
    model = CMCCCM3(config.member_config(index))
    # Same forced events across members: variability lives in the noise.
    model.events.seed = config.base.seed
    return model


def ensemble_statistics(
    member_fields: Sequence[np.ndarray],
) -> Dict[str, np.ndarray]:
    """Pointwise ensemble mean, spread and sign agreement.

    *member_fields* are same-shaped per-member arrays (e.g. each
    member's heat-wave-number map).  ``agreement`` is the fraction of
    members sharing the ensemble-mean sign — the robustness measure
    ensemble studies report.
    """
    if not member_fields:
        raise ValueError("need at least one member field")
    stack = np.stack([np.asarray(f, dtype=np.float64) for f in member_fields])
    mean = stack.mean(axis=0)
    spread = stack.std(axis=0)
    sign = np.sign(mean)
    agreement = np.mean(np.sign(stack) == sign, axis=0)
    return {"mean": mean, "spread": spread, "agreement": agreement,
            "n_members": stack.shape[0]}
