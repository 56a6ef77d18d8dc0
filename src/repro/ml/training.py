"""Mini-batch training loop and gradient checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ml.network import Sequential
from repro.ml.optim import Adam


@dataclass
class TrainingHistory:
    """Per-epoch aggregates."""

    loss: List[float] = field(default_factory=list)
    components: List[Dict[str, float]] = field(default_factory=list)


#: A loss callable: (outputs, *targets) -> (loss, grad_wrt_outputs, components)
LossFn = Callable[..., Tuple[float, np.ndarray, Dict[str, float]]]


def train(
    model: Sequential,
    inputs: np.ndarray,
    targets: Tuple[np.ndarray, ...],
    loss_fn: LossFn,
    optimizer: Adam,
    epochs: int = 5,
    batch_size: int = 32,
    rng: Optional[np.random.Generator] = None,
    verbose: bool = False,
) -> TrainingHistory:
    """Train *model* on ``(inputs, targets)``; targets are passed through
    to *loss_fn* sliced by the same batch indices."""
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    rng = rng or np.random.default_rng()
    history = TrainingHistory()

    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        comp_sums: Dict[str, float] = {}
        n_batches = 0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            outputs = model.forward(inputs[batch], train=True)
            loss, grad, comps = loss_fn(outputs, *(t[batch] for t in targets))
            model.backward(grad)
            optimizer.step(model.params, model.grads)
            epoch_loss += loss
            for key, value in comps.items():
                comp_sums[key] = comp_sums.get(key, 0.0) + value
            n_batches += 1
        history.loss.append(epoch_loss / n_batches)
        history.components.append(
            {k: v / n_batches for k, v in comp_sums.items()}
        )
        if verbose:  # pragma: no cover - console aid
            print(f"epoch {epoch + 1}/{epochs}  loss={history.loss[-1]:.5f}")
    return history


def numerical_gradient(
    f: Callable[[], float], param: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar *f* wrt *param* (in place)."""
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = param[idx]
        param[idx] = original + eps
        f_plus = f()
        param[idx] = original - eps
        f_minus = f()
        param[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad
