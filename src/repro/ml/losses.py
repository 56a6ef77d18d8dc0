"""Loss functions and their gradients.

The TC localizer optimises a composite objective: binary cross-entropy
on patch-level presence (computed on logits for numerical stability)
plus mean-squared error on the in-patch centre coordinates, the latter
masked to positive patches only — a patch without a storm has no centre
to regress.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy, stable for large |logits|."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(loss.mean())


def bce_with_logits_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d logits = (sigmoid(z) - y) / N."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return (_sigmoid(z) - y) / z.size


def localization_loss(
    outputs: np.ndarray,
    presence: np.ndarray,
    centers: np.ndarray,
    center_weight: float = 1.0,
) -> Tuple[float, np.ndarray, Dict[str, float]]:
    """Composite TC loss.

    Parameters
    ----------
    outputs:
        Network output ``(N, 3)``: presence logit, centre row, centre col
        (centres in normalised [0, 1] patch coordinates).
    presence:
        ``(N,)`` binary labels.
    centers:
        ``(N, 2)`` normalised target centres (ignored where
        ``presence == 0``).

    Returns ``(loss, grad wrt outputs, components)``.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    presence = np.asarray(presence, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[1] != 3:
        raise ValueError(f"expected (N, 3) outputs, got {outputs.shape}")

    logits = outputs[:, 0]
    pred_centers = outputs[:, 1:]

    p_loss = bce_with_logits(logits, presence)
    grad = np.zeros_like(outputs)
    grad[:, 0] = bce_with_logits_grad(logits, presence)

    mask = presence > 0.5
    n_pos = int(mask.sum())
    if n_pos:
        diff = pred_centers[mask] - centers[mask]
        c_loss = float((diff**2).mean())
        grad_centers = np.zeros_like(pred_centers)
        grad_centers[mask] = 2.0 * diff / diff.size
        grad[:, 1:] = center_weight * grad_centers
    else:
        c_loss = 0.0

    total = p_loss + center_weight * c_loss
    return total, grad, {"presence": p_loss, "center": c_loss}
