"""The Adam optimiser.

It updates parameter arrays in place, keyed by position in the list the
network exposes, so optimiser state survives across steps without the
layers knowing anything about optimisation.
"""

from __future__ import annotations

from typing import List

import numpy as np


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: List[np.ndarray] = []
        self._v: List[np.ndarray] = []
        self._t = 0

    def step(self, params, grads) -> None:
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(params) != len(self._m):
            raise ValueError("parameter set changed between steps")
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g**2
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
