"""The Sequential network container."""

from __future__ import annotations

import pickle
from typing import List, Sequence

import numpy as np

from repro.ml.layers import Layer


class Sequential:
    """A simple feed-forward stack of layers."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    __call__ = forward

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate loss gradient back through all layers."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    @property
    def params(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.params)

    # -- persistence --------------------------------------------------------

    def state_bytes(self) -> bytes:
        """Serialise all weights (architecture is code, not data)."""
        return pickle.dumps([p.copy() for p in self.params])

    def load_state_bytes(self, payload: bytes) -> None:
        """Restore weights produced by :meth:`state_bytes`.

        Raises ``ValueError`` on arity or shape mismatch so loading a
        checkpoint into the wrong architecture fails loudly.
        """
        weights = pickle.loads(payload)
        params = self.params
        if len(weights) != len(params):
            raise ValueError(
                f"checkpoint has {len(weights)} arrays, model expects {len(params)}"
            )
        for target, source in zip(params, weights):
            if target.shape != source.shape:
                raise ValueError(
                    f"shape mismatch: checkpoint {source.shape} vs model {target.shape}"
                )
            target[...] = source
