"""A from-scratch NumPy deep-learning stack for TC localization.

The paper's §5.4 uses Keras/TensorFlow CNNs, pre-trained on historical
data, to localize tropical-cyclone centres in gridded climate variables.
Neither framework is available offline, so this package implements the
needed subset from first principles:

* :mod:`layers` — Conv2D (im2col), MaxPool2D, Dense, ReLU, Flatten,
  with exact analytic gradients (verified against numerical
  differentiation in the tests);
* :mod:`losses` — binary cross-entropy with logits and the composite
  localization loss (presence + masked centre regression);
* :mod:`optim` — Adam;
* :mod:`network` — a Sequential container with weight (de)serialisation;
* :mod:`training` — mini-batch training loop with history;
* :mod:`tc_localizer` — the TC model itself: synthetic vortex patch
  generation, training, and the tile → scale → infer → geo-reference
  pipeline of the case study.
"""

from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.losses import (
    bce_with_logits,
    bce_with_logits_grad,
    localization_loss,
)
from repro.ml.optim import Adam
from repro.ml.network import Sequential
from repro.ml.training import TrainingHistory, train
from repro.ml.tc_localizer import (
    TCLocalizer,
    TCPatchDataset,
    make_patch_dataset,
    localize_in_snapshot,
)

__all__ = [
    "Conv2D", "Dense", "Flatten", "MaxPool2D", "ReLU",
    "bce_with_logits", "bce_with_logits_grad",
    "localization_loss",
    "Adam",
    "Sequential",
    "TrainingHistory", "train",
    "TCLocalizer", "TCPatchDataset", "make_patch_dataset",
    "localize_in_snapshot",
]
