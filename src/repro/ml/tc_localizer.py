"""The TC localization model and its data pipeline.

Mirrors the paper's §5.4: "identifying the presence of TC given a set of
input climate variables ... and localizing its center (or 'eye') in
terms of its geographical coordinates".  A small CNN consumes
multichannel patches (temperature, sea-level pressure, wind speed,
vorticity) and outputs a presence logit plus a normalised in-patch
centre; :func:`localize_in_snapshot` runs the full tile → scale → infer
→ geo-reference chain over a global snapshot or a stack of them.

Training data is synthetic: idealised warm-core vortices composited on
correlated background noise, with randomised intensity, size and centre
position — the stand-in for the paper's "pre-trained on historical data".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytics.tiling import patch_center_latlon, scale_features, tile_patches
from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.losses import localization_loss
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.ml.training import TrainingHistory, train
from repro.stencil import gaussian_filter

#: The channel order the localizer is trained on.
CHANNELS = ("T850", "PSL", "WSPDSRFAV", "VORT850")

#: Six-hourly steps per CNN forward pass over a stack of snapshots: one
#: simulated day, 32 patches on the 32x64 case-study grid, 60 passes per
#: simulated year.  Measured on a 2-core host, not guessed (see
#: docs/PERFORMANCE.md): larger passes hold larger temporaries (case
#: study peak RSS 146 MiB at 8 steps, 186 at 32, 479 at a year, against
#: 140 here) and ran no faster.  From 8 steps on, the first dense product
#: is also past the size at which OpenBLAS starts a second thread, which
#: stalls while the ESM holds the other core.
STEPS_PER_PASS = 4


@dataclass
class TCPatchDataset:
    """Training patches with labels."""

    patches: np.ndarray        # (n, C, P, P) raw (unscaled)
    presence: np.ndarray       # (n,)
    centers: np.ndarray        # (n, 2) normalised [0,1] (row, col); 0 where absent
    stats: Optional[Dict[str, np.ndarray]] = None


#: Gaussian correlation scale per channel (T850, PSL, WSPD, VORT).
_BACKGROUND_SCALES = (2.0, 2.5, 2.0, 1.0)


def _background(rng: np.random.Generator, patch: int) -> np.ndarray:
    """Correlated background noise for the four channels."""
    fields = []
    for scale in _BACKGROUND_SCALES:
        white = rng.standard_normal((patch, patch))
        fields.append(gaussian_filter(white, scale, mode="wrap"))
    t850 = 270.0 + 6.0 * fields[0]
    psl = 1013.0 + 4.0 * fields[1]
    wspd = np.abs(6.0 + 3.0 * fields[2])
    vort = 1.2e-5 * fields[3]
    return np.stack([t850, psl, wspd, vort])


def _background_batch(whites: np.ndarray) -> np.ndarray:
    """Batched :func:`_background` from pre-drawn whites ``(n, C, P, P)``.

    ``sigma=(0, s, s)`` filters every sample in one separable pass
    without smoothing across the batch axis, which is bitwise identical
    to filtering each ``(P, P)`` field on its own.
    """
    fields = [
        gaussian_filter(whites[:, c], (0.0, s, s), mode="wrap")
        for c, s in enumerate(_BACKGROUND_SCALES)
    ]
    t850 = 270.0 + 6.0 * fields[0]
    psl = 1013.0 + 4.0 * fields[1]
    wspd = np.abs(6.0 + 3.0 * fields[2])
    vort = 1.2e-5 * fields[3]
    return np.stack([t850, psl, wspd, vort], axis=1)


def _vortex(
    rng: np.random.Generator, patch: int, center_rc: Tuple[float, float]
) -> np.ndarray:
    """Additive TC signature centred at *center_rc* (cell units)."""
    rows = np.arange(patch)[:, None]
    cols = np.arange(patch)[None, :]
    r = np.sqrt((rows - center_rc[0]) ** 2 + (cols - center_rc[1]) ** 2) + 1e-6
    radius = rng.uniform(1.5, 3.5)
    deficit = rng.uniform(25.0, 70.0)
    vmax = rng.uniform(18.0, 45.0)
    spin = 1.0 if rng.random() < 0.5 else -1.0

    shape = np.exp(-((r / radius) ** 2))
    dpsl = -deficit * shape
    dt = 4.0 * np.exp(-((r / (0.6 * radius)) ** 2))
    profile = np.where(r <= radius, r / radius, (radius / r) ** 0.7)
    dwspd = vmax * profile * np.exp(-((r / (3 * radius)) ** 2))
    dvort = spin * 3.0e-4 * shape
    return np.stack([dt, dpsl, dwspd, dvort])


def _vortex_batch(
    patch: int,
    centers_rc: np.ndarray,
    radius: np.ndarray,
    deficit: np.ndarray,
    vmax: np.ndarray,
    spin: np.ndarray,
) -> np.ndarray:
    """Batched :func:`_vortex`: ``(m, C, P, P)`` signatures from drawn params.

    *centers_rc* is ``(m, 2)``; the remaining parameters are ``(m,)``.
    """
    rows = np.arange(patch)[None, :, None]
    cols = np.arange(patch)[None, None, :]
    cr = centers_rc[:, 0][:, None, None]
    cc = centers_rc[:, 1][:, None, None]
    r = np.sqrt((rows - cr) ** 2 + (cols - cc) ** 2) + 1e-6
    radius = radius[:, None, None]
    deficit = deficit[:, None, None]
    vmax = vmax[:, None, None]
    spin = spin[:, None, None]

    shape = np.exp(-((r / radius) ** 2))
    dpsl = -deficit * shape
    dt = 4.0 * np.exp(-((r / (0.6 * radius)) ** 2))
    profile = np.where(r <= radius, r / radius, (radius / r) ** 0.7)
    dwspd = vmax * profile * np.exp(-((r / (3 * radius)) ** 2))
    dvort = spin * 3.0e-4 * shape
    return np.stack([dt, dpsl, dwspd, dvort], axis=1)


def make_patch_dataset(
    n_samples: int = 1200,
    patch: int = 16,
    positive_fraction: float = 0.5,
    seed: int = 0,
) -> TCPatchDataset:
    """Generate a synthetic labelled patch set (deterministic per seed).

    The per-sample loop only performs the RNG draws — in exactly the
    order of the original loop implementation, so datasets for a given
    seed are unchanged — while the heavy field math (Gaussian filtering,
    vortex composition) runs batched across the whole sample set.
    """
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError("positive_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    presence = np.zeros(n_samples)
    centers = np.zeros((n_samples, 2))
    margin = 2.0
    whites = np.empty((n_samples, len(CHANNELS), patch, patch))
    pos_idx: List[int] = []
    pos_centers: List[Tuple[float, float]] = []
    pos_params: List[Tuple[float, float, float, float]] = []
    for k in range(n_samples):
        for c in range(len(CHANNELS)):
            whites[k, c] = rng.standard_normal((patch, patch))
        if rng.random() < positive_fraction:
            center = (
                rng.uniform(margin, patch - 1 - margin),
                rng.uniform(margin, patch - 1 - margin),
            )
            pos_idx.append(k)
            pos_centers.append(center)
            pos_params.append((
                rng.uniform(1.5, 3.5),
                rng.uniform(25.0, 70.0),
                rng.uniform(18.0, 45.0),
                1.0 if rng.random() < 0.5 else -1.0,
            ))
            presence[k] = 1.0
            centers[k] = (center[0] / (patch - 1), center[1] / (patch - 1))
    patches = _background_batch(whites)
    if pos_idx:
        params = np.asarray(pos_params)
        patches[pos_idx] = patches[pos_idx] + _vortex_batch(
            patch, np.asarray(pos_centers),
            params[:, 0], params[:, 1], params[:, 2], params[:, 3],
        )
    return TCPatchDataset(patches, presence, centers)


def _make_patch_dataset_reference(
    n_samples: int = 1200,
    patch: int = 16,
    positive_fraction: float = 0.5,
    seed: int = 0,
) -> TCPatchDataset:
    """Original per-sample loop implementation, kept as the regression
    oracle for the vectorised :func:`make_patch_dataset`."""
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError("positive_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    patches = np.empty((n_samples, len(CHANNELS), patch, patch))
    presence = np.zeros(n_samples)
    centers = np.zeros((n_samples, 2))
    margin = 2.0
    for k in range(n_samples):
        sample = _background(rng, patch)
        if rng.random() < positive_fraction:
            center = (
                rng.uniform(margin, patch - 1 - margin),
                rng.uniform(margin, patch - 1 - margin),
            )
            sample = sample + _vortex(rng, patch, center)
            presence[k] = 1.0
            centers[k] = (center[0] / (patch - 1), center[1] / (patch - 1))
        patches[k] = sample
    return TCPatchDataset(patches, presence, centers)


class TCLocalizer:
    """The CNN: two conv/pool stages, a dense trunk, a 3-unit head.

    Output per patch: ``[presence_logit, center_row, center_col]`` with
    centres in normalised patch coordinates.
    """

    def __init__(self, patch: int = 16, seed: int = 0) -> None:
        if patch % 4:
            raise ValueError("patch size must be divisible by 4 (two pools)")
        self.patch = patch
        rng = np.random.default_rng(seed)
        reduced = patch // 4
        self.network = Sequential([
            Conv2D(len(CHANNELS), 12, kernel=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(12, 24, kernel=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(24 * reduced * reduced, 48, rng=rng),
            ReLU(),
            Dense(48, 3, rng=rng),
        ])
        self.stats: Optional[Dict[str, np.ndarray]] = None

    # -- training ---------------------------------------------------------

    def fit(
        self,
        dataset: TCPatchDataset,
        epochs: int = 6,
        batch_size: int = 64,
        lr: float = 2e-3,
        seed: int = 0,
        center_weight: float = 1.0,
    ) -> TrainingHistory:
        scaled, stats = scale_features(dataset.patches)
        self.stats = stats
        dataset.stats = stats

        def loss_fn(outputs, presence, centers):
            return localization_loss(outputs, presence, centers,
                                     center_weight=center_weight)

        return train(
            self.network,
            scaled,
            (dataset.presence, dataset.centers),
            loss_fn,
            Adam(lr=lr),
            epochs=epochs,
            batch_size=batch_size,
            rng=np.random.default_rng(seed),
        )

    # -- inference ---------------------------------------------------------

    def predict(self, patches: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(probabilities, centres) for raw (unscaled) patches."""
        if self.stats is None:
            raise RuntimeError("model is untrained: call fit() or load()")
        scaled, _ = scale_features(np.asarray(patches), self.stats)
        out = self.network.forward(scaled)
        probs = 1.0 / (1.0 + np.exp(-np.clip(out[:, 0], -60, 60)))
        centers = np.clip(out[:, 1:], 0.0, 1.0)
        return probs, centers

    def evaluate(self, dataset: TCPatchDataset) -> Dict[str, float]:
        """Accuracy and mean centre error (cells) on a labelled set."""
        probs, centers = self.predict(dataset.patches)
        predicted = probs >= 0.5
        accuracy = float((predicted == (dataset.presence > 0.5)).mean())
        mask = dataset.presence > 0.5
        if mask.any():
            err = np.linalg.norm(
                (centers[mask] - dataset.centers[mask]) * (self.patch - 1), axis=1
            )
            center_error = float(err.mean())
        else:
            center_error = float("nan")
        return {"accuracy": accuracy, "center_error_cells": center_error}

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        import pickle

        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "patch": self.patch,
                    "weights": self.network.state_bytes(),
                    "stats": self.stats,
                },
                fh,
            )

    @classmethod
    def load(cls, path: str) -> "TCLocalizer":
        import pickle

        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        model = cls(patch=payload["patch"])
        model.network.load_state_bytes(payload["weights"])
        model.stats = payload["stats"]
        return model


def localize_in_snapshot(
    model: TCLocalizer,
    fields: Dict[str, np.ndarray],
    lat: np.ndarray,
    lon: np.ndarray,
    threshold: float = 0.5,
) -> List:
    """Full-pipeline localization over one global snapshot or a stack.

    *fields* maps channel names (:data:`CHANNELS`) to (lat, lon) arrays,
    or to (steps, lat, lon) arrays for a run of snapshots.  A snapshot
    gives ``[(lat, lon, probability), ...]`` for patches above the
    presence *threshold*, geo-referenced through the patch origins; a
    stack gives one such list per step, inferring
    :data:`STEPS_PER_PASS` steps per forward pass.
    """
    missing = [c for c in CHANNELS if c not in fields]
    if missing:
        raise KeyError(f"snapshot missing channels {missing}")
    arrays = [np.asarray(fields[c]) for c in CHANNELS]
    single = arrays[0].ndim == 2
    if single:
        arrays = [a[None] for a in arrays]
    per_step: List[List[Tuple[float, float, float]]] = []
    for start in range(0, arrays[0].shape[0], STEPS_PER_PASS):
        group = np.stack([a[start:start + STEPS_PER_PASS] for a in arrays], axis=1)
        patches, origins = tile_patches(group, model.patch)
        probs, centers = model.predict(patches)
        tiles = len(origins) // len(group)
        found: List[List[Tuple[float, float, float]]] = [[] for _ in group]
        hits = np.flatnonzero(~(probs < threshold))
        plat, plon = patch_center_latlon(
            np.asarray(origins)[hits], centers[hits] * (model.patch - 1), lat, lon,
        )
        for k, hit_lat, hit_lon, prob in zip(
            hits.tolist(), plat.tolist(), plon.tolist(), probs[hits].tolist()
        ):
            found[k // tiles].append((hit_lat, hit_lon, prob))
        per_step.extend(found)
    return per_step[0] if single else per_step
