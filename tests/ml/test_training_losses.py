"""Losses, optimisers, network container and training-loop tests."""

import numpy as np
import pytest

from repro.ml import (
    Adam,
    Dense,
    ReLU,
    Sequential,
    bce_with_logits,
    bce_with_logits_grad,
    localization_loss,
    train,
)
from repro.ml.training import numerical_gradient


class TestLosses:
    def test_bce_known_values(self):
        assert bce_with_logits(np.array([0.0]), np.array([1.0])) == pytest.approx(
            np.log(2)
        )
        assert bce_with_logits(np.array([100.0]), np.array([1.0])) < 1e-6

    def test_bce_stable_at_extremes(self):
        loss = bce_with_logits(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.isfinite(loss)

    def test_bce_grad_matches_numeric(self):
        z = np.random.default_rng(0).normal(size=6)
        y = np.array([0, 1, 1, 0, 1, 0], dtype=float)

        def f():
            return bce_with_logits(z, y)

        np.testing.assert_allclose(
            bce_with_logits_grad(z, y), numerical_gradient(f, z), atol=1e-7
        )

    def test_localization_loss_masks_negatives(self):
        out = np.array([[5.0, 0.9, 0.9], [-5.0, 0.9, 0.9]])
        presence = np.array([1.0, 0.0])
        centers = np.array([[0.9, 0.9], [0.0, 0.0]])
        loss, grad, comps = localization_loss(out, presence, centers)
        # Perfect predictions: tiny presence loss, zero centre loss.
        assert comps["center"] == pytest.approx(0.0)
        assert np.all(grad[1, 1:] == 0.0)  # no centre grad for negatives

    def test_localization_loss_grad_numeric(self):
        rng = np.random.default_rng(1)
        out = rng.normal(size=(5, 3))
        presence = (rng.random(5) > 0.5).astype(float)
        presence[0] = 1.0
        centers = rng.random((5, 2))

        def f():
            return localization_loss(out, presence, centers)[0]

        _, grad, _ = localization_loss(out, presence, centers)
        np.testing.assert_allclose(grad, numerical_gradient(f, out), atol=1e-6)

    def test_localization_loss_shape_validation(self):
        with pytest.raises(ValueError):
            localization_loss(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))

    def test_all_negative_batch(self):
        out = np.zeros((3, 3))
        loss, grad, comps = localization_loss(out, np.zeros(3), np.zeros((3, 2)))
        assert comps["center"] == 0.0
        assert np.all(grad[:, 1:] == 0.0)


class TestOptimizers:
    def test_adam_bias_correction_first_step(self):
        opt = Adam(lr=0.1)
        p = np.array([1.0])
        opt.step([p], [np.array([3.0])])
        # First Adam step has magnitude ~lr regardless of gradient scale.
        assert p[0] == pytest.approx(0.9, abs=1e-6)

    def test_param_set_change_rejected(self):
        opt = Adam()
        p = np.array([1.0])
        opt.step([p], [np.array([1.0])])
        with pytest.raises(ValueError):
            opt.step([p, p], [np.array([1.0]), np.array([1.0])])

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)
        with pytest.raises(ValueError):
            Adam(lr=-1)

    def test_optimizers_reduce_quadratic(self):
        opt = Adam(lr=0.1)
        p = np.array([5.0])
        for _ in range(200):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 0.5


class TestSequentialAndTraining:
    def _xor_net(self, seed=0):
        rng = np.random.default_rng(seed)
        return Sequential([Dense(2, 12, rng=rng), ReLU(), Dense(12, 1, rng=rng)])

    def test_network_learns_xor(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])

        def loss_fn(out, target):
            return (
                bce_with_logits(out, target),
                bce_with_logits_grad(out, target),
                {},
            )

        model = self._xor_net()
        history = train(
            model, x, (y,), loss_fn, Adam(lr=0.05), epochs=300, batch_size=4,
            rng=np.random.default_rng(0),
        )
        assert history.loss[-1] < 0.1
        assert history.loss[-1] < history.loss[0]
        preds = 1 / (1 + np.exp(-model.forward(x)))
        assert np.all((preds > 0.5).astype(float) == y)

    def test_parameter_count(self):
        model = self._xor_net()
        assert model.n_parameters == 2 * 12 + 12 + 12 * 1 + 1

    def test_state_save_load_roundtrip(self):
        model = self._xor_net(seed=1)
        other = self._xor_net(seed=2)
        other.load_state_bytes(model.state_bytes())
        x = np.random.default_rng(0).normal(size=(3, 2))
        np.testing.assert_array_equal(model.forward(x), other.forward(x))

    def test_load_shape_mismatch_rejected(self):
        model = self._xor_net()
        bigger = Sequential([Dense(3, 4)])
        with pytest.raises(ValueError):
            bigger.load_state_bytes(model.state_bytes())

    def test_train_validation(self):
        model = self._xor_net()
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 2)), (np.zeros((0, 1)),),
                  lambda o, t: (0.0, np.zeros_like(o), {}), Adam())
        with pytest.raises(ValueError):
            train(model, np.zeros((2, 2)), (np.zeros((2, 1)),),
                  lambda o, t: (0.0, np.zeros_like(o), {}), Adam(), epochs=0)
