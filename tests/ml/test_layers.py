"""Layer-level tests: shapes, semantics, and exact gradient checks."""

import numpy as np
import pytest

from repro.ml import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.training import numerical_gradient

RNG = np.random.default_rng(0)


class TestShapesAndSemantics:
    def test_conv_same_padding_shape(self):
        conv = Conv2D(3, 8, kernel=3, rng=RNG)
        out = conv.forward(RNG.normal(size=(2, 3, 10, 12)))
        assert out.shape == (2, 8, 10, 12)

    def test_conv_valid_padding_shape(self):
        conv = Conv2D(1, 4, kernel=3, pad=0, rng=RNG)
        out = conv.forward(RNG.normal(size=(2, 1, 10, 12)))
        assert out.shape == (2, 4, 8, 10)

    def test_conv_matches_manual_computation(self):
        conv = Conv2D(1, 1, kernel=3, pad=0, rng=RNG)
        conv.weight[...] = np.arange(9.0).reshape(1, 1, 3, 3)
        conv.bias[...] = 1.0
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = conv.forward(x)
        expected = np.sum(x[0, 0, :3, :3] * conv.weight[0, 0]) + 1.0
        assert out[0, 0, 0, 0] == pytest.approx(expected)

    def test_conv_channel_mismatch(self):
        conv = Conv2D(3, 8, rng=RNG)
        with pytest.raises(ValueError):
            conv.forward(RNG.normal(size=(1, 2, 8, 8)))

    def test_conv_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel=4)

    def test_maxpool_values(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert pool.forward(x)[0, 0, 0, 0] == 4.0

    def test_maxpool_indivisible_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 4)))

    def test_maxpool_backward_routes_to_max(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [5.0, 4.0]]]])
        pool.forward(x)
        grad = pool.backward(np.array([[[[10.0]]]]))
        np.testing.assert_array_equal(grad, [[[[0, 0], [10.0, 0]]]])

    def test_relu(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
        grad = relu.backward(np.ones(3))
        np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0])

    def test_dense_shape_validation(self):
        dense = Dense(4, 2, rng=RNG)
        with pytest.raises(ValueError):
            dense.forward(np.zeros((1, 5)))

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = RNG.normal(size=(2, 3, 4, 5))
        out = flat.forward(x)
        assert out.shape == (2, 60)
        assert flat.backward(out).shape == x.shape


class TestGradientChecks:
    """Analytic gradients vs central differences."""

    def _check_layer(self, layer, x, atol=1e-6):
        out = layer.forward(x)
        upstream = np.random.default_rng(1).normal(size=out.shape)

        def loss():
            return float((layer.forward(x) * upstream).sum())

        grad_in = None
        layer.forward(x)
        grad_in = layer.backward(upstream)

        # Parameter gradients.
        layer.forward(x)
        layer.backward(upstream)
        for param, grad in zip(layer.params, layer.grads):
            num = numerical_gradient(loss, param)
            np.testing.assert_allclose(grad, num, atol=atol, rtol=1e-4)

        # Input gradient.
        x_var = x.copy()

        def loss_x():
            return float((layer.forward(x_var) * upstream).sum())

        num_in = numerical_gradient(loss_x, x_var)
        layer.forward(x)
        grad_in = layer.backward(upstream)
        np.testing.assert_allclose(grad_in, num_in, atol=atol, rtol=1e-4)

    def test_conv2d_gradients(self):
        layer = Conv2D(2, 3, kernel=3, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(2, 2, 5, 5))
        self._check_layer(layer, x)

    def test_conv2d_gradients_no_padding(self):
        layer = Conv2D(1, 2, kernel=3, pad=0, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(2, 1, 6, 6))
        self._check_layer(layer, x)

    def test_dense_gradients(self):
        layer = Dense(6, 4, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(5, 6))
        self._check_layer(layer, x)

    def test_maxpool_gradients(self):
        layer = MaxPool2D(2)
        x = np.random.default_rng(3).normal(size=(2, 2, 4, 4))
        self._check_layer(layer, x)

    def test_relu_gradients(self):
        layer = ReLU()
        # Keep values away from the kink at 0.
        x = np.random.default_rng(3).normal(size=(4, 5))
        x[np.abs(x) < 0.1] += 0.5
        self._check_layer(layer, x)
