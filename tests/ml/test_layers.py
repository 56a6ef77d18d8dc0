"""Layer-level tests: shapes, semantics, exact gradient checks, and the
inference forward's bit identity with the training forward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.tc_localizer import CHANNELS, TCLocalizer
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
        pool.forward(x, train=True)
        grad = pool.backward(np.array([[[[10.0]]]]))
        np.testing.assert_array_equal(grad, [[[[0, 0], [10.0, 0]]]])

    def test_relu(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 0.0, 2.0]), train=True)
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
        out = flat.forward(x, train=True)
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
        layer.forward(x, train=True)
        grad_in = layer.backward(upstream)

        # Parameter gradients.
        layer.forward(x, train=True)
        layer.backward(upstream)
        for param, grad in zip(layer.params, layer.grads):
            num = numerical_gradient(loss, param)
            np.testing.assert_allclose(grad, num, atol=atol, rtol=1e-4)

        # Input gradient.
        x_var = x.copy()

        def loss_x():
            return float((layer.forward(x_var) * upstream).sum())

        num_in = numerical_gradient(loss_x, x_var)
        layer.forward(x, train=True)
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


@pytest.mark.parametrize("layer, x", [
    (Conv2D(2, 3, kernel=3, rng=np.random.default_rng(2)), np.ones((1, 2, 4, 4))),
    (MaxPool2D(2), np.ones((1, 2, 4, 4))),
    (ReLU(), np.ones((2, 3))),
    (Dense(3, 2, rng=np.random.default_rng(2)), np.ones((2, 3))),
    (Flatten(), np.ones((2, 3, 4))),
], ids=["Conv2D", "MaxPool2D", "ReLU", "Dense", "Flatten"])
def test_backward_after_inference_forward_names_the_fix(layer, x):
    """An inference forward caches nothing, so backward says what it needs."""
    out = layer.forward(x)
    with pytest.raises(RuntimeError, match=r"forward\(x, train=True\)"):
        layer.backward(np.ones_like(out))


def _assert_modes_bit_identical(layers, x):
    """Run *layers* in both modes, comparing every output's bytes."""
    infer = train = x
    for layer in layers:
        infer = layer.forward(infer)
        train = layer.forward(train, train=True)
        assert infer.shape == train.shape, type(layer).__name__
        assert np.ascontiguousarray(infer).tobytes() == \
            np.ascontiguousarray(train).tobytes(), type(layer).__name__


class TestInferenceMode:
    """``forward(x)`` skips the backward's work but not a single bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        kernel=st.sampled_from([1, 3, 5]),
        same_pad=st.booleans(),
        pool=st.sampled_from([1, 2, 4]),
        in_ch=st.integers(1, 4),
        out_ch=st.integers(2, 6),   # one filter: test_one_filter_agrees_to_rounding
        blocks=st.integers(1, 3),
        seed=st.integers(0, 2 ** 16),
    )
    def test_stack_matches_training_forward(
        self, n, kernel, same_pad, pool, in_ch, out_ch, blocks, seed
    ):
        rng = np.random.default_rng(seed)
        pad = kernel // 2 if same_pad else 0
        side = pool * blocks - 2 * pad + kernel - 1   # conv output = pool * blocks
        x = rng.normal(size=(n, in_ch, side, side))
        x[rng.random(x.shape) < 0.2] = 0.0   # signed-zero ties in the pool
        _assert_modes_bit_identical([
            Conv2D(in_ch, out_ch, kernel=kernel, pad=pad, rng=rng),
            ReLU(),
            MaxPool2D(pool),
            Flatten(),
            Dense(out_ch * blocks * blocks, 3, rng=rng),
        ], x)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 70), seed=st.integers(0, 2 ** 16))
    def test_tc_localizer_network(self, n, seed):
        rng = np.random.default_rng(seed)
        model = TCLocalizer(patch=16, seed=seed)
        x = rng.normal(size=(n, len(CHANNELS), 16, 16))
        _assert_modes_bit_identical(model.network.layers, x)

    def test_one_filter_agrees_to_rounding(self):
        """With one filter NumPy multiplies a vector by a matrix and picks
        its kernel by the columns' strides: its own loop for the training
        forward's gathered columns, BLAS gemv for the inference copy.
        There the two modes agree to rounding, not bit for bit."""
        rng = np.random.default_rng(4)
        conv = Conv2D(3, 1, kernel=3, rng=rng)
        x = rng.normal(size=(5, 3, 8, 8))
        np.testing.assert_allclose(conv.forward(x), conv.forward(x, train=True),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block", [[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0]])
    def test_pool_tie_keeps_the_first_zero(self, block):
        x = np.array(block).reshape(1, 1, 2, 2)
        _assert_modes_bit_identical([MaxPool2D(2)], x)
