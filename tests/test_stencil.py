"""``repro.stencil`` against its oracle, ``scipy.ndimage``: bitwise equal
on every mode, sigma and shape the program uses, and beyond."""

import numpy as np
import pytest

from repro.stencil import gaussian_filter, maximum_filter, minimum_filter

ndimage = pytest.importorskip("scipy.ndimage")

SHAPES = [(7, 9), (12, 18), (24, 36), (32, 64), (48, 72), (96, 144)]
SIGMAS = [1.0, 2.0, 2.5]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_gaussian_nearest_wrap_matches_scipy(shape, sigma):
    """The ESM's correlated noise: clamped in latitude, periodic in longitude."""
    field = np.random.default_rng(sum(shape)).standard_normal(shape)
    mode = ("nearest", "wrap")
    assert np.array_equal(
        gaussian_filter(field, sigma, mode=mode),
        ndimage.gaussian_filter(field, sigma=sigma, mode=mode),
    )


@pytest.mark.parametrize("sigma", SIGMAS)
def test_gaussian_wrap_matches_scipy_single_and_batched(sigma):
    """The CNN backgrounds: one 16x16 patch, and a batch smoothed with a
    zero sigma on the batch axis."""
    rng = np.random.default_rng(3)
    patch = rng.standard_normal((16, 16))
    assert np.array_equal(
        gaussian_filter(patch, sigma, mode="wrap"),
        ndimage.gaussian_filter(patch, sigma=sigma, mode="wrap"),
    )
    batch = rng.standard_normal((5, 16, 16))
    assert np.array_equal(
        gaussian_filter(batch, (0.0, sigma, sigma), mode="wrap"),
        ndimage.gaussian_filter(batch, sigma=(0.0, sigma, sigma), mode="wrap"),
    )


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("mode", [("nearest", "wrap"), "nearest", "wrap"])
@pytest.mark.parametrize("shape", [(7, 9), (24, 36)])
def test_min_max_filters_with_ties_match_scipy(size, mode, shape):
    """Integer-valued fields, so windows hold ties and repeated extremes."""
    field = np.random.default_rng(size).integers(-3, 4, shape).astype(float)
    footprint = np.ones((size, size), dtype=bool)
    assert np.array_equal(
        minimum_filter(field, size, mode=mode),
        ndimage.minimum_filter(field, footprint=footprint, mode=mode),
    )
    assert np.array_equal(
        maximum_filter(field, size, mode=mode),
        ndimage.maximum_filter(field, footprint=footprint, mode=mode),
    )


@pytest.mark.parametrize("size", [(1, 3, 3), (3, 1, 3), (1, 5, 3), (2, 3, 1)])
@pytest.mark.parametrize("mode", [("nearest", "nearest", "wrap"),
                                  ("wrap", "nearest", "wrap"), "nearest", "wrap"])
@pytest.mark.parametrize("shape", [(5, 7, 9), (4, 24, 36)])
def test_per_axis_sizes_with_ties_match_scipy(size, mode, shape):
    """A (steps, lat, lon) stack: a size of 1 leaves an axis alone, so
    (1, 3, 3) filters every step on its own, as TC detection does."""
    field = np.random.default_rng(sum(size)).integers(-3, 4, shape).astype(float)
    footprint = np.ones(size, dtype=bool)
    assert np.array_equal(
        minimum_filter(field, size, mode=mode),
        ndimage.minimum_filter(field, footprint=footprint, mode=mode),
    )
    assert np.array_equal(
        maximum_filter(field, size, mode=mode),
        ndimage.maximum_filter(field, footprint=footprint, mode=mode),
    )


def test_one_step_stack_equals_snapshot():
    field = np.random.default_rng(4).integers(-3, 4, (24, 36)).astype(float)
    mode = ("nearest", "wrap")
    assert np.array_equal(
        minimum_filter(field[None], (1, 3, 3), mode=("nearest",) + mode)[0],
        minimum_filter(field, 3, mode=mode),
    )


def test_size_per_axis_count_is_checked():
    with pytest.raises(ValueError, match="per-axis"):
        minimum_filter(np.zeros((4, 4, 4)), (3, 3))


def test_unsupported_mode_is_refused():
    with pytest.raises(ValueError, match="mode"):
        gaussian_filter(np.zeros((4, 4)), 1.0, mode="reflect")
    with pytest.raises(ValueError, match="mode"):
        minimum_filter(np.zeros((4, 4)), 3, mode="constant")
