"""The dense-map rotated evaluator against the per-site prefix-sum oracle.

Both snap sites to the same rotated lattice and use the same arithmetic in
the same order, so the results must agree bit for bit, NaNs included.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.projection import RotatedDeviationEvaluator

from oracles import PerSitePrefixEvaluator

GRID = np.arange(32) * math.pi / 32

CONFIGS = [
    rf.FlowConfig(),
    rf.FlowConfig(use_half_line_rule=False),
    rf.FlowConfig(tangent_half_length=5, perp_half_length=3, stride=3),
    rf.FlowConfig(tangent_half_length=5, perp_half_length=3, stride=3, use_half_line_rule=False),
]


def random_sites(rng, width, height, n, margin=30.0):
    """Uniform sites over the raster grown by ``margin``, so some fall off the canvas."""
    xs = rng.uniform(-margin, width - 1 + margin, n)
    ys = rng.uniform(-margin, height - 1 + margin, n)
    return xs, ys


@pytest.fixture(scope="module")
def noisy_image():
    img, _ = rf.generate(rf.SyntheticSpec(width=96, height=80, pattern="concentric",
                                          period=8.0, noise_sigma=40.0, rng_seed=3))
    return img


@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "no-half-rule", "t5-s3-stride3", "t5-s3-stride3-no-half-rule"])
def test_bitwise_equal_to_per_site_oracle_on_pi_over_32_grid(noisy_image, cfg):
    xs, ys = random_sites(np.random.default_rng(17), noisy_image.width, noisy_image.height, 2000)
    fast = RotatedDeviationEvaluator(noisy_image, cfg)
    oracle = PerSitePrefixEvaluator(noisy_image, cfg)
    off_canvas_nan = False
    for alpha in GRID:
        got = fast.mean_deviation(float(alpha), xs, ys)
        want = oracle.mean_deviation(float(alpha), xs, ys)
        assert np.array_equal(got, want, equal_nan=True), alpha
        off_canvas_nan |= bool(np.isnan(got).any())
        assert np.isfinite(got).any()
    assert off_canvas_nan


def test_repeated_and_far_off_queries(noisy_image):
    cfg = rf.FlowConfig()
    ev = RotatedDeviationEvaluator(noisy_image, cfg)
    # far-off and non-finite sites go through the band loop like any other and read only NaN, with no warning
    nan, inf = math.nan, math.inf
    xs = np.array([40.0, -1e6, 40.0, 1e6, 95.0, nan, 40.0, inf, 40.0, -inf, 40.0, inf])
    ys = np.array([30.0, 30.0, -1e6, 1e6, 79.0, 30.0, nan, 30.0, inf, 30.0, -inf, -inf])
    finite = np.isfinite(xs) & np.isfinite(ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = ev.mean_deviation(0.3, xs, ys)
        assert np.array_equal(first, ev.mean_deviation(0.3, xs, ys), equal_nan=True)
        # the site (inf, -inf) maps through inf - inf at every angle, and at 0 each infinite one through inf * 0
        for alpha in (0.3, 0.0, math.pi / 2):
            mu = ev.mean_deviation(alpha, xs, ys)
            assert np.isnan(mu[1:4]).all() and np.isfinite(mu[[0, 4]]).all() and np.isnan(mu[~finite]).all()
    # the per-site oracle warns on casting a NaN index, so it is compared at the finite sites only
    want = PerSitePrefixEvaluator(noisy_image, cfg).mean_deviation(0.3, xs[finite], ys[finite])
    assert np.array_equal(first[finite], want, equal_nan=True)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_a_non_finite_angle_is_a_value_error_that_names_it(noisy_image, alpha):
    ev = RotatedDeviationEvaluator(noisy_image, rf.FlowConfig())
    with pytest.raises(ValueError, match=f"angle must be finite, got {alpha}"):
        ev.mean_deviation(alpha, np.array([40.0]), np.array([30.0]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(32, 48),
    height=st.integers(32, 48),
    alpha=st.floats(0.0, math.pi, exclude_max=True),
    tangent=st.integers(1, 8),
    perp=st.integers(1, 8),
    half_rule=st.booleans(),
)
def test_property_random_images_and_angles(seed, width, height, alpha, tangent, perp, half_rule):
    rng = np.random.default_rng(seed)
    img = rf.GrayImage(rng.integers(0, 256, (height, width)))
    cfg = rf.FlowConfig(tangent_half_length=tangent, perp_half_length=perp, use_half_line_rule=half_rule)
    xs, ys = random_sites(rng, width, height, 300, margin=float(tangent + perp + 4))
    got = RotatedDeviationEvaluator(img, cfg).mean_deviation(alpha, xs, ys)
    want = PerSitePrefixEvaluator(img, cfg).mean_deviation(alpha, xs, ys)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("shape", [(), (1, 2), (2, 1, 1)], ids=["0-d", "1x2", "2x1x1"])
def test_points_of_any_shape_give_values_of_that_shape(shape):
    # as ``angles_at``: the points are taken flat, and each value is the 1-D call's at the same point
    img, _ = rf.generate(rf.SyntheticSpec(width=64, height=64, pattern="concentric", period=8.0, rng_seed=5))
    ev = RotatedDeviationEvaluator(img, rf.FlowConfig())
    n = math.prod(shape)
    xs, ys = np.array([31.0, 20.5])[:n], np.array([30.0, 41.25])[:n]
    got = ev.mean_deviation(0.3, xs.reshape(shape), ys.reshape(shape))
    assert got.shape == shape
    assert np.array_equal(got.ravel(), ev.mean_deviation(0.3, xs, ys), equal_nan=True)
    assert np.isfinite(got).all()
