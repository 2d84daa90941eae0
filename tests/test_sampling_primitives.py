"""``angles_at`` and ``bilinear_many`` against their reference copies.

The fast versions read the same values and do the same arithmetic in the
same order as the references in ``oracles``, so the results must agree bit
for bit, NaNs included. Neither fast version may warn, for any input.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.image import bilinear_many

from oracles import reference_angles_at, reference_bilinear_many


def _no_warnings(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def _query_shape(rng, n):
    return (n,) if rng.random() < 0.5 else (n // 4, 4)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gw=st.integers(1, 12),
    gh=st.integers(1, 12),
    stride=st.integers(1, 4),
    valid_frac=st.floats(0.0, 1.0),
)
def test_angles_at_matches_reference(seed, gw, gh, stride, valid_frac):
    rng = np.random.default_rng(seed)
    valid = rng.random((gh, gw)) < valid_frac
    flow = rf.FlowField(rng.uniform(0.0, math.pi, (gh, gw)), valid, stride)
    shape = _query_shape(rng, 400)
    xs = rng.uniform(-3 * stride, (gw + 2) * stride, shape)
    ys = rng.uniform(-3 * stride, (gh + 2) * stride, shape)
    # exactly on sites, and non-finite points on either axis
    flat_x, flat_y = xs.reshape(-1), ys.reshape(-1)
    ix = rng.integers(0, gw, 40)
    iy = rng.integers(0, gh, 40)
    flat_x[:40] = flow.site_xs()[ix]
    flat_y[:40] = flow.site_ys()[iy]
    bad = np.array([np.nan, np.inf, -np.inf])
    flat_x[40:52] = rng.choice(bad, 12)
    flat_y[46:58] = rng.choice(bad, 12)

    theta, defined = _no_warnings(rf.angles_at, flow, xs, ys)
    with np.errstate(invalid="ignore"):  # the reference casts non-finite points
        want_theta, want_defined = reference_angles_at(flow, xs, ys)
    assert theta.shape == defined.shape == shape
    assert np.array_equal(defined, want_defined)
    assert np.array_equal(theta, want_theta, equal_nan=True)
    assert not defined.reshape(-1)[40:58].any()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 12),
    height=st.integers(1, 12),
)
def test_bilinear_many_matches_reference(seed, width, height):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-50.0, 300.0, (height, width))
    shape = _query_shape(rng, 400)
    xs = rng.uniform(-2.0, width + 1.0, shape)
    ys = rng.uniform(-2.0, height + 1.0, shape)
    # on pixel centres, and within +-1e-9 of the raster edge
    flat_x, flat_y = xs.reshape(-1), ys.reshape(-1)
    flat_x[:40] = rng.integers(0, width, 40)
    flat_y[:40] = rng.integers(0, height, 40)
    jitter = rng.uniform(-1e-9, 1e-9, 80)
    flat_x[40:80] = rng.choice([0.0, width - 1.0], 40) + jitter[:40]
    flat_y[80:120] = rng.choice([0.0, height - 1.0], 40) + jitter[40:]

    got = _no_warnings(bilinear_many, values, xs, ys)
    assert got.shape == shape
    assert np.array_equal(got, reference_bilinear_many(values, xs, ys), equal_nan=True)


def test_zero_dimensional_queries_keep_their_shape():
    flow = rf.FlowField(np.full((3, 3), 0.3), np.ones((3, 3), dtype=bool), 2)
    theta, defined = rf.angles_at(flow, 1.0, 1.5)
    assert theta.shape == defined.shape == ()
    want_theta, want_defined = reference_angles_at(flow, 1.0, 1.5)
    assert float(theta) == float(want_theta) and bool(defined) and bool(want_defined)
    v = bilinear_many(np.arange(9.0).reshape(3, 3), np.float64(0.5), np.float64(0.5))
    assert np.shape(v) == () and float(v) == 2.0
