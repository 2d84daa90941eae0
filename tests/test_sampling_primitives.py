"""``angles_at`` and ``bilinear_many`` against their reference copies.

The fast versions must give the same bytes as the references in ``oracles``,
NaNs included. ``bilinear_many`` reads the same values and does the same
arithmetic in the same order. ``angles_at`` blends the same corners in the
same order, then takes other steps to the same bytes: the squared-norm test
that the reference also makes, and an exact branch in place of ``mod``.
Random inputs never reach those edges, so tests below build them. Neither
fast version may warn, for any input. ``angles_at`` gives NaN exactly where
a point has no orientation.

A row band's lookup table holds only the site rows that its points reach,
and gives the bytes of the reference for every point within that reach.

A uint8 raster is sampled as bytes, without a float copy of it: each
sample, and each pixel of ``rotate_raster``, must have the bytes of the
same call on the raster's float64 promotion.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.flowfield import _band_sites, _site_rows
from ridgeflow.image import bilinear_many, rotate_raster

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
    gw=st.integers(1, 12),
    gh=st.integers(1, 12),
    stride=st.integers(1, 4),
    valid_frac=st.floats(0.0, 1.0),
    table=st.booleans(),
)
def test_angles_at_is_nan_exactly_where_undefined(seed, gw, gh, stride, valid_frac, table):
    # Site angles a and a + pi/2 cancel halfway between them, so points on the
    # half-site lattice reach norms near 0 as well as corners with no valid site.
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, math.pi / 2)
    flow = rf.FlowField(a + rng.integers(0, 2, (gh, gw)) * (math.pi / 2), rng.random((gh, gw)) < valid_frac, stride)
    xs = rng.uniform(-3 * stride, (gw + 2) * stride, 400)
    ys = rng.uniform(-3 * stride, (gh + 2) * stride, 400)
    xs[:200] = rng.integers(-2, 2 * gw + 2, 200) * (stride / 2)
    ys[:200] = rng.integers(-2, 2 * gh + 2, 200) * (stride / 2)
    bad = np.array([np.nan, np.inf, -np.inf])
    xs[200:212] = rng.choice(bad, 12)
    ys[206:218] = rng.choice(bad, 12)

    theta, defined = _no_warnings(rf.angles_at, _site_rows(flow, 0, gh) if table else flow, xs, ys)
    assert np.array_equal(np.isnan(theta), ~defined)
    assert ((theta[defined] >= 0.0) & (theta[defined] < math.pi)).all()
    assert not defined[200:218].any()
    with np.errstate(invalid="ignore"):  # the reference casts non-finite points
        assert np.array_equal(defined, reference_angles_at(flow, xs, ys)[1])


def _assert_matches_reference(flow, xs, ys):
    theta, defined = _no_warnings(rf.angles_at, flow, xs, ys)
    want_theta, want_defined = reference_angles_at(flow, xs, ys)
    assert np.array_equal(defined, want_defined)
    assert theta.tobytes() == want_theta.tobytes()
    return theta, defined


@pytest.mark.parametrize("a", [0.0, 0.3, 0.7854, 1.2, 1.5])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_angles_at_is_exact_where_opposed_sites_cancel(a, side):
    # two valid sites whose doubled vectors oppose: between them |n| = |1 - 2 fx|,
    # which is 1e-6 at fx = 1/2 -+ 5e-7; scanned in ulps across that point
    flow = rf.FlowField(np.array([[a, a + math.pi / 2]]), np.ones((1, 2), dtype=bool), 1)
    fx0 = 0.5 + side * 5e-7
    xs = fx0 + np.arange(-2000, 2001) * np.spacing(fx0)
    _, defined = _assert_matches_reference(flow, xs, np.zeros_like(xs))
    assert defined.any() and not defined.all()


def test_angles_at_is_exact_within_rounding_of_the_norm_threshold():
    # Cell j is the 2x2 block of sites at columns 2j, 2j+1: an opposed pair on
    # row 0 leaves |n| a hair under 1e-6 at the query's fx, and a third site
    # below the first, along the same random direction, adds a fy-sized part.
    # The crossing fy is found by bisection on the reference, and the scan
    # around it steps |n| by about 2e-23, so it lands on the values where the
    # rounding of the squared norm decides.
    rng = np.random.default_rng(20260)
    m = 200
    a = rng.uniform(0.0, math.pi / 2, m)
    angles = np.zeros((2, 2 * m))
    angles[0, 0::2] = a
    angles[0, 1::2] = a + math.pi / 2
    angles[1, 0::2] = a
    valid = np.zeros((2, 2 * m), dtype=bool)
    valid[0] = True
    valid[1, 0::2] = True
    flow = rf.FlowField(angles, valid, 1)
    xs = 2.0 * np.arange(m) + (0.5 - 5e-7 + 1e-12)
    lo, hi = np.zeros(m), np.full(m, 1e-9)
    with np.errstate(invalid="ignore"):
        assert not reference_angles_at(flow, xs, lo)[1].any()
        assert reference_angles_at(flow, xs, hi)[1].all()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            d = reference_angles_at(flow, xs, mid)[1]
            hi, lo = np.where(d, mid, hi), np.where(d, lo, mid)
    ys = hi[:, None] + np.arange(-64, 65) * 4e-23
    _, defined = _assert_matches_reference(flow, np.repeat(xs[:, None], ys.shape[1], axis=1), ys)
    assert defined.any(axis=1).all() and not defined.all(axis=1).any()


def test_angles_at_maps_an_angle_a_hair_below_zero_to_zero():
    # between sites at 0 and one ulp below pi, half the doubled angle is a hair
    # below zero; mod(theta, pi) rounds it to pi for the points nearer site 0
    below_pi = np.nextafter(math.pi, 0.0)
    flow = rf.FlowField(np.array([[0.0, below_pi]]), np.ones((1, 2), dtype=bool), 1)
    xs = np.linspace(0.0, 1.0, 2001)[1:-1]
    theta, defined = _assert_matches_reference(flow, xs, np.zeros_like(xs))
    assert defined.all()
    assert (theta == 0.0).any() and (theta == below_pi).any()


def test_angles_at_is_exact_at_signed_zeros():
    flow = rf.FlowField(np.array([[-0.0, 0.0], [0.0, -0.0]]), np.ones((2, 2), dtype=bool), 1)
    q = np.array([0.0, -0.0, 0.5, -0.0, 1.0, 0.0])
    for ys in (q, q[::-1], np.full_like(q, -0.0)):
        theta, defined = _assert_matches_reference(flow, q, ys)
        assert defined.all() and not np.signbit(theta).any()


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


def _edge_and_non_finite_points(rng, width, height, n=400):
    """Points in and around a width x height raster: on each edge, within 1e-9 of it on either side,
    outside, NaN or +-inf on either axis, and on pixel centres."""
    xs = rng.uniform(-2.0, width + 1.0, n)
    ys = rng.uniform(-2.0, height + 1.0, n)
    jitter = rng.choice([0.0, 1e-9, -1e-9, 2e-9, -2e-9], 160) * rng.uniform(0.5, 1.0, 160)
    xs[:80] = rng.choice([0.0, width - 1.0], 80) + jitter[:80]
    ys[80:160] = rng.choice([0.0, height - 1.0], 80) + jitter[80:]
    bad = np.array([np.nan, np.inf, -np.inf])
    xs[160:172] = rng.choice(bad, 12)
    ys[166:178] = rng.choice(bad, 12)
    xs[178:218] = rng.integers(0, width, 40)
    ys[178:218] = rng.integers(0, height, 40)
    return xs, ys


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12), height=st.integers(1, 12))
@example(seed=1, width=1, height=9)
@example(seed=2, width=9, height=1)
@example(seed=3, width=1, height=1)
def test_byte_raster_samples_as_its_float_promotion(seed, width, height):
    rng = np.random.default_rng(seed)
    raster = rng.integers(0, 256, (height, width), dtype=np.uint8)
    raster.ravel()[: min(2, raster.size)] = [0, 255][: raster.size]
    xs, ys = _edge_and_non_finite_points(rng, width, height)
    got = _no_warnings(bilinear_many, raster, xs, ys)
    want = bilinear_many(raster.astype(np.float64), xs, ys)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).any() and not np.isnan(got).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    angle=st.floats(-math.pi, math.pi),
    offset=st.sampled_from([(0.0, 0.0), (0.5, 0.5), (0.25, -0.125)]),
    windowed=st.booleans(),
)
@example(seed=1, width=1, height=9, angle=0.3, offset=(0.0, 0.0), windowed=False)
@example(seed=2, width=9, height=1, angle=-1.1, offset=(0.5, 0.5), windowed=True)
@example(seed=3, width=7, height=5, angle=math.pi / 2, offset=(0.0, 0.0), windowed=False)
def test_byte_raster_rotates_as_its_float_promotion(seed, width, height, angle, offset, windowed):
    rng = np.random.default_rng(seed)
    raster = rng.integers(0, 256, (height, width), dtype=np.uint8)
    window = None
    if windowed:
        rows, cols = rotate_raster(raster, angle, offset).values.shape
        r0, c0 = rng.integers(0, rows), rng.integers(0, cols)
        window = (slice(r0, rng.integers(r0, rows + 2)), slice(c0, rng.integers(c0, cols + 2)))
    got = _no_warnings(rotate_raster, raster, angle, offset, window)
    want = rotate_raster(raster.astype(np.float64), angle, offset, window)
    assert got.values.dtype == np.float64
    assert got.values.tobytes() == want.values.tobytes()  # NaN at the same pixels too
    assert (got.frame, got.origin) == (want.frame, want.origin)


def test_zero_dimensional_queries_keep_their_shape():
    flow = rf.FlowField(np.full((3, 3), 0.3), np.ones((3, 3), dtype=bool), 2)
    theta, defined = rf.angles_at(flow, 1.0, 1.5)
    assert theta.shape == defined.shape == ()
    want_theta, want_defined = reference_angles_at(flow, 1.0, 1.5)
    assert float(theta) == float(want_theta) and bool(defined) and bool(want_defined)
    v = bilinear_many(np.arange(9.0).reshape(3, 3), np.float64(0.5), np.float64(0.5))
    assert np.shape(v) == () and float(v) == 2.0


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gw=st.integers(1, 12),
    gh=st.integers(1, 12),
    stride=st.integers(1, 3),
    half=st.integers(1, 5),
    valid_frac=st.floats(0.0, 1.0),
    place=st.sampled_from(["top", "bottom", "inside"]),
)
@example(seed=1, gw=1, gh=9, stride=2, half=3, valid_frac=1.0, place="inside")
@example(seed=2, gw=9, gh=1, stride=3, half=1, valid_frac=1.0, place="top")
@example(seed=3, gw=5, gh=12, stride=1, half=2, valid_frac=0.7, place="bottom")
def test_band_table_lookup_matches_reference(seed, gw, gh, stride, half, valid_frac, place):
    # A row band's table gives the bytes of the whole flow for every point
    # within half + 1 pixels of the band's rows, and no table a site row
    # shorter at either end does.
    rng = np.random.default_rng(seed)
    flow = rf.FlowField(rng.uniform(0.0, math.pi, (gh, gw)), rng.random((gh, gw)) < valid_frac, stride)
    height = gh * stride
    n = int(rng.integers(1, height + 1))
    start = {"top": 0, "bottom": height - n, "inside": int(rng.integers(0, height - n + 1))}[place]
    rows = slice(start, start + n)
    lo, hi = start - half - 1, start + n + half  # the band's reach
    # scattered points; the reach's edges and the site rows within it, on every site column; NaN and +-inf
    edges = [lo, hi] + [y for y in range(lo, hi + 1) if y % stride == 0]
    ex, ey = (a.ravel() for a in np.meshgrid(flow.site_xs().astype(np.float64), np.array(edges, np.float64)))
    xs = np.concatenate([rng.uniform(-3 * stride, (gw + 2) * stride, 300), ex, np.zeros(24)])
    ys = np.concatenate([rng.uniform(lo, hi, 300), ey, np.zeros(24)])
    bad = np.array([np.nan, np.inf, -np.inf])
    xs[-24:-12] = rng.choice(bad, 12)
    ys[-12:] = rng.choice(bad, 12)

    sites = _band_sites(flow, rows, half)
    theta, defined = _no_warnings(rf.angles_at, sites, xs, ys)
    with np.errstate(invalid="ignore"):  # the reference casts non-finite points
        want_theta, want_defined = reference_angles_at(flow, xs, ys)
    assert np.array_equal(defined, want_defined)
    assert theta.tobytes() == want_theta.tobytes()
    assert not defined[-24:].any()

    first, stop = sites.top + 2, sites.bottom
    for dropped, short in ((first, (first + 1, stop)), (stop - 1, (first, stop - 1))):
        if flow.valid[dropped].any():
            got_theta, got_defined = rf.angles_at(_site_rows(flow, *short), xs, ys)
            assert got_theta.tobytes() != want_theta.tobytes() or not np.array_equal(got_defined, want_defined)
