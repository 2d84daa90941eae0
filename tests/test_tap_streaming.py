"""The tap-streamed binarize and enhance kernels against their whole-array references.

``binarize._path_mean`` and ``enhance._masked_blend`` add each tap's terms
into accumulators shaped like the query points, in tap order. The
references in ``oracles`` gather all 2k+1 taps at once and reduce over the
leading axis, which numpy sums in the same order for two or more query
points, so the results must agree byte for byte, NaNs included.

For one query point numpy reduces the single column pairwise instead, so
the single-pixel entry points are checked against the references
evaluated on that point inside a batch: they now give exactly the value
the image stages give at the same point.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.binarize import _TIE_EPS, _line_path, _path_mean
from ridgeflow.contour import _trace_batch
from ridgeflow.enhance import _masked_blend
from ridgeflow.flowfield import _grid_sites

from oracles import reference_line_path, reference_masked_blend, reference_path_mean

# (streamed path, the same path as the references take it)
PATHS = {"line": (_line_path, reference_line_path), "contour": (_trace_batch, _trace_batch)}

_case_args = dict(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 16),
    height=st.integers(1, 16),
    stride=st.integers(1, 3),
    valid_frac=st.floats(0.0, 1.0),
    half=st.integers(1, 9),
    path=st.sampled_from(sorted(PATHS)),
)


def _flow(rng, width, height, stride, valid_frac):
    """A flow on the image's grid with a share ``valid_frac`` of valid sites."""
    xs, ys = _grid_sites(width, height, stride)
    shape = (ys.size, xs.size)
    return rf.FlowField(rng.uniform(0.0, math.pi, shape), rng.random(shape) < valid_frac, stride)


def _case(rng, width, height, stride, valid_frac):
    """Image, flow and query points with their orientations as the stages get them.

    The points are on pixel centres, anywhere in and around the raster, and
    non-finite on either axis; there are always at least two of them.
    """
    img = rng.integers(0, 256, (height, width)).astype(np.float64)
    flow = _flow(rng, width, height, stride, valid_frac)
    shape = (64,) if rng.random() < 0.5 else (16, 4)
    xs = rng.uniform(-3.0, width + 2.0, shape)
    ys = rng.uniform(-3.0, height + 2.0, shape)
    flat_x, flat_y = xs.reshape(-1), ys.reshape(-1)
    flat_x[:16] = rng.integers(0, width, 16)
    flat_y[:16] = rng.integers(0, height, 16)
    bad = np.array([np.nan, np.inf, -np.inf])
    flat_x[16:22] = rng.choice(bad, 6)
    flat_y[19:25] = rng.choice(bad, 6)
    theta, defined = rf.angles_at(flow, xs, ys)
    return img, flow, xs, ys, theta, defined


@settings(max_examples=80, deadline=None)
@given(orthogonal=st.booleans(), **_case_args)
def test_path_mean_matches_reference(seed, width, height, stride, valid_frac, half, path, orthogonal):
    rng = np.random.default_rng(seed)
    img, flow, xs, ys, theta, defined = _case(rng, width, height, stride, valid_frac)
    if orthogonal:  # as ``_is_ridge`` asks for the orthogonal mean
        theta = theta + math.pi / 2.0
    streamed, reference = PATHS[path]
    got = _path_mean(img, streamed, flow, xs, ys, theta, defined, half)
    want = reference_path_mean(img, reference, flow, xs, ys, theta, defined, half)
    assert got.shape == xs.shape
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(sigma_frac=st.floats(0.05, 1.0), **_case_args)
def test_masked_blend_matches_reference(seed, width, height, stride, valid_frac, half, path, sigma_frac):
    rng = np.random.default_rng(seed)
    img, flow, xs, ys, theta, defined = _case(rng, width, height, stride, valid_frac)
    bits = rng.integers(0, 2, img.shape).astype(np.uint8)
    cfg = rf.EnhanceConfig(gaussian_sigma=sigma_frac * half / 2.0, kernel_half_length=half)
    streamed, reference = PATHS[path]
    got = _masked_blend(img, bits, streamed, flow, xs, ys, theta, defined, cfg)
    want = reference_masked_blend(img, bits, reference, flow, xs, ys, theta, defined, cfg)
    assert got.shape == xs.shape
    assert np.array_equal(got, want, equal_nan=True)


def _reference_bit(img, path, flow, xs, ys, theta, defined, half):
    """The bit of the first point, from the reference means, as ``binarize._is_ridge`` decides it."""
    g = reference_path_mean(img, path, flow, xs, ys, theta, defined, half)
    h = reference_path_mean(img, reference_line_path, flow, xs, ys, theta + math.pi / 2.0, defined, half)
    ridge = defined & ~np.isnan(g) & ~np.isnan(h) & (g < h - _TIE_EPS)
    return 0 if ridge[0] else 1


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 16),
    height=st.integers(1, 16),
    stride=st.integers(1, 3),
    valid_frac=st.floats(0.0, 1.0),
    where=st.sampled_from(["centre", "anywhere", "nan"]),
)
def test_single_pixel_entry_points_match_reference(seed, width, height, stride, valid_frac, where):
    rng = np.random.default_rng(seed)
    image = rf.GrayImage(rng.integers(0, 256, (height, width)))
    img = image.as_float()
    binary = rf.BinaryImage(rng.integers(0, 2, (height, width)))
    flow = _flow(rng, width, height, stride, valid_frac)
    if where == "centre":
        p = rf.Point(float(rng.integers(0, width)), float(rng.integers(0, height)))
    elif where == "anywhere":
        p = rf.Point(rng.uniform(-3.0, width + 2.0), rng.uniform(-3.0, height + 2.0))
    else:
        p = rf.Point(math.nan, rng.uniform(0.0, height - 1.0))
    # the point, batched with pixel (0, 0)
    xs = np.array([p.x, 0.0])
    ys = np.array([p.y, 0.0])
    bcfg, ecfg = rf.BinarizeConfig(), rf.EnhanceConfig()
    half = bcfg.line_half_length
    theta = rng.uniform(0.0, math.pi)
    given_theta = (np.full(2, theta), np.ones(2, dtype=bool))
    flow_theta = rf.angles_at(flow, xs, ys)
    sample = rf.sample_bilinear(image, p)

    assert rf.binarize_pixel(image, p, theta) == _reference_bit(img, reference_line_path, None, xs, ys,
                                                                 *given_theta, half)
    assert rf.binarize_pixel_contour(image, p, flow) == _reference_bit(img, _trace_batch, flow, xs, ys,
                                                                        *flow_theta, half)

    got = rf.enhance_pixel(image, binary, p, theta)
    want = reference_masked_blend(img, binary.bits, reference_line_path, None, xs, ys, *given_theta, ecfg)[0]
    assert np.array_equal(got, math.nan if sample is None else want, equal_nan=True)

    got = rf.enhance_pixel_contour(image, binary, p, flow)
    want = reference_masked_blend(img, binary.bits, _trace_batch, flow, xs, ys, *flow_theta, ecfg)[0]
    if not flow_theta[1][0]:
        want = sample
    assert np.array_equal(got, math.nan if sample is None else want, equal_nan=True)


def test_single_pixel_entry_points_equal_the_image_stages():
    image, flow = rf.generate(rf.SyntheticSpec(width=41, height=37, pattern="concentric", period=7.0,
                                               noise_sigma=40.0, rng_seed=5))
    binary = rf.binarize_image(image, flow)
    contour_binary = rf.binarize_image_contour(image, flow)
    enhanced = rf.enhance_values(image, binary, flow)
    contour_enhanced = rf.contour_enhance_values(image, contour_binary, flow)
    ys, xs = np.mgrid[0:37, 0:41]
    theta, defined = rf.angles_at(flow, xs.astype(np.float64), ys.astype(np.float64))
    assert defined.any() and not defined.all()
    pick = np.random.default_rng(0).permutation(np.count_nonzero(defined))[:150]
    for y, x in zip(*(axis[pick] for axis in np.nonzero(defined))):
        p = rf.Point(float(x), float(y))
        assert rf.binarize_pixel(image, p, theta[y, x]) == binary.bits[y, x]
        assert rf.binarize_pixel_contour(image, p, flow) == contour_binary.bits[y, x]
        assert rf.enhance_pixel(image, binary, p, theta[y, x]) == enhanced[y, x]
        assert rf.enhance_pixel_contour(image, contour_binary, p, flow) == contour_enhanced[y, x]
