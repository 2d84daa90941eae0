"""The tap-streamed binarize and enhance kernels against their whole-array references.

``binarize._taps`` samples each tap of a path once, in the order the path
gives them; ``binarize._in_order`` hands them on in order -k..k, exactly
as the pipeline sweep files them in its table by o. ``image._tap_mean``
and ``enhance._masked_blend`` read the taps in that order and add each
tap's terms into accumulators shaped like the query points. The references
in ``oracles`` gather all 2k+1 taps at once and reduce over the leading
axis, which numpy sums in the same order for two or more query points, so
the results must agree byte for byte, NaNs included. The contour path is
checked against ``reference_trace_batch``, the whole trace as it was
before it was traced lazily, and the fused iteration, which binarizes and
enhances in one band sweep, against the references composed.

For one query point numpy reduces the single column pairwise instead, so
the single-pixel entry points of ``oracles``, the band kernels run on one
point, are checked against the references evaluated on that point inside a
batch: they give exactly the value the image stages give at the same point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
import ridgeflow.image as rimage
import ridgeflow.pipeline as rpipeline
from ridgeflow.binarize import _TIE_EPS, _in_order, _line_path, _nearest, _taps
from ridgeflow.contour import _trace_path
from ridgeflow.enhance import _gaussian_kernel, _masked_blend
from ridgeflow.flowfield import _grid_sites
from ridgeflow.image import _tap_mean

from oracles import (binarize_pixel, binarize_pixel_contour, enhance_pixel, enhance_pixel_contour,
                     reference_line_path, reference_masked_blend, reference_path_mean, reference_trace_batch,
                     sample_bilinear)

# (streamed path, the same path as the references take it)
PATHS = {"line": (_line_path, reference_line_path), "contour": (_trace_path, reference_trace_batch)}

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
    """Image, flow and query points with their orientations as ``angles_at`` gives them.

    The points are on pixel centres, anywhere in and around the raster, and
    non-finite on either axis; there are always at least two of them. The
    streamed paths take ``theta`` with NaN where it is undefined, as
    ``binarize._bands`` gives it.
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
@given(nearest=st.booleans(), **_case_args)
def test_in_order_gives_the_rows_of_the_table_filed_by_o(seed, width, height, stride, valid_frac, half, path,
                                                           nearest):
    """The enhance-alone readers see the taps the pipeline sweep files in its table, row by row."""
    rng = np.random.default_rng(seed)
    img, flow, xs, ys, theta, defined = _case(rng, width, height, stride, valid_frac)
    streamed, _ = PATHS[path]
    theta = np.where(defined, theta, np.nan)
    filed = {}
    for o, sample, near in _taps(img, streamed, flow, xs, ys, theta, half, nearest):
        assert o not in filed and -half <= o <= half
        assert sample.shape == xs.shape and (near is None) != nearest
        assert np.isnan(sample[~defined]).all()  # a seed without an orientation keeps no tap
        filed[o] = sample, near
    assert sorted(filed) == list(range(-half, half + 1))
    got = list(_in_order(_taps(img, streamed, flow, xs, ys, theta, half, nearest), half))
    assert len(got) == 2 * half + 1
    for o, (sample, near) in zip(range(-half, half + 1), got):
        assert sample.tobytes() == filed[o][0].tobytes()
        if nearest:
            assert near.tobytes() == filed[o][1].tobytes()
        else:
            assert near is None


@settings(max_examples=80, deadline=None)
@given(orthogonal=st.booleans(), **_case_args)
def test_path_mean_matches_reference(seed, width, height, stride, valid_frac, half, path, orthogonal):
    rng = np.random.default_rng(seed)
    img, flow, xs, ys, theta, defined = _case(rng, width, height, stride, valid_frac)
    if orthogonal:  # as ``_is_ridge`` asks for the orthogonal mean
        theta = theta + math.pi / 2.0
    streamed, reference = PATHS[path]
    taps = _in_order(_taps(img, streamed, flow, xs, ys, np.where(defined, theta, np.nan), half, True), half)
    got = _tap_mean((v for v, _ in taps), xs.shape)
    want = reference_path_mean(img, reference, flow, xs, ys, theta, defined, half)
    assert got.shape == xs.shape
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(
    n_taps=st.integers(1, 7),
    rows=st.integers(1, 3),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_tap_mean_skips_nan_sums_in_order_and_leaves_its_taps(n_taps, rows, cols, data):
    value = st.one_of(st.just(math.nan), st.floats(-1e6, 1e6, allow_nan=False))
    table = np.array(data.draw(st.lists(value, min_size=n_taps * rows * cols, max_size=n_taps * rows * cols)))
    table = table.reshape(n_taps, rows, cols)
    table[:, -1, -1] = math.nan  # a position where every tap is NaN
    before = table.copy()
    got = _tap_mean(table, (rows, cols))
    # the taps are only read: the sweep reads its tap table again for the blend
    assert table.tobytes() == before.tobytes()
    assert got.tobytes() == _tap_mean((tap.copy() for tap in table), (rows, cols)).tobytes()
    for r in range(rows):
        for c in range(cols):
            kept = [float(v) for v in table[:, r, c] if not math.isnan(v)]
            total = 0.0
            for v in kept:  # in order, as a Python float sum
                total += v
            want = total / len(kept) if kept else math.nan
            assert np.array_equal(got[r, c], want, equal_nan=True), (r, c)


@settings(max_examples=80, deadline=None)
@given(sigma_frac=st.floats(0.05, 1.0), **_case_args)
def test_masked_blend_matches_reference(seed, width, height, stride, valid_frac, half, path, sigma_frac):
    rng = np.random.default_rng(seed)
    img, flow, xs, ys, theta, defined = _case(rng, width, height, stride, valid_frac)
    bits = rng.integers(0, 2, img.shape).astype(np.uint8)
    cfg = rf.EnhanceConfig(gaussian_sigma=sigma_frac * half / 2.0, kernel_half_length=half)
    streamed, reference = PATHS[path]
    taps = _in_order(_taps(img, streamed, flow, xs, ys, np.where(defined, theta, np.nan), half, True), half)
    center = _nearest(ys, img.shape[0]) * img.shape[1] + _nearest(xs, img.shape[1])
    got = _masked_blend(img, bits, taps, center, _gaussian_kernel(cfg.gaussian_sigma, half))
    want = reference_masked_blend(img, bits, reference, flow, xs, ys, theta, defined, cfg)
    assert got.shape == xs.shape
    assert np.array_equal(got, want, equal_nan=True)


def _reference_bit(img, path, flow, xs, ys, theta, defined, half):
    """The bit of the first point, from the reference means, as ``binarize._is_ridge`` decides it."""
    return 1 - int(_reference_ridge(img, path, flow, xs, ys, theta, defined, half)[0])


def _reference_ridge(img, path, flow, xs, ys, theta, defined, half):
    """Ridge mask from the reference means, as ``binarize._is_ridge`` decides it."""
    g = reference_path_mean(img, path, flow, xs, ys, theta, defined, half)
    h = reference_path_mean(img, reference_line_path, flow, xs, ys, theta + math.pi / 2.0, defined, half)
    return defined & ~np.isnan(g) & ~np.isnan(h) & (g < h - _TIE_EPS)


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
    sample = sample_bilinear(image, p)

    assert binarize_pixel(image, p, theta) == _reference_bit(img, reference_line_path, None, xs, ys,
                                                              *given_theta, half)
    assert binarize_pixel_contour(image, p, flow) == _reference_bit(img, reference_trace_batch, flow, xs, ys,
                                                                        *flow_theta, half)

    got = enhance_pixel(image, binary, p, theta)
    want = reference_masked_blend(img, binary.bits, reference_line_path, None, xs, ys, *given_theta, ecfg)[0]
    assert np.array_equal(got, math.nan if math.isnan(sample) else want, equal_nan=True)

    got = enhance_pixel_contour(image, binary, p, flow)
    want = reference_masked_blend(img, binary.bits, reference_trace_batch, flow, xs, ys, *flow_theta, ecfg)[0]
    if not flow_theta[1][0]:
        want = sample
    assert np.array_equal(got, math.nan if math.isnan(sample) else want, equal_nan=True)


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
        assert binarize_pixel(image, p, theta[y, x]) == binary.bits[y, x]
        assert binarize_pixel_contour(image, p, flow) == contour_binary.bits[y, x]
        assert enhance_pixel(image, binary, p, theta[y, x]) == enhanced[y, x]
        assert enhance_pixel_contour(image, contour_binary, p, flow) == contour_enhanced[y, x]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(2, 16),
    height=st.integers(2, 16),
    stride=st.integers(1, 3),
    valid_frac=st.floats(0.0, 1.0),
    kb=st.integers(1, 9),
    ke=st.integers(1, 9),
    sigma_frac=st.floats(0.05, 1.0),
    band_rows=st.integers(1, 4),
    path=st.sampled_from(sorted(PATHS)),
)
def test_fused_iteration_matches_the_references_composed(seed, width, height, stride, valid_frac, kb, ke,
                                                         sigma_frac, band_rows, path):
    """One band sweep gives the reference bits, then the reference blend over those bits.

    Bands of a few rows make enhance wait for bits across several bands.
    """
    rng = np.random.default_rng(seed)
    image = rf.GrayImage(rng.integers(0, 256, (height, width)))
    img = image.as_float()
    flow = _flow(rng, width, height, stride, valid_frac)
    cfg = rf.PipelineConfig(path_mode="contour" if path == "contour" else "linear",
                            binarize=rf.BinarizeConfig(kb),
                            enhance=rf.EnhanceConfig(gaussian_sigma=sigma_frac * ke / 2.0, kernel_half_length=ke))
    ys, xs = (a.astype(np.float64) for a in np.mgrid[0:height, 0:width])
    theta, defined = rf.angles_at(flow, xs, ys)
    reference = PATHS[path][1]
    bits = (~_reference_ridge(img, reference, flow, xs, ys, theta, defined, kb)).astype(np.uint8)
    blend = reference_masked_blend(img, bits, reference, flow, xs, ys, theta, defined, cfg.enhance)
    want = np.where(defined, blend, img)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rimage, "BAND_PIXELS", band_rows * width)
        mp.setattr(rpipeline, "_flow_for", lambda image, cfg: flow)
        _, binary, enhanced = rf.run_iteration(image, cfg)
        stage, rounding = ((rf.contour_enhance_values, rf.enhance_image_contour) if path == "contour"
                           else (rf.enhance_values, rf.enhance_image))
        alone = stage(image, binary, flow, cfg.enhance)
        rounded = rounding(image, binary, flow, cfg.enhance)
    assert np.array_equal(binary.bits, bits)
    assert enhanced.pixels.tobytes() == rf.GrayImage.from_float(want).pixels.tobytes()
    assert alone.tobytes() == want.tobytes()
    assert rounded.pixels.tobytes() == rf.GrayImage.from_float(want).pixels.tobytes()
