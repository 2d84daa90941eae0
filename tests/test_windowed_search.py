"""The in-source, windowed rotation against the whole-canvas reference in
``oracles``, and the window a query rotates, which may reach past the canvas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ridgeflow as rf
import ridgeflow.projection as rproj
from ridgeflow.image import RotationFrame, bilinear_many, rotate_raster

from oracles import (CachedRotatedEvaluator, canvas, canvas_reader, check_band_reads, reference_mean_deviation_map,
                     reference_rotate_raster)

ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi - 1e-12]),
    st.floats(0.0, math.pi, exclude_max=True),
)
OFFSETS = st.one_of(st.just(0.0), st.just(rproj._STAT_OFFSET), st.floats(-2.0, 2.0))
BOUNDS = st.integers(-5, 60)  # canvases of 40x40 rasters reach 57 pixels; a window may reach past them


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    angle=ANGLES,
    offset=st.tuples(OFFSETS, OFFSETS),
    window=st.one_of(st.none(), st.tuples(BOUNDS, BOUNDS, BOUNDS, BOUNDS)),
)
# a subnormal sine, which once overflowed a per-band column interval to infinity
@example(seed=0, height=1, width=1, angle=2.2250738585e-313, offset=(0.0, 2.0), window=None)
def test_windowed_rotation_is_the_reference_slice(seed, height, width, angle, offset, window):
    values = np.random.default_rng(seed).integers(0, 256, (height, width)).astype(np.float64)
    want = reference_rotate_raster(values, angle, offset)
    n_rows, n_cols = want.values.shape
    got = rotate_raster(values, angle, offset, None if window is None else (slice(*window[:2]), slice(*window[2:])))
    (r0, r1), (c0, c1) = ((0, n_rows), (0, n_cols)) if window is None else (window[:2], window[2:])
    assert got.values.shape == (max(r1 - r0, 0), max(c1 - c0, 0))
    # the window's part on the canvas is the reference's
    rows, cols = np.arange(r0, r1), np.arange(c0, c1)
    on_rows, on_cols = (rows >= 0) & (rows < n_rows), (cols >= 0) & (cols < n_cols)
    assert (got.values[np.ix_(on_rows, on_cols)].tobytes()
            == np.where(want.valid, want.values, np.nan)[np.ix_(rows[on_rows], cols[on_cols])].tobytes())
    # and every pixel, past the canvas too, is resampled from its source position as the reference's are
    c, s = math.cos(angle), math.sin(angle)
    dx = (cols - want.dst_center[0])[None, :]
    dy = (rows - want.dst_center[1])[:, None]
    sx = want.src_center[0] + offset[0] + c * dx - s * dy
    sy = want.src_center[1] + offset[1] + s * dx + c * dy
    assert got.values.tobytes() == bilinear_many(values, sx, sy).tobytes()
    assert got.frame.shape == want.values.shape
    assert got.origin == (r0, c0)
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    for g, w in zip(got.frame.to_rotated(xs, ys), want.to_rotated(xs, ys)):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=400, deadline=None)
@given(height=st.integers(1, 60), width=st.integers(1, 60), angle=ANGLES, margin=st.integers(1, 4))
@example(height=1, width=1, angle=2.2250738585e-313, margin=1)
def test_every_pixel_past_the_canvas_is_nan_under_the_sampling_offset(height, width, angle, margin):
    # it lies at least 1 px beyond the image's outermost pixel centres, and the offset moves a sample at most
    # 0.30 px, so the evaluator may read a band's window past the canvas unclipped
    offset = (rproj._STAT_OFFSET, rproj._STAT_OFFSET)
    h, w = RotationFrame.of((height, width), angle, offset).shape
    window = (slice(-margin, h + margin), slice(-margin, w + margin))
    got = rotate_raster(np.full((height, width), 255, dtype=np.uint8), angle, offset, window).values
    past = np.ones(got.shape, dtype=bool)
    past[margin:-margin, margin:-margin] = False
    assert np.isnan(got[past]).all()


def _image(size=96):
    img, _ = rf.generate(rf.SyntheticSpec(width=size, height=size + 3, pattern="concentric", period=7.0,
                                          noise_sigma=40.0, rng_seed=5))
    return img


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_sites=st.integers(1, 40),
    angle=ANGLES,
    tangent=st.integers(1, 10),
    perp=st.integers(1, 10),
    half_rule=st.booleans(),
    band_pixels=st.one_of(st.integers(1, 2000), st.just(rproj._MAP_BAND_PIXELS)),
)
def test_any_site_subset_reads_the_cached_whole_canvas_map(seed, n_sites, angle, tangent, perp, half_rule,
                                                           band_pixels):
    # Small map bands put sparse sites in several bands with site-free rows
    # between them, so each band's prefix sums start at its own first row.
    img = _image(48)
    cfg = rf.FlowConfig(tangent_half_length=tangent, perp_half_length=perp, use_half_line_rule=half_rule)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, img.width, n_sites).astype(np.float64)
    ys = rng.integers(0, img.height, n_sites).astype(np.float64)
    windows = []
    rotate = rproj.rotate_raster

    def recording_rotate(values, angle, offset, window):
        windows.append(window)
        return rotate(values, angle, offset, window)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rproj, "_MAP_BAND_PIXELS", band_pixels)
        mp.setattr(rproj, "rotate_raster", recording_rotate)
        got = rf.RotatedDeviationEvaluator(img, cfg).mean_deviation(angle, xs, ys)
    want = CachedRotatedEvaluator(img, cfg).mean_deviation(angle, xs, ys)
    assert got.tobytes() == want.tobytes()
    # each band reads only the rows and columns its own sites need
    frame = RotationFrame.of(img.pixels.shape, angle, (rproj._STAT_OFFSET, rproj._STAT_OFFSET))
    rx, ry = frame.to_rotated(xs, ys)
    # every site, off the map ones snapped next to it
    row = np.clip(np.floor(ry + 0.5).astype(np.int64) + perp, -1, frame.shape[0] + 2 * perp)
    col = np.clip(np.floor(rx + 0.5).astype(np.int64) + tangent, -1, frame.shape[1] + 2 * tangent)
    check_band_reads(windows, row, col, frame.shape, cfg, band_pixels)


def test_one_site_query_rotates_a_window_2t_plus_1_wide(monkeypatch):
    # and 2s+1 tall: a site near the bottom of a 512x515 image reads no canvas row above its perpendicular
    shapes = []
    rotate = rproj.rotate_raster

    def recording_rotate(values, angle, *args):
        rr = rotate(values, angle, *args)
        shapes.append(rr.values.shape)
        return rr

    monkeypatch.setattr(rproj, "rotate_raster", recording_rotate)
    cfg = rf.FlowConfig(tangent_half_length=5, perp_half_length=3)
    t, s = cfg.tangent_half_length, cfg.perp_half_length
    for size, points in [(96, [(0, 0), (48, 50), (95, 98), (0, 98), (95, 0)]),
                         (512, [(0, 0), (256, 257), (511, 514), (0, 514), (511, 0)])]:
        img = _image(size)
        ev = rf.RotatedDeviationEvaluator(img, cfg)
        reference = CachedRotatedEvaluator(img, cfg)
        shapes.clear()
        for alpha in cfg.coarse_angles():
            for x, y in points:
                xs, ys = np.array([float(x)]), np.array([float(y)])
                assert ev.mean_deviation(alpha, xs, ys).tobytes() == reference.mean_deviation(alpha, xs, ys).tobytes()
        assert len(shapes) == 5 * len(cfg.coarse_angles())
        assert max(w for _, w in shapes) <= 2 * t + 1
        assert max(h for h, _ in shapes) <= 2 * s + 1


def _raster(rng, height, width, invalid_frac):
    """A canvas of random values, NaN where a sample has no value, as ``rotate_raster`` gives it.

    Whole NaN columns and scattered NaN pixels leave spans of fewer than two
    samples, whose deviations are NaN.
    """
    valid = rng.random((height, width)) >= invalid_frac
    valid[:, rng.random(width) < invalid_frac] = False
    return np.where(valid, rng.integers(0, 256, (height, width)).astype(np.float64), np.nan)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    tangent=st.integers(1, 6),
    perp=st.integers(1, 6),
    half_rule=st.booleans(),
    invalid_frac=st.sampled_from([0.0, 0.3, 0.9]),
    n_sites=st.integers(1, 60),
    band_pixels=st.one_of(st.integers(1, 600), st.just(rproj._MAP_BAND_PIXELS)),
)
def test_tangent_means_read_at_the_sites_are_the_whole_map(seed, height, width, tangent, perp, half_rule,
                                                           invalid_frac, n_sites, band_pixels):
    # Each site gathers its 2t+1 span deviations in the map's add order, so it
    # has the bytes of the whole map, NaN spans and the first and last 2t map
    # columns, whose windows run off the canvas, included.
    rng = np.random.default_rng(seed)
    values = _raster(rng, height, width, invalid_frac)
    cfg = rf.FlowConfig(tangent_half_length=tangent, perp_half_length=perp, use_half_line_rule=half_rule)
    map_h, map_w = height + 2 * perp, width + 2 * tangent
    edge = np.r_[0 : min(2 * tangent, map_w), max(map_w - 2 * tangent, 0) : map_w]
    col = np.where(rng.random(n_sites) < 0.5, rng.choice(edge, n_sites), rng.integers(0, map_w, n_sites))
    row = rng.integers(0, map_h, n_sites)
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rproj, "_MAP_BAND_PIXELS", band_pixels)
        got = rproj._site_mean_deviations(canvas_reader(values, reads), (height, width), cfg,
                                          row.astype(np.int32), col.astype(np.int32), {})
    assert got.tobytes() == reference_mean_deviation_map(canvas(values), cfg)[row, col].tobytes()
    # each read exactly its band's rows r0 - 2s .. r1 - 1 and its sites' columns, unclipped, and no site-free rows
    check_band_reads(reads, row, col, (height, width), cfg, band_pixels)


def test_site_free_rows_before_the_first_band_are_not_read(monkeypatch):
    values = _raster(np.random.default_rng(3), 90, 30, 0.3)
    cfg = rf.FlowConfig(tangent_half_length=3, perp_half_length=2)
    map_w = 30 + 2 * 3
    monkeypatch.setattr(rproj, "_MAP_BAND_PIXELS", 10 * map_w)  # map bands of 10 rows
    row = np.array([80, 83, 87, 93], dtype=np.int32)
    col = np.array([0, 17, 35, 5], dtype=np.int32)
    reads = []
    got = rproj._site_mean_deviations(canvas_reader(values, reads), (90, 30), cfg, row, col, {})
    assert got.tobytes() == reference_mean_deviation_map(canvas(values), cfg)[row, col].tobytes()
    # the band of map rows 80..87 reads canvas rows 76..87 and columns -6..35; row 93 lies more than 2s + 1
    # rows on, so it starts a band of its own, canvas rows 89..93 and columns -1..5, past the canvas's last
    # row 89 and first column 0; rows 0..75 and row 88 are not read
    assert [((r.start, r.stop), (c.start, c.stop)) for r, c in reads] == [((76, 88), (-6, 36)), ((89, 94), (-1, 6))]
    check_band_reads(reads, row, col, (90, 30), cfg, 10 * map_w)
