"""The in-source, windowed rotation against the whole-canvas reference in
``oracles``, and the window a query rotates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ridgeflow as rf
import ridgeflow.projection as rproj
from ridgeflow.image import rotate_raster

from oracles import CachedRotatedEvaluator, canvas, reference_mean_deviation_map, reference_rotate_raster

ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi - 1e-12]),
    st.floats(0.0, math.pi, exclude_max=True),
)
OFFSETS = st.one_of(st.just(0.0), st.just(rproj._STAT_OFFSET), st.floats(-2.0, 2.0))
BOUNDS = st.integers(0, 60)  # canvases of 40x40 rasters reach 57 pixels


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    angle=ANGLES,
    offset=st.tuples(OFFSETS, OFFSETS),
    window=st.one_of(st.none(), st.tuples(BOUNDS, BOUNDS, BOUNDS, BOUNDS)),
)
# a subnormal sine overflowed the column interval to infinity
@example(seed=0, height=1, width=1, angle=2.2250738585e-313, offset=(0.0, 2.0), window=None)
def test_windowed_rotation_is_the_reference_slice(seed, height, width, angle, offset, window):
    values = np.random.default_rng(seed).integers(0, 256, (height, width)).astype(np.float64)
    want = reference_rotate_raster(values, angle, offset)
    sl = (slice(None), slice(None)) if window is None else (slice(*window[:2]), slice(*window[2:]))
    got = rotate_raster(values, angle, offset, None if window is None else sl)
    assert got.values.shape == want.values[sl].shape
    assert got.values.tobytes() == np.where(want.valid, want.values, np.nan)[sl].tobytes()
    assert got.frame.shape == want.values.shape
    assert got.origin == tuple(range(n)[s].start for n, s in zip(want.values.shape, sl))
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    for g, w in zip(got.frame.to_rotated(xs, ys), want.to_rotated(xs, ys)):
        assert g.tobytes() == w.tobytes()


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
    # between them, so the carried prefix rows and the folded gaps are read.
    img = _image(48)
    cfg = rf.FlowConfig(tangent_half_length=tangent, perp_half_length=perp, use_half_line_rule=half_rule)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, img.width, n_sites).astype(np.float64)
    ys = rng.integers(0, img.height, n_sites).astype(np.float64)
    rows = []
    rotate = rproj.rotate_raster

    def recording_rotate(values, angle, offset, window):
        rows.extend(range(window[0].start, window[0].stop))
        return rotate(values, angle, offset, window)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rproj, "_MAP_BAND_PIXELS", band_pixels)
        mp.setattr(rproj, "rotate_raster", recording_rotate)
        got = rf.RotatedDeviationEvaluator(img, cfg).mean_deviation(angle, xs, ys)
    want = CachedRotatedEvaluator(img, cfg).mean_deviation(angle, xs, ys)
    assert got.tobytes() == want.tobytes()
    # each canvas row is rotated at most once, in order: the prefix sums take rows from the top
    assert rows == list(range(len(rows)))


def test_one_site_query_rotates_a_window_2t_plus_1_wide(monkeypatch):
    shapes = []
    rotate = rproj.rotate_raster

    def recording_rotate(values, angle, *args):
        rr = rotate(values, angle, *args)
        shapes.append(rr.values.shape)
        return rr

    monkeypatch.setattr(rproj, "rotate_raster", recording_rotate)
    img = _image()
    cfg = rf.FlowConfig(tangent_half_length=5, perp_half_length=3)
    ev = rf.RotatedDeviationEvaluator(img, cfg)
    reference = CachedRotatedEvaluator(img, cfg)
    t = cfg.tangent_half_length
    for alpha in cfg.coarse_angles():
        for x, y in [(0, 0), (48, 50), (95, 98), (0, 98), (95, 0)]:
            got = ev.mean_deviation(alpha, np.array([float(x)]), np.array([float(y)]))
            assert got.tobytes() == reference.mean_deviation(alpha, np.array([float(x)]), np.array([float(y)])).tobytes()
    assert len(shapes) == 5 * len(cfg.coarse_angles())
    assert max(w for _, w in shapes) <= 2 * t + 1


def _raster(rng, height, width, invalid_frac):
    """A canvas of random values, NaN where a sample has no value, as ``rotate_raster`` gives it.

    Whole NaN columns and scattered NaN pixels leave spans of fewer than two
    samples, whose deviations are NaN.
    """
    valid = rng.random((height, width)) >= invalid_frac
    valid[:, rng.random(width) < invalid_frac] = False
    return np.where(valid, rng.integers(0, 256, (height, width)).astype(np.float64), np.nan)


def _read_recorder(values, reads):
    def read_rows(a, b):
        reads.append((a, b))
        return values[a:b]

    return read_rows


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
        got = rproj._site_mean_deviations(_read_recorder(values, reads), (height, width), cfg,
                                          row.astype(np.int32), col.astype(np.int32), {})
    assert got.tobytes() == reference_mean_deviation_map(canvas(values), cfg)[row, col].tobytes()
    # each canvas row read once, in order, and no read longer than a map band
    rows = [r for a, b in reads for r in range(a, b)]
    assert rows == list(range(len(rows)))
    assert all(b - a <= max(1, band_pixels // map_w) for a, b in reads)


def test_site_free_rows_before_the_first_band_are_read_in_band_sized_chunks(monkeypatch):
    values = _raster(np.random.default_rng(3), 90, 30, 0.3)
    cfg = rf.FlowConfig(tangent_half_length=3, perp_half_length=2)
    map_w = 30 + 2 * 3
    monkeypatch.setattr(rproj, "_MAP_BAND_PIXELS", 10 * map_w)  # map bands of 10 rows
    row = np.array([80, 83, 87, 93], dtype=np.int32)
    col = np.array([0, 17, 35, 5], dtype=np.int32)
    reads = []
    got = rproj._site_mean_deviations(_read_recorder(values, reads), (90, 30), cfg, row, col, {})
    assert got.tobytes() == reference_mean_deviation_map(canvas(values), cfg)[row, col].tobytes()
    # eight site-free bands of ten rows, then the band of map rows 80..89, then the canvas rows left
    assert reads == [(a, a + 10) for a in range(0, 90, 10)]
