"""The angle-major orientation search against the offset-major, map-caching
reference in ``oracles``, and the order and number of its evaluator calls."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
import ridgeflow.projection as rproj

from oracles import DirectDeviationEvaluator, reference_flow_field, reference_search_orientations

# (coarse_step, fine_step, fine_half_range): the defaults, and a grid whose
# fine offsets of +-3 steps reach most fine angles from two coarse optima
STEPS = [(math.pi / 8, math.pi / 32, math.pi / 16), (math.pi / 6, math.pi / 24, math.pi / 8)]


def _image(seed, width, height, pattern, flat):
    img, _ = rf.generate(rf.SyntheticSpec(width=width, height=height, pattern=pattern, period=7.0,
                                          orientation=seed % 314 / 100.0, noise_sigma=40.0, rng_seed=seed))
    px = img.pixels.copy()
    px[:, :flat] = 128  # a flat strip: background sites
    return rf.GrayImage(px)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    width=st.integers(40, 72),
    height=st.integers(40, 72),
    pattern=st.sampled_from(["parallel", "concentric"]),
    flat=st.integers(0, 20),
    stride=st.integers(1, 3),
    tangent=st.integers(1, 10),
    perp=st.integers(1, 10),
    threshold=st.sampled_from([0.0, 25.0]),
    half_rule=st.booleans(),
    steps=st.sampled_from(STEPS),
)
def test_flow_byte_identical_to_cached_offset_major_reference(
    seed, width, height, pattern, flat, stride, tangent, perp, threshold, half_rule, steps
):
    img = _image(seed, width, height, pattern, flat)
    coarse, fine, half_range = steps
    cfg = rf.FlowConfig(tangent_half_length=tangent, perp_half_length=perp, stride=stride,
                        coarse_step=coarse, fine_step=fine, fine_half_range=half_range,
                        background_variance_threshold=threshold, use_half_line_rule=half_rule)
    got = rf.compute_flow_field(img, cfg)
    want = reference_flow_field(img, cfg)
    assert got.angles.tobytes() == want.angles.tobytes()
    assert got.valid.tobytes() == want.valid.tobytes()


@pytest.mark.parametrize("steps", STEPS, ids=["default", "sixths"])
def test_direct_evaluator_search_unchanged(steps):
    img = _image(5, 48, 44, "concentric", 10)
    coarse, fine, half_range = steps
    cfg = rf.FlowConfig(stride=3, coarse_step=coarse, fine_step=fine, fine_half_range=half_range)
    gy, gx = np.mgrid[0:44:3, 0:48:3].reshape(2, -1).astype(np.float64)
    ev = DirectDeviationEvaluator(img, cfg)
    got = rproj._search_orientations(ev.mean_deviation, gx, gy, cfg)
    theta, defined = reference_search_orientations(ev.mean_deviation, gx, gy, cfg)
    assert got.tobytes() == np.where(defined, theta, np.nan).tobytes()


@pytest.mark.parametrize("steps", STEPS, ids=["default", "sixths"])
def test_each_angle_is_rotated_and_evaluated_once_coarse_first(monkeypatch, steps):
    calls, rotations = [], []
    rotate = rproj.rotate_raster
    evaluate = rf.RotatedDeviationEvaluator.mean_deviation

    def counting_rotate(values, angle, *args):
        rotations.append(angle)
        return rotate(values, angle, *args)

    def recording_evaluate(self, alpha, xs, ys):
        calls.append((float(alpha), len(xs)))
        return evaluate(self, alpha, xs, ys)

    monkeypatch.setattr(rproj, "rotate_raster", counting_rotate)
    monkeypatch.setattr(rf.RotatedDeviationEvaluator, "mean_deviation", recording_evaluate)
    img = _image(11, 96, 96, "concentric", 0)
    coarse, fine, half_range = steps
    cfg = rf.FlowConfig(coarse_step=coarse, fine_step=fine, fine_half_range=half_range)
    flow = rf.compute_flow_field(img, cfg)
    n_sites = int(flow.valid.size)
    assert flow.valid.all()

    angles = [a for a, _ in calls]
    n_coarse = len(cfg.coarse_angles())
    assert angles[:n_coarse] == cfg.coarse_angles().tolist()
    assert all(n == n_sites for _, n in calls[:n_coarse])
    # one call and one rotation per distinct angle, fine angles ascending
    assert len(set(angles)) == len(angles) == len(rotations)
    assert rotations == angles
    assert angles[n_coarse:] == sorted(angles[n_coarse:])
    # every site asks for each of its 2m fine candidates exactly once
    m = len(cfg.fine_offsets()) // 2
    assert sum(n for _, n in calls[n_coarse:]) == 2 * m * n_sites


class KeyedEvaluator:
    """mu from {NaN, 0, 1, 2}, a fixed function of (angle, site), whatever sites a call asks for.

    The x coordinate is the site's number; a dead site is NaN at every angle.
    """

    VALUES = np.array([np.nan, 0.0, 1.0, 2.0])

    def __init__(self, seed: int, dead: frozenset):
        self.seed = seed
        self.dead = dead

    def mean_deviation(self, alpha, xs, ys):
        keys = [zlib.crc32(struct.pack("<qdq", self.seed, float(alpha), int(x))) % 4 for x in xs]
        return np.where([int(x) in self.dead for x in xs], np.nan, self.VALUES[keys])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_sites=st.integers(1, 30),
    dead=st.frozensets(st.integers(0, 29), max_size=6),
    steps=st.sampled_from(STEPS),
)
def test_running_optima_match_the_table_search_on_ties_and_nans(seed, n_sites, dead, steps):
    # Values from four levels tie often, coarse and fine; NaN fine candidates
    # and all-NaN sites occur, and coarse optimum 0 puts fine angles past pi.
    coarse, fine, half_range = steps
    cfg = rf.FlowConfig(coarse_step=coarse, fine_step=fine, fine_half_range=half_range)
    ev = KeyedEvaluator(seed, dead)
    px = np.arange(n_sites, dtype=np.float64)
    py = np.zeros(n_sites)
    got = rproj._search_orientations(ev.mean_deviation, px, py, cfg)
    theta, defined = reference_search_orientations(ev.mean_deviation, px, py, cfg)
    assert got.dtype == theta.dtype
    assert got.tobytes() == np.where(defined, theta, np.nan).tobytes()
