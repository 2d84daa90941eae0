import math

import numpy as np
import pytest

import ridgeflow as rf
from ridgeflow.synth import seeded_normals


def test_vertical_orientation_is_constant_along_columns():
    spec = rf.SyntheticSpec(width=48, height=40, pattern="parallel", orientation=math.pi / 2, period=8.0)
    img, truth = rf.generate(spec)
    assert (img.pixels == img.pixels[0:1, :]).all()  # rows identical => varies in x only
    assert truth.valid.all()
    assert (truth.angles == math.pi / 2).all()


def test_clean_extremes_hit_offset_plus_minus_amplitude():
    spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel", orientation=0.0, period=8.0)
    img, _ = rf.generate(spec)
    assert img.pixels.max() == 255  # round(127.5 + 127)
    assert img.pixels.min() == 1  # round(127.5 - 127) = round(0.5), half-up


def test_seeded_generation_is_reproducible():
    spec = rf.SyntheticSpec(width=32, height=32, pattern="parallel", orientation=0.3,
                            period=8.0, noise_sigma=25.0, rng_seed=99)
    a, _ = rf.generate(spec)
    b, _ = rf.generate(spec)
    assert np.array_equal(a.pixels, b.pixels)
    c, _ = rf.generate(rf.SyntheticSpec(width=32, height=32, pattern="parallel", orientation=0.3,
                                        period=8.0, noise_sigma=25.0, rng_seed=100))
    assert not np.array_equal(a.pixels, c.pixels)


def test_normals_are_counter_based_and_plausible():
    a = seeded_normals(5, 10000)
    b = seeded_normals(5, 10000)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.05
    assert abs(a.std() - 1.0) < 0.05


def test_concentric_truth_matches_tangent_formula():
    spec = rf.SyntheticSpec(width=64, height=64, pattern="concentric", period=8.0)
    _, truth = rf.generate(spec)
    cx = cy = 63 / 2.0
    xs = truth.site_xs()
    ys = truth.site_ys()
    for iy in range(truth.grid_height):
        for ix in range(truth.grid_width):
            r = math.hypot(xs[ix] - cx, ys[iy] - cy)
            if not truth.valid[iy, ix]:
                assert r < 1.0
                continue
            want = (math.atan2(ys[iy] - cy, xs[ix] - cx) + math.pi / 2) % math.pi
            assert truth.angles[iy, ix] == pytest.approx(want, abs=1e-9)


def test_half_plane_stripe_layout():
    spec = rf.SyntheticSpec(width=64, height=64, pattern="half_plane_stripe", period=8.0)
    img, truth = rf.generate(spec)
    right = img.pixels[:, 40:]
    assert right.min() == right.max()  # flat half
    left_col = img.pixels[:, 5]
    assert left_col.max() - left_col.min() > 200  # striped half
    assert (img.pixels[:, :5] == img.pixels[:, 5:6]).all()  # stripes run along x
    xs = truth.site_xs()
    assert (truth.valid == (xs < 32.0)[None, :]).all()
    assert (truth.angles[truth.valid] == 0.0).all()


@pytest.mark.parametrize("name", ["period", "orientation", "amplitude", "offset", "noise_sigma"])
def test_non_finite_spec_field_is_rejected(name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        rf.SyntheticSpec(width=8, height=8, **{name: math.nan})


def test_spec_validation():
    with pytest.raises(ValueError):
        rf.SyntheticSpec(width=8, height=8, period=2.0)
    with pytest.raises(ValueError):
        rf.SyntheticSpec(width=8, height=8, amplitude=140.0)
    with pytest.raises(ValueError):
        rf.SyntheticSpec(width=8, height=8, pattern="zigzag")
    with pytest.raises(ValueError):
        rf.SyntheticSpec(width=0, height=8)


# a float or a string was accepted and failed inside generate, and True acted as seed 1
@pytest.mark.parametrize("seed", [1.5, "7", None, True, np.float64(3.0)], ids=repr)
def test_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError) as err:
        rf.SyntheticSpec(width=8, height=8, rng_seed=seed)
    assert str(err.value) == f"rng_seed must be an integer, got {seed!r}"


# numpy's integers overflowed where the stream masks the seed to 64 bits
@pytest.mark.parametrize("seed", [np.int64(5), np.int64(-3), np.int32(99), np.uint64(2**64 - 1)], ids=repr)
def test_numpy_integer_seed_gives_the_bytes_of_its_python_int(seed):
    kw = dict(width=16, height=12, noise_sigma=10.0)
    image, _ = rf.generate(rf.SyntheticSpec(**kw, rng_seed=seed))
    assert np.array_equal(image.pixels, rf.generate(rf.SyntheticSpec(**kw, rng_seed=int(seed)))[0].pixels)


def test_noise_applied_before_clamping():
    spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel", orientation=0.0,
                            period=8.0, noise_sigma=60.0, rng_seed=1)
    img, _ = rf.generate(spec)
    assert img.pixels.min() == 0 and img.pixels.max() == 255


@pytest.mark.parametrize("stride", [0, -2])
def test_non_positive_stride_is_rejected(stride):
    with pytest.raises(ValueError, match="stride must be >= 1"):
        rf.generate(rf.SyntheticSpec(width=16, height=16), stride=stride)


def test_stride_past_int64_is_rejected():
    with pytest.raises(ValueError, match="^stride 100000000000000000000 puts grid sites past the int64 range$"):
        rf.generate(rf.SyntheticSpec(width=16, height=16), stride=10**20)
    _, truth = rf.generate(rf.SyntheticSpec(width=16, height=16), stride=2**63 - 1)
    assert truth.site_xs().tolist() == truth.site_ys().tolist() == [0]


@pytest.mark.parametrize("orientation", [-1e-300, -1e-17])
def test_orientation_a_hair_below_zero_gives_truth_angle_zero(orientation):
    # orientation % pi is exactly pi here; the ridges are those of orientation 0
    img, truth = rf.generate(rf.SyntheticSpec(width=8, height=8, orientation=orientation))
    assert (truth.angles == 0.0).all()
    assert np.array_equal(img.pixels, rf.generate(rf.SyntheticSpec(width=8, height=8))[0].pixels)


def test_truth_grid_follows_stride():
    spec = rf.SyntheticSpec(width=65, height=33, pattern="parallel", orientation=0.0, period=8.0)
    _, truth = rf.generate(spec, stride=2)
    assert (truth.grid_width, truth.grid_height) == (33, 17)
    assert truth.stride == 2
