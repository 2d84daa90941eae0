import math
import warnings

import numpy as np

import ridgeflow as rf

from oracles import binarize_pixel, inner_pixel_mask


def dark_stripe_image():
    arr = np.full((9, 9), 255, dtype=np.int64)
    arr[:, 4] = 0
    return rf.GrayImage(arr)


class TestBinarizePixel:
    def test_dark_vertical_stripe_is_ridge(self):
        img = dark_stripe_image()
        assert binarize_pixel(img, rf.Point(4, 4), math.pi / 2) == 0

    def test_constant_image_ties_to_valley(self):
        img = rf.GrayImage(np.full((9, 9), 50, dtype=np.int64))
        assert binarize_pixel(img, rf.Point(4, 4), 0.7) == 1

    def test_bright_valley_between_dark_ridges(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        clean = img.pixels.astype(np.float64)
        ys, xs = np.nonzero((clean > 250) & inner_pixel_mask(64, 64, 8))
        p = rf.Point(float(xs[0]), float(ys[0]))
        assert binarize_pixel(img, p, math.radians(30)) == 1

    def test_same_line_under_pi_shift(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(55), period=8.0)
        img, _ = rf.generate(spec)
        rng = np.random.RandomState(3)
        for _ in range(128):
            p = rf.Point(rng.uniform(8, 55), rng.uniform(8, 55))
            theta = rng.uniform(0, math.pi)
            assert binarize_pixel(img, p, theta) == binarize_pixel(img, p, theta + math.pi)

    def test_non_finite_point_or_angle_is_valley(self):
        img = dark_stripe_image()
        assert binarize_pixel(img, rf.Point(math.nan, 4.0), math.pi / 2) == 1
        assert binarize_pixel(img, rf.Point(4.0, math.inf), math.pi / 2) == 1
        assert binarize_pixel(img, rf.Point(4.0, 4.0), math.nan) == 1
        # an infinite angle is no orientation either, and takes no trig that warns
        ramp = rf.GrayImage(np.arange(64).reshape(8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for theta in (math.nan, math.inf, -math.inf):
                assert binarize_pixel(ramp, rf.Point(3.25, 4.5), theta) == 1


class TestBinarizeImage:
    def test_constant_image_is_all_valley(self):
        img = rf.GrayImage(np.full((64, 64), 90, dtype=np.int64))
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        assert (binary.bits == 1).all()

    def test_output_dimensions_match(self):
        spec = rf.SyntheticSpec(width=66, height=48, pattern="parallel", orientation=0.5, period=8.0)
        img, _ = rf.generate(spec)
        binary = rf.binarize_image(img, rf.compute_flow_field(img))
        assert (binary.width, binary.height) == (66, 48)

    def test_midline_oracle_agreement(self):
        spec = rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        oracle_ridge = img.pixels.astype(np.float64) < 127.5
        inner = inner_pixel_mask(128, 128)
        agreement = ((binary.bits == 0) == oracle_ridge)[inner].mean()
        assert agreement >= 0.90

    def test_affine_remap_invariance_is_exact(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0,
                                amplitude=60.0, offset=63.5)
        img, _ = rf.generate(spec)
        flow = rf.compute_flow_field(img)
        base = rf.binarize_image(img, flow)
        for a, b in ((2, 0), (2, 3)):
            remapped = rf.GrayImage(img.pixels.astype(np.int64) * a + b)
            assert np.array_equal(rf.binarize_image(remapped, flow).bits, base.bits)

    def test_inversion_flips_ridges(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        flow = rf.compute_flow_field(img)
        bits = rf.binarize_image(img, flow).bits
        bits_inv = rf.binarize_image(rf.invert(img), flow).bits
        # strict ridges always flip; ties (g == h) stay valley on both
        assert (bits_inv[bits == 0] == 1).all()
        inner = inner_pixel_mask(64, 64, 8)
        flipped = (bits != bits_inv)[inner].mean()
        assert flipped >= 0.95

    def test_undefined_flow_maps_to_valley(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel", orientation=1.0, period=8.0)
        img, _ = rf.generate(spec)
        empty = rf.FlowField(np.zeros((32, 32)), np.zeros((32, 32), dtype=bool), 2)
        assert (rf.binarize_image(img, empty).bits == 1).all()

    def test_binary_as_gray_round_trip(self):
        bits = np.array([[0, 1], [1, 0]], dtype=np.int64)
        gray = rf.binary_as_gray(rf.BinaryImage(bits))
        assert gray.pixels.tolist() == [[0, 255], [255, 0]]
