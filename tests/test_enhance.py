import math

import numpy as np
import pytest

import ridgeflow as rf

from oracles import enhance_pixel, enhance_pixel_contour, inner_pixel_mask, manual_bilinear, sample_bilinear


def noisy_sinusoid(seed=42, noise=40.0, size=128, deg=30):
    spec = rf.SyntheticSpec(width=size, height=size, pattern="parallel",
                            orientation=math.radians(deg), period=8.0,
                            noise_sigma=noise, rng_seed=seed)
    return rf.generate(spec)


class TestKernel:
    def test_tiny_sigma_approaches_delta(self):
        k = rf.gaussian_kernel(0.1, 2)
        assert k[2] == pytest.approx(1.0, abs=1e-12)
        assert k[[0, 1, 3, 4]].max() < 1e-12

    def test_symmetry_is_exact(self):
        k = rf.gaussian_kernel(3.0, 9)
        assert (k == k[::-1]).all()

    def test_sum_is_one(self):
        for sigma, hl in ((3.0, 9), (1.0, 4), (5.0, 12)):
            assert abs(rf.gaussian_kernel(sigma, hl).sum() - 1.0) <= 1e-12

    def test_center_weight_matches_direct_formula(self):
        k = rf.gaussian_kernel(3.0, 9)
        denom = sum(math.exp(-(i * i) / 18.0) for i in range(-9, 10))
        assert k[9] == pytest.approx(1.0 / denom, rel=1e-12)

    def test_vanishing_sigma_is_rejected(self):
        # 2 * sigma**2 underflows to 0, which made every weight 0/0
        with pytest.raises(ValueError, match="sigma 1e-300 is too small"):
            rf.gaussian_kernel(1e-300, 1)
        with pytest.raises(ValueError, match="gaussian_sigma 1e-300 is too small"):
            rf.EnhanceConfig(gaussian_sigma=1e-300)

    def test_negative_half_length_is_rejected(self):
        # it gave an empty kernel
        with pytest.raises(ValueError, match="^half_length must be >= 0, got -1$"):
            rf.gaussian_kernel(3.0, -1)
        assert rf.gaussian_kernel(3.0, 0).tolist() == [1.0]

    def test_tiny_sigma_whose_exponents_overflow_is_a_delta(self):
        with np.errstate(all="raise"):
            k = rf.gaussian_kernel(1e-160, 9)
        assert k.tobytes() == np.eye(1, 19, 9).ravel().tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rf.EnhanceConfig(gaussian_sigma=0.0)
        with pytest.raises(ValueError):
            rf.EnhanceConfig(gaussian_sigma=3.0, kernel_half_length=5)

    @pytest.mark.parametrize("sigma, message", [(math.nan, "gaussian_sigma must be finite"),
                                                (math.inf, "gaussian_sigma must be finite"),
                                                (1e308, "kernel_half_length must be >=")])
    def test_non_finite_or_huge_sigma_is_rejected(self, sigma, message):
        with pytest.raises(ValueError, match=message):
            rf.EnhanceConfig(gaussian_sigma=sigma)


class TestEnhancePixel:
    def test_uniform_in_class_value_is_preserved(self):
        img = rf.GrayImage(np.full((24, 24), 133, dtype=np.int64))
        binary = rf.BinaryImage(np.zeros((24, 24), dtype=np.int64))
        assert enhance_pixel(img, binary, rf.Point(12, 12), 0.3) == pytest.approx(133.0, abs=1e-12)

    def test_non_finite_point_is_nan(self):
        img = rf.GrayImage(np.full((24, 24), 133, dtype=np.int64))
        binary = rf.BinaryImage(np.zeros((24, 24), dtype=np.int64))
        for p in (rf.Point(math.nan, 12.0), rf.Point(12.0, -math.inf)):
            assert math.isnan(enhance_pixel(img, binary, p, 0.3))
        # an undefined orientation passes the pixel through
        assert enhance_pixel(img, binary, rf.Point(12.0, 12.0), math.nan) == 133.0
        # as its bilinear sample between pixel centres, where the nearest pixel would read 43.0
        ramp = rf.GrayImage(np.arange(64, dtype=np.int64).reshape(8, 8))
        p = rf.Point(3.25, 4.5)
        for theta in (math.nan, math.inf):
            assert enhance_pixel(ramp, rf.BinaryImage(np.zeros((8, 8), dtype=np.int64)), p, theta) == 39.25
        assert sample_bilinear(ramp, p) == 39.25

    def test_point_outside_the_raster_is_nan(self):
        # an 8x8 ramp: a clamped edge pixel would read 0.0 at (-100, -100)
        # and 31.0 at (100, 3); both are outside, as for sample_bilinear
        img = rf.GrayImage(np.arange(64, dtype=np.int64).reshape(8, 8) // 2)
        binary = rf.BinaryImage(np.zeros((8, 8), dtype=np.int64))
        flow = rf.FlowField(np.zeros((4, 4)), np.ones((4, 4), dtype=bool), 2)
        outside = [(-100.0, -100.0), (100.0, 3.0), (3.0, 7.5), (-0.5, 3.0)]
        inside = [(0.0, 0.0), (7.0, 7.0), (7.0 + 1e-10, 3.0), (3.25, 4.5)]
        for x, y in outside + inside:
            p = rf.Point(x, y)
            want_nan = math.isnan(sample_bilinear(img, p))
            assert want_nan == ((x, y) in outside)
            for theta in (0.3, math.nan):
                assert math.isnan(enhance_pixel(img, binary, p, theta)) == want_nan
            assert math.isnan(enhance_pixel_contour(img, binary, p, flow)) == want_nan

    def test_singleton_class_returns_center(self):
        rng = np.random.RandomState(9)
        img = rf.GrayImage(rng.randint(0, 256, size=(24, 24)).astype(np.int64))
        bits = np.ones((24, 24), dtype=np.int64)
        bits[12, 12] = 0
        binary = rf.BinaryImage(bits)
        got = enhance_pixel(img, binary, rf.Point(12, 12), 0.0)
        assert got == float(img.pixels[12, 12])

    def test_matches_masked_weighted_sum_oracle(self):
        img, _ = noisy_sinusoid(size=64)
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        cfg = rf.EnhanceConfig()
        f = img.as_float()
        weights = rf.gaussian_kernel(cfg.gaussian_sigma, cfg.kernel_half_length)
        rng = np.random.RandomState(4)
        for _ in range(25):
            p = rf.Point(float(rng.randint(16, 48)), float(rng.randint(16, 48)))
            theta = rng.uniform(0, math.pi)
            num = den = 0.0
            bp = binary.bits[int(p.y), int(p.x)]
            for j, w in zip(range(-cfg.kernel_half_length, cfg.kernel_half_length + 1), weights):
                x = p.x + j * math.cos(theta)
                y = p.y + j * math.sin(theta)
                v = manual_bilinear(f, x, y)
                if math.isnan(v):
                    continue
                if binary.bits[int(math.floor(y + 0.5)), int(math.floor(x + 0.5))] != bp:
                    continue
                num += w * v
                den += w
            want = num / den
            assert enhance_pixel(img, binary, p, theta, cfg) == pytest.approx(want, abs=1e-9)

    def test_affine_commutation_before_rounding(self):
        img, _ = noisy_sinusoid(size=64, noise=20.0)
        scaled_pixels = np.clip(img.pixels.astype(np.int64) // 3 + 10, 0, 255)
        img = rf.GrayImage(scaled_pixels)
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        remapped = rf.GrayImage(img.pixels.astype(np.int64) * 2 + 1)
        for x, y in ((20, 20), (33, 41), (47, 18)):
            a = enhance_pixel(img, binary, rf.Point(x, y), 0.9)
            b = enhance_pixel(remapped, binary, rf.Point(x, y), 0.9)
            assert b == pytest.approx(2 * a + 1, abs=1e-9)


class TestEnhanceImage:
    def test_constant_image_unchanged(self):
        img = rf.GrayImage(np.full((64, 64), 120, dtype=np.int64))
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        out = rf.enhance_image(img, binary, flow)
        assert np.array_equal(out.pixels, img.pixels)

    def test_convex_combination_bounds(self):
        rng = np.random.RandomState(31)
        for _ in range(5):
            img = rf.GrayImage(rng.randint(20, 200, size=(48, 48)).astype(np.int64))
            angles = rng.uniform(0, math.pi, size=(24, 24))
            valid = rng.rand(24, 24) > 0.2
            flow = rf.FlowField(np.where(valid, angles, 0.0), valid, 2)
            binary = rf.BinaryImage((rng.rand(48, 48) > 0.5).astype(np.int64))
            values = rf.enhance_values(img, binary, flow)
            assert values.min() >= img.pixels.min() - 1e-9
            assert values.max() <= img.pixels.max() + 1e-9
            out = rf.enhance_image(img, binary, flow)
            assert out.pixels.min() >= img.pixels.min()
            assert out.pixels.max() <= img.pixels.max()

    def test_dimension_mismatch_raises(self):
        img = rf.GrayImage(np.zeros((32, 32), dtype=np.int64))
        binary = rf.BinaryImage(np.zeros((16, 16), dtype=np.int64))
        flow = rf.FlowField(np.zeros((16, 16)), np.ones((16, 16), dtype=bool), 2)
        with pytest.raises(ValueError, match="dimensions"):
            rf.enhance_image(img, binary, flow)

    def test_reduces_along_ridge_variance_on_noise(self):
        img, truth = noisy_sinusoid()
        spec_clean = rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                                      orientation=math.radians(30), period=8.0)
        clean, _ = rf.generate(spec_clean)
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        enhanced = rf.enhance_image(img, binary, flow)

        ori = math.radians(30)
        ux, uy = math.cos(ori), math.sin(ori)
        inner = inner_pixel_mask(128, 128)
        ys, xs = np.nonzero((clean.pixels < 64) & inner)
        f_in = img.as_float()
        f_out = enhanced.as_float()
        improved = 0
        for x, y in zip(xs[::7], ys[::7]):
            before = [manual_bilinear(f_in, x + j * ux, y + j * uy) for j in range(-8, 9)]
            after = [manual_bilinear(f_out, x + j * ux, y + j * uy) for j in range(-8, 9)]
            improved += np.var(after) < np.var(before)
        assert improved / len(xs[::7]) >= 0.90

    def test_second_application_changes_less(self):
        img, _ = noisy_sinusoid(size=64)
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        once = rf.enhance_image(img, binary, flow)
        twice = rf.enhance_image(once, binary, flow)
        first_delta = np.abs(once.as_float() - img.as_float()).mean()
        second_delta = np.abs(twice.as_float() - once.as_float()).mean()
        assert second_delta < first_delta

    def test_pass_through_where_flow_undefined(self):
        img, _ = noisy_sinusoid(size=64)
        empty = rf.FlowField(np.zeros((32, 32)), np.zeros((32, 32), dtype=bool), 2)
        binary = rf.BinaryImage(np.zeros((64, 64), dtype=np.int64))
        out = rf.enhance_image(img, binary, empty)
        assert np.array_equal(out.pixels, img.pixels)
