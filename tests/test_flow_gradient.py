import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
import ridgeflow.gradient as rgradient
from ridgeflow.gradient import _tensor_sums, _window_weights

from oracles import (
    GradientField,
    StructureTensor,
    flow_mae,
    gradient,
    reference_pixel_tensor_sums,
    reference_tensor_sums,
    second_moment_matrix,
    tensor_orientation,
)


def sinusoid(orientation_deg, size=64):
    spec = rf.SyntheticSpec(width=size, height=size, pattern="parallel",
                            orientation=math.radians(orientation_deg), period=8.0)
    return rf.generate(spec)


class TestGradient:
    """The whole-image Sobel reference of ``tests/oracles.py``."""

    def test_constant_image_has_zero_gradient(self):
        g = gradient(rf.GrayImage(np.full((8, 8), 9, dtype=np.int64)))
        assert (g.gx == 0).all() and (g.gy == 0).all()

    def test_ramp(self):
        img = rf.GrayImage((2 * np.arange(16)[None, :] + np.zeros((10, 1))).astype(np.int64))
        g = gradient(img)
        assert np.allclose(g.gx[1:-1, 1:-1], 2.0)
        assert np.allclose(g.gy[1:-1, 1:-1], 0.0)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.RandomState(17)
        img = rf.GrayImage(rng.randint(0, 256, size=(7, 7)).astype(np.int64))
        g = gradient(img)
        f = img.as_float()
        kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64) / 8.0
        ky = kx.T
        for y in range(1, 6):
            for x in range(1, 6):
                patch = f[y - 1 : y + 2, x - 1 : x + 2]
                assert g.gx[y, x] == pytest.approx((patch * kx).sum(), abs=1e-12)
                assert g.gy[y, x] == pytest.approx((patch * ky).sum(), abs=1e-12)

    def test_too_small(self):
        for shape in ((2, 5), (5, 2)):
            with pytest.raises(ValueError, match="at least 3x3"):
                rf.compute_flow_field_gradient(rf.GrayImage(np.zeros(shape, dtype=np.int64)))


class TestSecondMomentMatrix:
    def test_uniform_unit_gradient_x(self):
        grad = GradientField(np.ones((9, 9)), np.zeros((9, 9)))
        t = second_moment_matrix(grad, rf.Point(4, 4), window_half=1, weight_sigma=None)
        assert (t.a11, t.a12, t.a22) == (9.0, 0.0, 0.0)

    def test_uniform_diagonal_gradient(self):
        grad = GradientField(np.ones((11, 11)), np.ones((11, 11)))
        t = second_moment_matrix(grad, rf.Point(5, 5), window_half=2, weight_sigma=2.0)
        offs = np.arange(-2, 3, dtype=np.float64)
        dx, dy = np.meshgrid(offs, offs)
        wsum = float(np.exp(-(dx * dx + dy * dy) / 8.0).sum())
        assert t.a11 == pytest.approx(wsum, rel=1e-12)
        assert t.a12 == pytest.approx(wsum, rel=1e-12)
        assert t.a22 == pytest.approx(wsum, rel=1e-12)

    def test_matches_double_loop_oracle(self):
        img, _ = sinusoid(30)
        grad = gradient(img)
        p = rf.Point(31, 29)
        t = second_moment_matrix(grad, p, window_half=8, weight_sigma=4.0)
        a11 = a12 = a22 = 0.0
        for dy in range(-8, 9):
            for dx in range(-8, 9):
                w = math.exp(-(dx * dx + dy * dy) / (2 * 16.0))
                gx = grad.gx[29 + dy, 31 + dx]
                gy = grad.gy[29 + dy, 31 + dx]
                a11 += w * gx * gx
                a12 += w * gx * gy
                a22 += w * gy * gy
        assert t.a11 == pytest.approx(a11, rel=1e-9)
        assert t.a12 == pytest.approx(a12, rel=1e-9)
        assert t.a22 == pytest.approx(a22, rel=1e-9)

    def test_always_positive_semidefinite(self):
        rng = np.random.RandomState(23)
        img = rf.GrayImage(rng.randint(0, 256, size=(32, 32)).astype(np.int64))
        grad = gradient(img)
        for _ in range(100):
            p = rf.Point(rng.randint(0, 32), rng.randint(0, 32))
            t = second_moment_matrix(grad, p, window_half=3, weight_sigma=2.0)
            assert t.a11 >= 0 and t.a22 >= 0
            assert t.a11 * t.a22 - t.a12 ** 2 >= -1e-6 * (t.a11 + t.a22) ** 2
            tr = t.a11 + t.a22
            disc = math.hypot(t.a11 - t.a22, 2 * t.a12)
            lam2 = (tr - disc) / 2
            assert lam2 >= -1e-9


class TestTensorOrientation:
    def test_rank_one(self):
        theta, coh = tensor_orientation(StructureTensor(9.0, 0.0, 0.0))
        assert theta == 0.0 and coh == 1.0

    def test_isotropic(self):
        theta, coh = tensor_orientation(StructureTensor(3.0, 0.0, 3.0))
        assert coh == 0.0

    def test_zero_tensor(self):
        _, coh = tensor_orientation(StructureTensor(0.0, 0.0, 0.0))
        assert coh == 0.0

    def test_scaling_invariance(self):
        t = StructureTensor(5.0, 1.25, 2.5)
        base = tensor_orientation(t)[0]
        for c in (2.0, 0.5, 4.0):
            scaled = StructureTensor(c * t.a11, c * t.a12, c * t.a22)
            assert tensor_orientation(scaled)[0] == base

    def test_matches_eigendecomposition_oracle(self):
        img, _ = sinusoid(30)
        grad = gradient(img)
        for p in (rf.Point(30, 30), rf.Point(25, 38), rf.Point(40, 22)):
            t = second_moment_matrix(grad, p, window_half=8, weight_sigma=4.0)
            theta, coh = tensor_orientation(t)
            w, v = np.linalg.eigh(np.array([[t.a11, t.a12], [t.a12, t.a22]]))
            dominant = v[:, int(np.argmax(w))]
            want = math.atan2(dominant[1], dominant[0]) % math.pi
            assert float(rf.angular_distance(theta, want)) <= 1e-9
            assert coh == pytest.approx((w[1] - w[0]) / (w[1] + w[0]), abs=1e-12)
            # gradients run across the 30-degree ridges
            assert float(rf.angular_distance(theta, math.radians(120))) < 0.05


class TestGradientFlowField:
    def test_vertical_stripes_report_vertical_ridges(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.pi / 2, period=8.0)
        img, _ = rf.generate(spec)
        flow = rf.compute_flow_field_gradient(img)
        inner = rf.interior_site_mask(flow, 64, 64, 16)
        sel = flow.valid & inner
        assert sel.any()
        assert float(rf.angular_distance(flow.angles[sel], math.pi / 2).max()) < 1e-6

    def test_constant_image_all_invalid(self):
        flow = rf.compute_flow_field_gradient(rf.GrayImage(np.full((64, 64), 80, dtype=np.int64)))
        assert not flow.valid.any()

    @pytest.mark.parametrize("kw", [{"gradient_window_half": -1}, {"gradient_weight_sigma": 0.0},
                                    {"gradient_weight_sigma": -1.0}, {"gradient_weight_sigma": math.nan},
                                    {"gradient_weight_sigma": 1e-200}])
    def test_rejects_bad_window_parameters(self, kw):
        img, _ = sinusoid(30)
        with pytest.raises(ValueError, match="gradient"):
            rf.compute_flow_field_gradient(img, rf.FlowConfig(**kw))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coherence_threshold(self, value):
        img, _ = sinusoid(30)
        with pytest.raises(ValueError, match="coherence_threshold must be finite"):
            rf.compute_flow_field_gradient(img, rf.FlowConfig(coherence_threshold=value))

    def test_tiny_weight_sigma_keeps_only_the_centre_tap(self):
        # 2 sigma^2 is subnormal: every off-centre exponent overflows to -inf, a weight of exactly 0
        img, _ = rf.generate(rf.SyntheticSpec(width=40, height=36, pattern="concentric", noise_sigma=20.0, rng_seed=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tiny = rf.compute_flow_field_gradient(img, rf.FlowConfig(gradient_weight_sigma=1e-160))
        centre = rf.compute_flow_field_gradient(img, rf.FlowConfig(gradient_window_half=0))
        assert tiny.valid.any()
        assert tiny.angles.tobytes() == centre.angles.tobytes()
        assert tiny.valid.tobytes() == centre.valid.tobytes()
        assert tiny.coherence.tobytes() == centre.coherence.tobytes()

    @pytest.mark.parametrize("weight_sigma", [4.0, None, 30.0])
    def test_window_is_capped_at_the_image_size(self, monkeypatch, weight_sigma):
        img, _ = rf.generate(rf.SyntheticSpec(width=24, height=20, pattern="concentric", noise_sigma=20.0, rng_seed=3))
        cap = max(img.width, img.height) - 1
        # weights past the borders multiply only the zero padding, so the capped window gives the same bytes
        grad = gradient(img)
        for stride in (1, 2):
            capped = _tensor_sums(img.pixels, _window_weights(cap, weight_sigma), stride)
            full = _tensor_sums(img.pixels, _window_weights(cap + 5, weight_sigma), stride)
            assert capped.tobytes() == full.tobytes()
            want = reference_tensor_sums(grad, _window_weights(cap, weight_sigma), stride)
            assert [c.tobytes() for c in capped] == [r.tobytes() for r in want]

        shapes = []

        def recording(pixels, kernel, stride):
            shapes.append(kernel.shape)
            return _tensor_sums(pixels, kernel, stride)

        monkeypatch.setattr(rgradient, "_tensor_sums", recording)
        flows = [rf.compute_flow_field_gradient(img, rf.FlowConfig(gradient_window_half=h,
                                                                   gradient_weight_sigma=weight_sigma))
                 for h in (cap, cap + 5, 3 * (cap + 1))]
        assert set(shapes) == {(2 * cap + 1, 2 * cap + 1)}
        for flow in flows[1:]:
            assert flow.angles.tobytes() == flows[0].angles.tobytes()
            assert flow.valid.tobytes() == flows[0].valid.tobytes()
            assert flow.coherence.tobytes() == flows[0].coherence.tobytes()

    def test_stride_past_the_window_builds_only_the_phases_it_reads(self):
        # a window of side 2c + 1 reads at most 2c + 1 stride phases per axis; all
        # stride x stride planes took 0.74 s and 190 MiB of RSS at stride 1000
        img, _ = rf.generate(rf.SyntheticSpec(width=32, height=32, pattern="concentric", noise_sigma=20.0, rng_seed=3))
        want = rf.compute_flow_field_gradient(img, rf.FlowConfig(stride=32))
        tracemalloc.start()
        try:
            got = rf.compute_flow_field_gradient(img, rf.FlowConfig(stride=1000))
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mib <= 1.0  # about 0.08 MiB
        assert got.angles.tobytes() == want.angles.tobytes()
        assert got.valid.tobytes() == want.valid.tobytes()
        assert got.coherence.tobytes() == want.coherence.tobytes()

    def test_uniform_weights_allowed(self):
        img, _ = sinusoid(30)
        flow = rf.compute_flow_field_gradient(img, rf.FlowConfig(gradient_weight_sigma=None))
        assert flow.valid.any()

    def test_sinusoid_accuracy(self):
        img, truth = sinusoid(30)
        flow = rf.compute_flow_field_gradient(img)
        assert flow_mae(flow, truth, 64, 64) <= math.pi / 32

    def test_methods_agree_on_clean_patterns(self):
        for deg in (0, 30, 75, 120):
            img, truth = sinusoid(deg)
            proj = rf.compute_flow_field(img)
            grad = rf.compute_flow_field_gradient(img)
            sel = proj.valid & grad.valid & rf.interior_site_mask(proj, 64, 64, 16)
            d = rf.angular_distance(proj.angles[sel], grad.angles[sel])
            assert float(d.mean()) <= math.pi / 16

    def test_field_matches_scalar_ops(self):
        img, _ = sinusoid(30)
        flow = rf.compute_flow_field_gradient(img)
        grad = gradient(img)
        t = second_moment_matrix(grad, rf.Point(30, 30), window_half=8, weight_sigma=4.0)
        theta, coh = tensor_orientation(t)
        iy, ix = 15, 15  # site at (30, 30) with stride 2
        assert flow.angles[iy, ix] == pytest.approx((theta + math.pi / 2) % math.pi, abs=1e-9)
        assert flow.coherence[iy, ix] == pytest.approx(coh, abs=1e-9)

    def test_coherence_column_round_trips(self, tmp_path):
        img, _ = sinusoid(30)
        flow = rf.compute_flow_field_gradient(img)
        p = tmp_path / "g.csv"
        rf.save_flow_csv(flow, p)
        assert p.read_text().splitlines()[0] == "x,y,theta_radians,valid,coherence"
        back = rf.load_flow_csv(p)
        assert back.coherence is not None
        assert np.array_equal(back.coherence, flow.coherence.round(6))


class TestSiteWindowSums:
    """The banded window sums at the grid sites have the bytes of a
    full-resolution ``ndimage.convolve`` of the whole-image Sobel products,
    read at those sites."""

    @settings(max_examples=80, deadline=None)
    @given(height=st.integers(3, 70), width=st.integers(3, 67), stride=st.integers(1, 4),
           window_half=st.integers(0, 12),
           weight_sigma=st.one_of(st.none(), st.just(0.3), st.floats(1.0, 30.0)),
           flat_rows=st.integers(0, 70), seed=st.integers(0, 2**32 - 1))
    def test_match_the_convolution_at_the_sites(self, height, width, stride, window_half, weight_sigma,
                                                flat_rows, seed):
        px = np.random.default_rng(seed).integers(0, 256, size=(height, width))
        px[:flat_rows] = 128  # zero gradients, where taps at most epsilon would still show
        img = rf.GrayImage(px)
        # uncapped: the window may reach past the image on every side
        kernel = _window_weights(window_half, weight_sigma)
        got = _tensor_sums(img.pixels, kernel, stride)
        want = reference_tensor_sums(gradient(img), kernel, stride)
        assert [g.tobytes() for g in got] == [r.tobytes() for r in want]

        cfg = rf.FlowConfig(stride=stride, gradient_window_half=window_half, gradient_weight_sigma=weight_sigma)
        flow = rf.compute_flow_field_gradient(img, cfg)
        with mock.patch.object(rgradient, "_tensor_sums", reference_pixel_tensor_sums):
            want = rf.compute_flow_field_gradient(img, cfg)
        assert flow.angles.tobytes() == want.angles.tobytes()
        assert flow.valid.tobytes() == want.valid.tobytes()
        assert flow.coherence.tobytes() == want.coherence.tobytes()

    @pytest.mark.parametrize("weight, kept", [(1e-17, False), (3e-16, True)])
    def test_taps_at_most_epsilon_are_skipped_like_scipy(self, weight, kept):
        pixels = np.zeros((5, 5), dtype=np.uint8)
        pixels[2, 2] = 255  # Sobel gx = 2 * 255 / 8 at row 2, column 1, left of the bright pixel
        kernel = np.zeros((3, 3))
        kernel[1, 1] = weight
        got = _tensor_sums(pixels, kernel, 1)
        assert got.tobytes() == reference_pixel_tensor_sums(pixels, kernel, 1).tobytes()
        assert got[0, 2, 1] == (63.75 * 63.75 * weight if kept else 0.0)
        assert (got != 0).any() == kept
