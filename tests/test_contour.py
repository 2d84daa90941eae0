import math

import numpy as np
import pytest

import ridgeflow as rf
import ridgeflow.binarize as rbinarize
import ridgeflow.contour as rcontour
import ridgeflow.enhance as renhance
import ridgeflow.flowfield as rflowfield
import ridgeflow.pipeline as rpipeline

from oracles import (LineSegment, angle_at, binarize_pixel, binarize_pixel_contour, enhance_pixel,
                     enhance_pixel_contour, inner_pixel_mask, line_points, manual_bilinear)


def uniform_flow(theta=math.pi / 4, grid=16, stride=2):
    return rf.FlowField(np.full((grid, grid), theta), np.ones((grid, grid), dtype=bool), stride)


class TestTraceContour:
    def test_uniform_field_reduces_to_straight_line(self):
        flow = uniform_flow()
        p = rf.Point(14.0, 14.0)
        path = rf.trace_contour(flow, p, 5)
        assert len(path.points) == 11
        assert path.points[path.seed_index] == p
        want = line_points(LineSegment(p, math.pi / 4, 5, 1.0))
        for got, exp in zip(path.points, want):
            assert abs(got.x - exp.x) < 1e-9
            assert abs(got.y - exp.y) < 1e-9

    def test_unit_steps(self):
        flow = uniform_flow(theta=1.2)
        path = rf.trace_contour(flow, rf.Point(12.0, 14.0), 8)
        pts = np.array([[q.x, q.y] for q in path.points])
        steps = np.hypot(*np.diff(pts, axis=0).T)
        assert np.allclose(steps, 1.0, atol=1e-12)

    def test_no_direction_reversals(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="concentric", period=8.0)
        _, truth = rf.generate(spec)
        rng = np.random.RandomState(8)
        for _ in range(40):
            p = rf.Point(rng.uniform(16, 48), rng.uniform(16, 48))
            path = rf.trace_contour(truth, p, 9, bounds=(64, 64))
            pts = np.array([[q.x, q.y] for q in path.points])
            if len(pts) < 3:
                continue
            d = np.diff(pts, axis=0)
            dots = (d[:-1] * d[1:]).sum(axis=1)
            assert (dots >= -1e-9).all()

    def test_truncates_at_undefined_flow(self):
        angles = np.zeros((8, 8))
        valid = np.zeros((8, 8), dtype=bool)
        valid[:, :3] = True  # valid sites at x in {0, 2, 4}; interpolation reaches x < 6
        flow = rf.FlowField(angles, valid, 2)
        path = rf.trace_contour(flow, rf.Point(2.0, 6.0), 6)
        # forward tracing stops at x = 6 where the angle turns undefined
        assert len(path.points) < 13
        assert max(q.x for q in path.points) <= 6.0 + 1e-9

    def test_truncates_at_raster_bounds(self):
        flow = uniform_flow(theta=0.0, grid=8, stride=2)
        path = rf.trace_contour(flow, rf.Point(12.0, 6.0), 6, bounds=(14, 14))
        assert max(q.x for q in path.points) <= 13.0
        assert path.points[0].x == pytest.approx(6.0)  # backward side ran fully

    def test_follows_circles_on_concentric_truth(self):
        spec = rf.SyntheticSpec(width=128, height=128, pattern="concentric", period=8.0)
        _, truth = rf.generate(spec)
        c = 127 / 2.0
        for r0, phi in [(20, 0.3), (30, 1.2), (40, 2.6), (45, 4.1), (25, 5.7)]:
            p = rf.Point(c + r0 * math.cos(phi), c + r0 * math.sin(phi))
            path = rf.trace_contour(truth, p, 10, bounds=(128, 128))
            assert len(path.points) == 21
            seed_r = math.hypot(p.x - c, p.y - c)
            for q in path.points:
                assert abs(math.hypot(q.x - c, q.y - c) - seed_r) <= 1.5

    def test_rejects_bad_half_steps(self):
        with pytest.raises(ValueError):
            rf.trace_contour(uniform_flow(), rf.Point(5, 5), 0)

    def test_builds_one_lookup_table(self, monkeypatch):
        # the seed's lookup and every step read one table of the rows within half_steps of the seed
        built = []
        site_rows = rflowfield._site_rows
        monkeypatch.setattr(rflowfield, "_site_rows", lambda *args: built.append(args) or site_rows(*args))
        path = rf.trace_contour(uniform_flow(), rf.Point(14.0, 14.0), 5)
        assert len(path.points) == 11 and len(built) == 1
        for y in (math.nan, math.inf, -math.inf, 1e300):
            built.clear()
            path = rf.trace_contour(uniform_flow(), rf.Point(14.0, y), 5)
            assert len(path.points) == 1 and path.seed_index == 0 and len(built) == 1


class TestContourOps:
    def test_uniform_field_matches_linear_binarize(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.pi / 4, period=8.0)
        img, _ = rf.generate(spec)
        flow = uniform_flow(math.pi / 4, grid=32, stride=2)
        rng = np.random.RandomState(6)
        for _ in range(60):
            p = rf.Point(float(rng.randint(12, 52)), float(rng.randint(12, 52)))
            got = binarize_pixel_contour(img, p, flow)
            want = binarize_pixel(img, p, math.pi / 4)
            assert got == want

    def test_uniform_field_matches_linear_enhance(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.pi / 4, period=8.0, noise_sigma=15.0, rng_seed=2)
        img, _ = rf.generate(spec)
        flow = uniform_flow(math.pi / 4, grid=32, stride=2)
        binary = rf.binarize_image(img, flow)
        for x, y in ((20, 20), (31, 41), (45, 27)):
            got = enhance_pixel_contour(img, binary, rf.Point(x, y), flow)
            want = enhance_pixel(img, binary, rf.Point(x, y), math.pi / 4)
            assert got == pytest.approx(want, abs=1e-9)

    def test_constant_image(self):
        img = rf.GrayImage(np.full((48, 48), 99, dtype=np.int64))
        flow = uniform_flow(0.9, grid=24, stride=2)
        binary = rf.BinaryImage(np.ones((48, 48), dtype=np.int64))
        assert binarize_pixel_contour(img, rf.Point(24, 24), flow) == 1
        assert enhance_pixel_contour(img, binary, rf.Point(24, 24), flow) == pytest.approx(99.0, abs=1e-12)

    @pytest.mark.parametrize("path", ["linear", "contour"])
    def test_image_ops_match_pixel_ops(self, path):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0, noise_sigma=10.0, rng_seed=11)
        img, _ = rf.generate(spec)
        flow = rf.compute_flow_field(img)
        if path == "contour":
            binary = rf.binarize_image_contour(img, flow)
            enhanced = rf.contour_enhance_values(img, binary, flow)
            bit_at = lambda p: binarize_pixel_contour(img, p, flow)
            value_at = lambda p: enhance_pixel_contour(img, binary, p, flow)
        else:
            binary = rf.binarize_image(img, flow)
            enhanced = rf.enhance_values(img, binary, flow)
            bit_at = lambda p: binarize_pixel(img, p, angle_at(flow, p))
            value_at = lambda p: enhance_pixel(img, binary, p, angle_at(flow, p))
        rng = np.random.RandomState(5)
        for _ in range(30):
            x = int(rng.randint(10, 54))
            y = int(rng.randint(10, 54))
            assert binary.bits[y, x] == bit_at(rf.Point(x, y))
            # pixel and image sums run in different orders (about 1e-13 apart)
            assert enhanced[y, x] == pytest.approx(value_at(rf.Point(x, y)), abs=1e-9)

    def test_samples_end_where_the_contour_stops(self):
        # the orientation is defined only for x < 6, so the contour through
        # (4, 8) stops at x = 6; the steps past the stop (x = 7) do not count
        pixels = np.full((16, 16), 30, dtype=np.int64)
        pixels[8, :7] = 0
        pixels[8, 7] = 255
        img = rf.GrayImage(pixels)
        valid = np.zeros((8, 8), dtype=bool)
        valid[:, :3] = True
        flow = rf.FlowField(np.zeros((8, 8)), valid, 2)
        p = rf.Point(4.0, 8.0)
        assert [q.x for q in rf.trace_contour(flow, p, 4, bounds=(16, 16)).points] == [0, 1, 2, 3, 4, 5, 6]
        assert binarize_pixel_contour(img, p, flow) == 0
        assert rf.binarize_image_contour(img, flow).bits[8, 4] == 0
        ones = rf.BinaryImage(np.ones((16, 16), dtype=np.int64))
        cfg = rf.EnhanceConfig(gaussian_sigma=2.0, kernel_half_length=4)
        assert enhance_pixel_contour(img, ones, p, flow, cfg) == 0.0
        assert rf.contour_enhance_values(img, ones, flow, cfg)[8, 4] == 0.0

    @staticmethod
    def _run_counting(monkeypatch, name, stage):
        """Points per pixel that ``stage`` passes to ``name`` on a 64x64 image."""
        spec = rf.SyntheticSpec(width=64, height=64, pattern="concentric", period=8.0)
        img, flow = rf.generate(spec)
        binary = rf.binarize_image(img, flow)
        real = getattr(rbinarize, name)
        points = []

        def counting(*args):
            points.append(np.size(args[1]))  # the xs of (flow or raster, xs, ys)
            return real(*args)

        # every module that might call it; one that does not bind it gains an unused name
        for module in (rbinarize, renhance, rcontour, rpipeline):
            monkeypatch.setattr(module, name, counting, raising=False)
        if stage.endswith("iteration"):
            # the iteration stage after the flow: binarize and enhance
            monkeypatch.setattr(rpipeline, "_flow_for", lambda image, cfg: flow)
            rf.run_iteration(img, rf.PipelineConfig(path_mode=stage.split()[0]))
        elif stage in ("binarize_image", "binarize_image_contour"):
            getattr(rf, stage)(img, flow)
        else:
            getattr(rf, stage)(img, binary, flow)
        return sum(points) / (64 * 64)

    @pytest.mark.parametrize("stage, lookups_per_pixel", [
        ("binarize_image", 1),
        ("enhance_values", 1),
        ("binarize_image_contour", 7),  # the seed, then 2 * (4 - 1) steps
        ("contour_enhance_values", 17),  # the seed, then 2 * (9 - 1) steps
        ("linear iteration", 1),  # binarize and enhance share each band's lookup
        ("contour iteration", 17),  # one trace to max(4, 9) serves both
    ])
    def test_orientation_lookups_per_pixel(self, monkeypatch, stage, lookups_per_pixel):
        assert self._run_counting(monkeypatch, "angles_at", stage) == lookups_per_pixel

    @pytest.mark.parametrize("stage, samples_per_pixel", [
        ("binarize_image", 18),  # 2 * 4 + 1 along and as many across
        ("enhance_values", 19),  # 2 * 9 + 1 along
        ("binarize_image_contour", 18),
        ("contour_enhance_values", 19),
        ("linear iteration", 28),  # the along taps are shared: 19 + 9 across
        ("contour iteration", 28),
    ])
    def test_bilinear_samples_per_pixel(self, monkeypatch, stage, samples_per_pixel):
        assert self._run_counting(monkeypatch, "bilinear_many", stage) == samples_per_pixel

    def test_contour_enhancement_close_to_linear_on_straight_ridges(self):
        spec = rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        flow = rf.compute_flow_field(img)
        binary = rf.binarize_image(img, flow)
        lin = rf.enhance_values(img, binary, flow)
        con = rf.contour_enhance_values(img, binary, flow)
        inner = inner_pixel_mask(128, 128)
        assert (np.abs(lin - con)[inner] < 1.0).mean() >= 0.95

    def test_contour_beats_linear_on_high_curvature(self):
        spec = rf.SyntheticSpec(width=128, height=128, pattern="concentric",
                                period=8.0, noise_sigma=25.0, rng_seed=3)
        img, truth = rf.generate(spec)
        binary = rf.binarize_image(img, truth)
        lin = rf.enhance_values(img, binary, truth)
        con = rf.contour_enhance_values(img, binary, truth)

        # tangential variance probed bilinearly along exact ridge circles
        # (cos(2 pi r / 8) = -1 at r = 12, 20), where straight kernels bend off
        c = 127 / 2.0

        def circle_var(values, r, phi):
            ts = np.linspace(-9.0 / r, 9.0 / r, 19)
            px = c + r * np.cos(phi + ts)
            py = c + r * np.sin(phi + ts)
            vals = [manual_bilinear(values, x, y) for x, y in zip(px, py)]
            return np.var(vals)

        rng = np.random.RandomState(12)
        lin_var = []
        con_var = []
        for _ in range(150):
            r = float(rng.choice([12.0, 20.0]))
            phi = rng.uniform(0, 2 * math.pi)
            lin_var.append(circle_var(lin, r, phi))
            con_var.append(circle_var(con, r, phi))
        assert np.mean(con_var) <= np.mean(lin_var)
