import math

import numpy as np
import pytest

import ridgeflow as rf
from ridgeflow.projection import _STAT_OFFSET

from oracles import (
    DirectDeviationEvaluator,
    angle_at,
    dominant_orientation,
    flow_mae,
    mean_perpendicular_deviation,
    perpendicular_deviation,
    reference_flow_field,
    rotate_image,
    two_pass_std,
)


def constant_image(value=77, size=48):
    return rf.GrayImage(np.full((size, size), value, dtype=np.int64))


def vertical_stripes(size=48, period=8):
    x = np.arange(size)
    row = (127.5 + 127 * np.cos(2 * math.pi * x / period)).round().astype(np.int64)
    return rf.GrayImage(np.tile(row, (size, 1)))


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = rf.FlowConfig()
        assert len(cfg.coarse_angles()) == 8
        assert [round(o / (math.pi / 32)) for o in cfg.fine_offsets()] == [-2, -1, 0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            rf.FlowConfig(coarse_step=1.0)  # does not divide pi
        with pytest.raises(ValueError):
            rf.FlowConfig(fine_step=math.pi / 4)  # larger than coarse
        with pytest.raises(ValueError):
            rf.FlowConfig(stride=0)
        with pytest.raises(ValueError):
            rf.FlowConfig(fine_half_range=math.pi / 2)

    def test_stride_must_fit_int64(self):
        # numpy holds the grid's coordinates in int64: np.arange(0, w, 10**20) is an object array
        for stride in (2**63, 10**20, np.uint64(2**63)):
            with pytest.raises(ValueError, match=f"^stride {stride} puts grid sites past the int64 range$"):
                rf.FlowConfig(stride=stride)
        img, _ = rf.generate(rf.SyntheticSpec(width=32, height=32, noise_sigma=20.0, rng_seed=2))
        for method in (rf.compute_flow_field, rf.compute_flow_field_gradient):
            flow = method(img, rf.FlowConfig(stride=2**63 - 1))
            assert flow.angles.shape == (1, 1) and flow.site_xs().tolist() == [0]

    @pytest.mark.parametrize("name", ["coarse_step", "fine_step", "fine_half_range", "background_variance_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_setting_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rf.FlowConfig(**{name: value})


class TestPerpendicularDeviation:
    def test_constant_image_is_zero(self):
        img = constant_image()
        for alpha in (0.0, 0.4, math.pi / 2, 2.5):
            assert perpendicular_deviation(img, rf.Point(24, 24), alpha) == 0.0

    def test_stripes_along_perpendicular_are_zero(self):
        img = vertical_stripes()
        # alpha=0: the perpendicular runs vertically, where I(x, y) = f(x) is constant
        assert perpendicular_deviation(img, rf.Point(24, 24), 0.0) == 0.0

    def test_min_rule_never_exceeds_full_segment(self):
        rng = np.random.RandomState(21)
        img = rf.GrayImage(rng.randint(0, 256, size=(48, 48)).astype(np.int64))
        cfg_min = rf.FlowConfig()
        cfg_full = rf.FlowConfig(use_half_line_rule=False)
        for _ in range(300):
            q = rf.Point(rng.uniform(2, 45), rng.uniform(2, 45))
            alpha = rng.uniform(0, math.pi)
            full = perpendicular_deviation(img, q, alpha, cfg_full)
            minimum = perpendicular_deviation(img, q, alpha, cfg_min)
            if full is not None:
                assert minimum <= full + 1e-12

    def test_ridge_ending_uses_on_ridge_half(self):
        # horizontal stripes on the left half, flat on the right; q sits on a
        # dark ridge two pixels before the boundary, perpendicular along the ridge
        spec = rf.SyntheticSpec(width=64, height=64, pattern="half_plane_stripe", period=8.0)
        img, _ = rf.generate(spec)
        cfg = rf.FlowConfig()
        q = rf.Point(30.0, 28.0)
        alpha = math.pi / 2  # perpendicular of alpha runs along x, i.e. along the ridge

        # oracle: rebuild the three sample sets at the library's sampling offset
        f = img.as_float()

        def samples(j_range):
            vals = []
            for j in j_range:
                x = q.x - j * math.sin(alpha) + _STAT_OFFSET
                y = q.y + j * math.cos(alpha) + _STAT_OFFSET
                x0, y0 = int(math.floor(x)), int(math.floor(y))
                fx, fy = x - x0, y - y0
                vals.append(
                    f[y0, x0] * (1 - fx) * (1 - fy)
                    + f[y0, x0 + 1] * fx * (1 - fy)
                    + f[y0 + 1, x0] * (1 - fx) * fy
                    + f[y0 + 1, x0 + 1] * fx * fy
                )
            return vals

        s = cfg.perp_half_length
        sig_full = two_pass_std(samples(range(-s, s + 1)))
        sig_lo = two_pass_std(samples(range(-s, 1)))
        sig_hi = two_pass_std(samples(range(0, s + 1)))
        want = min(sig_full, sig_lo, sig_hi)

        got = perpendicular_deviation(img, q, alpha, cfg)
        got_full = perpendicular_deviation(img, q, alpha, rf.FlowConfig(use_half_line_rule=False))
        assert got == pytest.approx(want, abs=1e-9)
        assert got <= got_full
        assert got_full == pytest.approx(sig_full, abs=1e-9)
        # the half that stays on the stripes is flat, the full line is not
        assert got < 1.0 < got_full

    def test_undefined_when_everything_out_of_bounds(self):
        img = constant_image(size=48)
        assert perpendicular_deviation(img, rf.Point(-30, -30), 0.3) is None

    def test_undefined_at_non_finite_point(self):
        img = constant_image(size=48)
        assert perpendicular_deviation(img, rf.Point(math.nan, 24.0), 0.3) is None
        assert perpendicular_deviation(img, rf.Point(24.0, math.inf), 0.3) is None


class TestMeanDeviation:
    def test_constant_image(self):
        img = constant_image()
        for alpha in (0.0, 1.0, 3.0):
            assert mean_perpendicular_deviation(img, rf.Point(24, 24), alpha) == 0.0

    def test_stripes(self):
        img = vertical_stripes()
        p = rf.Point(24, 24)
        assert mean_perpendicular_deviation(img, p, 0.0) == 0.0
        assert mean_perpendicular_deviation(img, p, math.pi / 2) > 10.0

    def test_dual_path_agreement_at_optimal_angle(self):
        spec = rf.SyntheticSpec(width=32, height=32, pattern="parallel",
                                orientation=math.radians(60), period=8.0)
        img, _ = rf.generate(spec)
        cfg = rf.FlowConfig()
        p = rf.Point(15.5, 15.5)
        alpha = (math.radians(60) - math.pi / 2) % math.pi
        direct = mean_perpendicular_deviation(img, p, alpha, cfg)
        fast = float(
            rf.RotatedDeviationEvaluator(img, cfg).mean_deviation(alpha, np.array([p.x]), np.array([p.y]))[0]
        )
        assert abs(direct - fast) <= 2.0


class TestDominantOrientation:
    def test_vertical_stripes_give_vertical_ridges(self):
        img = vertical_stripes()
        theta = dominant_orientation(img, rf.Point(24, 24))
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_constant_image_tie_breaks_to_first_angle(self):
        theta = dominant_orientation(constant_image(), rf.Point(24, 24))
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)  # alpha=0 wins the tie

    def test_against_exhaustive_fine_grid_oracle(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        cfg = rf.FlowConfig()
        p = rf.Point(31, 31)
        theta = dominant_orientation(img, p, cfg)
        assert float(rf.angular_distance(theta, math.radians(30))) <= math.pi / 32

        mus = [
            (mean_perpendicular_deviation(img, p, k * math.pi / 64, cfg), k * math.pi / 64)
            for k in range(64)
        ]
        best_alpha = min(mus, key=lambda t: t[0])[1]
        oracle_theta = (best_alpha + math.pi / 2) % math.pi
        assert float(rf.angular_distance(theta, oracle_theta)) <= math.pi / 32

    def test_undefined_far_outside(self):
        assert dominant_orientation(constant_image(), rf.Point(-200, -200)) is None


class TestFlowField:
    def test_constant_image_all_background(self):
        flow = rf.compute_flow_field(constant_image(size=64))
        assert not flow.valid.any()

    def test_grid_shape_counts(self):
        img, _ = rf.generate(rf.SyntheticSpec(width=65, height=64, pattern="parallel",
                                              orientation=0.4, period=8.0))
        flow = rf.compute_flow_field(img)
        assert (flow.grid_width, flow.grid_height) == (33, 32)

    def test_too_small_image_names_minimum(self):
        img = constant_image(size=24)
        with pytest.raises(ValueError, match="32x32"):
            rf.compute_flow_field(img)

    def test_sinusoid_accuracy(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, truth = rf.generate(spec)
        flow = rf.compute_flow_field(img)
        assert flow_mae(flow, truth, 64, 64) <= math.pi / 32

    def test_fast_path_matches_direct_path(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        fast = rf.compute_flow_field(img)
        slow = reference_flow_field(img, rf.FlowConfig(), evaluator=DirectDeviationEvaluator)
        both = fast.valid & slow.valid & rf.interior_site_mask(fast, 64, 64, 16)
        assert (fast.angles[both] == slow.angles[both]).mean() >= 0.95

    def test_affine_intensity_invariance_is_exact(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(40), period=8.0,
                                amplitude=60.0, offset=63.5)
        img, _ = rf.generate(spec)
        base = rf.compute_flow_field(img)
        for a, b in ((2, 0), (2, 3)):
            remapped = rf.GrayImage(img.pixels.astype(np.int64) * a + b)
            flow = rf.compute_flow_field(remapped)
            assert np.array_equal(base.angles, flow.angles)
            assert np.array_equal(base.valid, flow.valid)

    def test_quarter_turn_equivariance(self):
        from ridgeflow.image import rotate_raster

        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        rotated, _ = rotate_image(img, math.pi / 2)
        rr = rotate_raster(img.as_float(), math.pi / 2)
        cfg = rf.FlowConfig()
        for x, y in [(31, 31), (26, 35), (36, 27)]:
            ta = dominant_orientation(img, rf.Point(x, y), cfg)
            bx, by = rr.frame.to_rotated(np.array([float(x)]), np.array([float(y)]))
            tb = dominant_orientation(rotated, rf.Point(float(bx[0]), float(by[0])), cfg)
            assert float(rf.angular_distance((ta + math.pi / 2) % math.pi, tb)) <= cfg.fine_step

    def test_coarse_to_fine_matches_exhaustive_grid(self):
        spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                orientation=math.radians(30), period=8.0)
        img, _ = rf.generate(spec)
        cfg = rf.FlowConfig()
        flow = rf.compute_flow_field(img, cfg)
        ev = rf.RotatedDeviationEvaluator(img, cfg)
        ys, xs = np.nonzero(flow.valid)
        px = xs.astype(np.float64) * cfg.stride
        py = ys.astype(np.float64) * cfg.stride
        grid = np.arange(32) * math.pi / 32
        mu = np.stack([
            np.where(np.isnan(m), np.inf, m)
            for m in (ev.mean_deviation(float(a), px, py) for a in grid)
        ])
        exhaustive = (grid[np.argmin(mu, axis=0)] + math.pi / 2) % math.pi
        d = rf.angular_distance(flow.angles[flow.valid], exhaustive)
        assert (d <= math.pi / 32 + 1e-12).mean() >= 0.90

    def test_speedup_grid_is_quarter_of_pixels(self):
        img, _ = rf.generate(rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                                              orientation=0.7, period=8.0))
        flow = rf.compute_flow_field(img)
        assert flow.grid_width * flow.grid_height * 4 == 128 * 128


class TestAngleInterpolation:
    def test_on_site_returns_site_angle(self):
        angles = np.array([[0.3, 1.1], [2.0, 0.9]])
        flow = rf.FlowField(angles, np.ones((2, 2), dtype=bool), 2)
        assert angle_at(flow, rf.Point(0, 0)) == pytest.approx(0.3, abs=1e-12)
        assert angle_at(flow, rf.Point(2, 2)) == pytest.approx(0.9, abs=1e-12)

    def test_constant_field_everywhere(self):
        flow = rf.FlowField(np.full((3, 3), math.pi / 4), np.ones((3, 3), dtype=bool), 2)
        for x, y in [(1.3, 0.2), (2.0, 2.0), (3.7, 1.1)]:
            assert angle_at(flow, rf.Point(x, y)) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_pi_periodic_seam(self):
        near_pi = math.pi - 0.01
        flow = rf.FlowField(np.array([[0.0, near_pi], [0.0, near_pi]]),
                            np.ones((2, 2), dtype=bool), 2)
        theta = angle_at(flow, rf.Point(1.0, 1.0))
        # doubled-angle oracle: mean of unit vectors at 0, 0, 2pi-.02, 2pi-.02
        vx = (2 + 2 * math.cos(2 * near_pi)) / 4
        vy = (2 * math.sin(2 * near_pi)) / 4
        want = (0.5 * math.atan2(vy, vx)) % math.pi
        assert theta == pytest.approx(want, abs=1e-12)
        assert float(rf.angular_distance(theta, math.pi / 2)) > 1.0  # nowhere near the naive mean

    def test_invalid_neighbors_renormalize(self):
        angles = np.array([[0.7, 0.0], [0.7, 0.0]])
        valid = np.array([[True, False], [True, False]])
        flow = rf.FlowField(angles, valid, 2)
        assert angle_at(flow, rf.Point(1.0, 1.0)) == pytest.approx(0.7, abs=1e-12)

    def test_all_invalid_is_undefined(self):
        flow = rf.FlowField(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), 2)
        assert angle_at(flow, rf.Point(1.0, 1.0)) is None

    def test_opposing_vectors_cancel_to_undefined(self):
        angles = np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]])
        flow = rf.FlowField(angles, np.ones((2, 2), dtype=bool), 2)
        assert angle_at(flow, rf.Point(1.0, 1.0)) is None


_HEADER = "x,y,theta_radians,valid\n"


class TestFlowCsv:
    def test_round_trip_exact(self, tmp_path):
        img, _ = rf.generate(rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                                              orientation=1.1, period=8.0))
        flow = rf.compute_flow_field(img)
        p = tmp_path / "f.csv"
        rf.save_flow_csv(flow, p)
        back = rf.load_flow_csv(p)
        assert np.array_equal(back.valid, flow.valid)
        assert np.array_equal(back.angles, np.where(flow.valid, flow.angles.round(6), 0.0))
        assert back.stride == flow.stride
        p2 = tmp_path / "g.csv"
        rf.save_flow_csv(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_angle_just_below_pi_round_trips(self, tmp_path):
        # these print as 3.141593 at 6 decimals, which is >= pi: they are written as 0
        wrap = [math.nextafter(math.pi, 0.0), math.pi - 1e-7, math.pi - 1.5e-7]
        keep = [math.pi - 2e-7, math.pi - 5e-7, 1.0]
        angles = np.array([wrap + keep])
        p = tmp_path / "f.csv"
        rf.save_flow_csv(rf.FlowField(angles, np.ones(angles.shape, dtype=bool), 2), p)
        back = rf.load_flow_csv(p)
        assert back.angles.tolist() == [[0.0, 0.0, 0.0, 3.141592, 3.141592, 1.0]]
        assert rf.angular_distance(back.angles, angles).max() < 5e-7

    def test_header(self, tmp_path):
        flow = rf.FlowField(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), 2)
        p = tmp_path / "f.csv"
        rf.save_flow_csv(flow, p)
        assert p.read_text().splitlines()[0] == "x,y,theta_radians,valid"

    @pytest.mark.parametrize("row", ["2,0,0.1", "2,0", "2,0,abc,1", "2,0,0.1,1.0", "2,nan,0.1,1", "inf,0,0.1,1"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        p = tmp_path / "f.csv"
        p.write_text("x,y,theta_radians,valid\n0,0,0.1,1\n" + row + "\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"f\.csv:3: malformed row"):
            rf.load_flow_csv(p)

    def test_short_coherence_row_is_malformed(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y,theta_radians,valid,coherence\n0,0,0.1,1,0.5\n2,0,0.1,1\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"f\.csv:3: malformed row"):
            rf.load_flow_csv(p)

    @pytest.mark.parametrize("flag", ["7", "-1", "2"])
    def test_valid_other_than_zero_or_one_names_file_and_line(self, tmp_path, flag):
        p = tmp_path / "f.csv"
        p.write_text(f"x,y,theta_radians,valid\n0,0,0.1,1\n2,0,0.1,{flag}\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"f\.csv:3: malformed row .*valid must be 0 or 1"):
            rf.load_flow_csv(p)

    @pytest.mark.parametrize("coh", ["nan", "inf", "-0.5", "1.5"])
    def test_bad_coherence_in_csv_names_file(self, tmp_path, coh):
        p = tmp_path / "f.csv"
        p.write_text(f"x,y,theta_radians,valid,coherence\n0,0,0.1,1,{coh}\n2,0,0.1,0,0.5\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"f\.csv: coherence must be finite and lie in \[0, 1\]"):
            rf.load_flow_csv(p)

    def test_nan_angle_in_csv_names_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y,theta_radians,valid\n0,0,nan,1\n2,0,0.1,1\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"f\.csv: valid angles must be finite"):
            rf.load_flow_csv(p)

    @pytest.mark.parametrize("body, line", [
        ("0,0,0.1,1\n2,0,0.1,1\n5,0,0.1,1\n", 4),  # x values {0, 2, 5}
        ("0,0,0.1,1\n0,2,0.2,1\n2,0,0.3,1\n2,2,0.4,1\n", 3),  # column-major rows
        ("0,0,0.1,1\n2,0,0.1,1\n0,3,0.1,1\n2,3,0.1,1\n", 4),  # y spacing 3, x spacing 2
    ], ids=["uneven-x", "column-major", "y-spacing-differs"])
    def test_misplaced_site_names_file_and_line(self, tmp_path, body, line):
        p = tmp_path / "f.csv"
        p.write_text("x,y,theta_radians,valid\n" + body, encoding="ascii")
        with pytest.raises(ValueError, match=rf"f\.csv:{line}: site .* row-major order"):
            rf.load_flow_csv(p)

    def test_header_only_csv_names_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,y,theta_radians,valid\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"f\.csv: no sites"):
            rf.load_flow_csv(p)

    # every message of the reader, after its path and, where a row is at fault, the line
    @pytest.mark.parametrize("text, message", [
        ("", ": empty flow CSV"),
        ("x,y,theta,valid\n0,0,0.1,1\n", ": unexpected flow CSV header 'x,y,theta,valid'"),
        (_HEADER + "0,0,0.1,1\n2,0,0.1\n", ":3: malformed row '2,0,0.1' (expected 4 fields)"),
        ("x,y,theta_radians,valid,coherence\n0,0,0.1,1,0.5\n2,0,0.1,1\n",
         ":3: malformed row '2,0,0.1,1' (expected 5 fields)"),
        (_HEADER + "0,0,0.1,1\n2,0,abc,1\n",
         ":3: malformed row '2,0,abc,1' (could not convert string to float: 'abc')"),
        (_HEADER + "0,0,0.1,1\n2,inf,0.1,1\n", ":3: malformed row '2,inf,0.1,1' (site coordinates must be finite)"),
        (_HEADER + "0,0,0.1,1\n2,0,0.1,2\n", ":3: malformed row '2,0,0.1,2' (valid must be 0 or 1, not 2)"),
        (_HEADER + "\n\n", ": no sites"),
        (_HEADER + "0,0,0.1,1\n2,0,0.1,1\n0,2,0.1,1\n", ": sites do not form a complete grid"),
        (_HEADER + "0,0,0.1,1\n1.5,0,0.1,1\n", ": non-integer grid stride 1.5"),
        (_HEADER + "0,0,0.1,1\n0,2,0.2,1\n2,0,0.3,1\n2,2,0.4,1\n",
         ":3: site (0, 2) should be (2, 0); rows must list the grid from (0, 0) with stride 2 in row-major order"),
        (_HEADER + "0,0,nan,1\n2,0,0.1,1\n", ": valid angles must be finite and lie in [0, pi)"),
        (_HEADER + "0,0,0,0\n0,1e93,1,1\n", f": stride {int(1e93)} puts grid sites past the int64 range"),
        (_HEADER + "-1.7e308,0,0,0\n1.7e308,0,1,1\n", ": non-integer grid stride inf"),
    ], ids=["empty", "header", "too-few-fields", "too-few-with-coherence", "unreadable-number", "non-finite-site",
            "valid-not-0-or-1", "no-sites", "incomplete-grid", "non-integer-stride", "misplaced-site",
            "flow-field-error", "stride-past-int64", "spacing-past-float64"])
    def test_each_error_message(self, tmp_path, text, message):
        p = tmp_path / "f.csv"
        p.write_text(text, encoding="ascii")
        with pytest.raises(ValueError) as err:
            rf.load_flow_csv(p)
        assert str(err.value) == f"{p}{message}"


class TestFlowFieldContract:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, math.pi, -0.1])
    def test_valid_angle_outside_range_or_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="valid angles must be finite"):
            rf.FlowField(np.array([[bad, 0.1]]), np.array([[True, True]]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9, 1.0 + 1e-9])
    def test_coherence_outside_unit_interval_or_non_finite_rejected(self, bad):
        # checked at invalid sites too: the CSV writes coherence for every site
        with pytest.raises(ValueError, match=r"coherence must be finite and lie in \[0, 1\]"):
            rf.FlowField(np.zeros((1, 2)), np.array([[False, True]]), 2, coherence=np.array([[bad, 0.5]]))

    def test_coherence_bounds_are_inclusive(self):
        flow = rf.FlowField(np.zeros((1, 2)), np.ones((1, 2), dtype=bool), 2, coherence=np.array([[0.0, 1.0]]))
        assert flow.coherence.tolist() == [[0.0, 1.0]]

    def test_site_coordinates_must_fit_int64(self):
        top = np.iinfo(np.int64).max
        flow = rf.FlowField(np.zeros((1, 3)), np.ones((1, 3), dtype=bool), top // 2)
        assert flow.site_xs().tolist() == [0, top // 2, top - 1]
        # a one-site grid's stride must fit too: it is the next site's coordinate
        for shape, stride in (((1, 3), top // 2 + 1), ((3, 1), top // 2 + 1), ((1, 1), top + 1)):
            with pytest.raises(ValueError, match=f"^stride {stride} puts grid sites past the int64 range$"):
                rf.FlowField(np.zeros(shape), np.ones(shape, dtype=bool), stride)

    def test_non_finite_angle_at_invalid_site_is_zeroed(self):
        flow = rf.FlowField(np.array([[np.nan, 0.1]]), np.array([[False, True]]), 2)
        assert flow.angles.tolist() == [[0.0, 0.1]]
