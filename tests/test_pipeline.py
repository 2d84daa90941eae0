import math

import numpy as np
import pytest

import ridgeflow as rf
import ridgeflow.pipeline as pipeline

from oracles import flow_mae


def noisy(deg=30, seed=42):
    spec = rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                            orientation=math.radians(deg), period=8.0,
                            noise_sigma=40.0, rng_seed=seed)
    return rf.generate(spec)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rf.PipelineConfig(iterations=0)
        with pytest.raises(ValueError):
            rf.PipelineConfig(path_mode="spiral")
        with pytest.raises(ValueError):
            rf.PipelineConfig(flow_method="fft")

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_coherence_threshold_is_rejected(self, value):
        with pytest.raises(ValueError, match="coherence_threshold must be finite"):
            rf.PipelineConfig(coherence_threshold=value)

    @pytest.mark.parametrize("kw", [{"gradient_window_half": -1}, {"gradient_weight_sigma": 0.0},
                                    {"gradient_weight_sigma": -2.0}, {"gradient_weight_sigma": math.nan},
                                    {"gradient_weight_sigma": math.inf}])
    def test_gradient_parameters_validated(self, kw):
        with pytest.raises(ValueError, match="gradient"):
            rf.PipelineConfig(**kw)

    def test_gradient_uniform_weights_and_zero_window_allowed(self):
        cfg = rf.PipelineConfig(gradient_window_half=0, gradient_weight_sigma=None)
        assert cfg.gradient_weight_sigma is None


class TestRunIteration:
    def test_constant_image(self):
        img = rf.GrayImage(np.full((64, 64), 77, dtype=np.int64))
        flow, binary, enhanced = rf.run_iteration(img)
        assert not flow.valid.any()
        assert (binary.bits == 1).all()
        assert np.array_equal(enhanced.pixels, img.pixels)

    def test_composition_equals_manual_calls(self):
        img, _ = noisy()
        cfg = rf.PipelineConfig()
        flow, binary, enhanced = rf.run_iteration(img, cfg)
        flow2 = rf.compute_flow_field(img, cfg.flow)
        binary2 = rf.binarize_image(img, flow2, cfg.binarize)
        enhanced2 = rf.enhance_image(img, binary2, flow2, cfg.enhance)
        assert np.array_equal(flow.angles, flow2.angles)
        assert np.array_equal(flow.valid, flow2.valid)
        assert np.array_equal(binary.bits, binary2.bits)
        assert np.array_equal(enhanced.pixels, enhanced2.pixels)

    def test_gradient_method_and_contour_mode_dispatch(self):
        img, _ = noisy()
        cfg = rf.PipelineConfig(flow_method="gradient", path_mode="contour")
        flow, binary, enhanced = rf.run_iteration(img, cfg)
        assert flow.coherence is not None  # gradient fields carry coherence
        binary2 = rf.binarize_image_contour(img, flow, cfg.binarize)
        assert np.array_equal(binary.bits, binary2.bits)

    def test_sinusoid_quality(self):
        img, truth = noisy()
        flow, binary, _ = rf.run_iteration(img)
        assert flow_mae(flow, truth, 128, 128) <= math.pi / 32


class TestRunPipeline:
    def test_single_iteration_matches_run_iteration(self):
        img, _ = noisy()
        cfg = rf.PipelineConfig(iterations=1)
        result = rf.run_pipeline(img, cfg)
        flow, binary, enhanced = rf.run_iteration(img, cfg)
        assert len(result.records) == 1
        assert np.array_equal(result.final_flow.angles, flow.angles)
        assert np.array_equal(result.final_binary.bits, binary.bits)
        assert np.array_equal(result.final_enhanced.pixels, enhanced.pixels)

    def test_record_count_and_chaining(self):
        img, _ = noisy()
        cfg = rf.PipelineConfig(iterations=2)
        result = rf.run_pipeline(img, cfg)
        assert len(result.records) == cfg.iterations
        # iteration 2 consumed iteration 1's enhanced image
        flow2 = rf.compute_flow_field(result.records[0].enhanced, cfg.flow)
        assert np.array_equal(result.records[1].flow.angles, flow2.angles)

    def test_second_iteration_does_not_degrade_flow(self):
        img, truth = noisy(deg=55, seed=9)
        result = rf.run_pipeline(img, rf.PipelineConfig(iterations=2))
        mae1 = flow_mae(result.records[0].flow, truth, 128, 128)
        mae2 = flow_mae(result.records[1].flow, truth, 128, 128)
        assert mae2 <= mae1 + math.pi / 64

    def test_determinism(self):
        img, _ = noisy()
        a = rf.run_pipeline(img, rf.PipelineConfig(iterations=2))
        b = rf.run_pipeline(img, rf.PipelineConfig(iterations=2))
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.flow.angles, rb.flow.angles)
            assert np.array_equal(ra.binary.bits, rb.binary.bits)
            assert np.array_equal(ra.enhanced.pixels, rb.enhanced.pixels)


class TestAngularDistance:
    def test_basic_properties(self):
        rng = np.random.RandomState(44)
        a = rng.uniform(0, math.pi, 500)
        b = rng.uniform(0, math.pi, 500)
        d = rf.angular_distance(a, b)
        assert (d >= 0).all() and (d <= math.pi / 2 + 1e-12).all()
        assert np.allclose(rf.angular_distance(a, a), 0.0)
        assert np.allclose(d, rf.angular_distance(b, a))
        assert rf.angular_distance(0.01, math.pi - 0.01) == pytest.approx(0.02, abs=1e-12)


class TestCompareMethods:
    def test_truth_equal_to_projection_gives_zero_mae(self):
        img, _ = noisy()
        proj = rf.compute_flow_field(img)
        report = rf.compare_methods(img, truth=proj)
        assert report.mae_projection == 0.0
        assert report.n_sites > 0

    def test_projection_beats_gradient_on_noise(self):
        # orientation on the fine candidate grid, as in the k*pi/16 suites
        img, truth = noisy(deg=math.degrees(5 * math.pi / 16), seed=3)
        report = rf.compare_methods(img, truth=truth, interior_margin=16)
        assert report.mae_projection <= report.mae_gradient
        assert report.mae_projection <= math.pi / 16

    def test_clean_pattern_both_accurate(self):
        spec = rf.SyntheticSpec(width=128, height=128, pattern="parallel",
                                orientation=math.radians(45), period=8.0)
        img, truth = rf.generate(spec)
        report = rf.compare_methods(img, truth=truth, interior_margin=16)
        assert report.mae_projection <= math.pi / 32
        assert report.mae_gradient <= math.pi / 32

    def test_each_half_runs_its_own_method_with_the_given_settings(self):
        img, _ = noisy()
        cfg = rf.PipelineConfig(flow_method="gradient", flow=rf.FlowConfig(stride=3),
                                gradient_window_half=5, coherence_threshold=0.2)
        report = rf.compare_methods(img, cfg=cfg)
        proj = rf.compute_flow_field(img, cfg.flow)
        grad = rf.compute_flow_field_gradient(img, cfg.flow, window_half=5, coherence_threshold=0.2)
        assert np.array_equal(report.projection.angles, proj.angles)
        assert np.array_equal(report.projection.valid, proj.valid)
        assert np.array_equal(report.gradient.angles, grad.angles)
        assert np.array_equal(report.gradient.valid, grad.valid)

    def test_without_truth_reports_disagreement(self):
        img, _ = noisy()
        report = rf.compare_methods(img, interior_margin=16)
        assert report.mae_projection is None
        assert report.mean_disagreement is not None
        assert report.n_sites > 0

    def test_non_finite_interior_margin_is_rejected(self):
        img, _ = noisy()
        with pytest.raises(ValueError, match="interior_margin must be finite"):
            rf.compare_methods(img, interior_margin=math.nan)

    def test_grid_mismatch_raises(self):
        img, _ = noisy()
        bad_truth = rf.FlowField(np.zeros((3, 3)), np.ones((3, 3), dtype=bool), 2)
        with pytest.raises(ValueError, match="grid"):
            rf.compare_methods(img, truth=bad_truth)

    def test_truth_grid_is_checked_before_the_flows(self, monkeypatch):
        img, _ = noisy()

        def no_flow(*args):
            raise AssertionError("a flow was computed before the truth grid was checked")

        monkeypatch.setattr(pipeline, "_flow_for", no_flow)
        bad_truth = rf.FlowField(np.zeros((3, 3)), np.ones((3, 3), dtype=bool), 2)
        with pytest.raises(ValueError, match=r"flow grid 3x3 \(stride 2\) does not match image 128x128, "
                                             r"which needs a 64x64 grid"):
            rf.compare_methods(img, truth=bad_truth)
        # the image's grid at stride 4, while the flows would use stride 2
        other_stride = rf.FlowField(np.zeros((32, 32)), np.ones((32, 32), dtype=bool), 4)
        with pytest.raises(ValueError, match="truth field stride 4 does not match the flow stride 2"):
            rf.compare_methods(img, truth=other_stride)

    def test_csv_shape_and_summary(self, tmp_path):
        img, truth = noisy()
        report = rf.compare_methods(img, truth=truth, interior_margin=16)
        out = tmp_path / "cmp.csv"
        rf.save_comparison_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "site_x,site_y,theta_projection,theta_gradient,theta_truth,err_projection,err_gradient"
        assert len(lines) == 1 + 64 * 64
        summary = rf.summary_lines(report)
        assert summary[0] == "mae_projection,mae_gradient,n_sites"
        mae_p, mae_g, n = summary[1].split(",")
        assert float(mae_p) == pytest.approx(report.mae_projection, abs=1e-6)
        assert int(n) == report.n_sites
