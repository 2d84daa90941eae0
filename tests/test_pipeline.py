import dataclasses
import inspect
import math

import numpy as np
import pytest

import ridgeflow as rf
import ridgeflow.pipeline as pipeline
from ridgeflow.cli import run_cli
from ridgeflow.enhance import _sweep

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
            rf.FlowConfig(coherence_threshold=value)

    @pytest.mark.parametrize("kw", [{"gradient_window_half": -1}, {"gradient_weight_sigma": 0.0},
                                    {"gradient_weight_sigma": -2.0}, {"gradient_weight_sigma": math.nan},
                                    {"gradient_weight_sigma": math.inf}, {"gradient_weight_sigma": 1e-200}])
    def test_gradient_parameters_validated(self, kw):
        with pytest.raises(ValueError, match="gradient"):
            rf.FlowConfig(**kw)

    # a string was read by its truth value, so "False" and "no" turned the rule on, and None turned it off
    @pytest.mark.parametrize("value", ["False", "no", None, 0, 1])
    def test_half_line_rule_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="^use_half_line_rule must be a bool, got "):
            rf.FlowConfig(use_half_line_rule=value)

    @pytest.mark.parametrize("value", [np.True_, np.False_], ids=repr)
    def test_half_line_rule_takes_numpy_bools(self, value):
        assert rf.FlowConfig(use_half_line_rule=value).use_half_line_rule == value

    # each was accepted, and run_pipeline then failed with AttributeError in the middle of the run
    @pytest.mark.parametrize("field, value, message", [
        ("flow", None, "flow must be an instance of FlowConfig, got None"),
        ("binarize", rf.EnhanceConfig(), "binarize must be an instance of BinarizeConfig, got EnhanceConfig("),
        ("enhance", rf.BinarizeConfig(), "enhance must be an instance of EnhanceConfig, got BinarizeConfig("),
    ], ids=["flow", "binarize", "enhance"])
    def test_sub_settings_must_have_their_type(self, field, value, message):
        with pytest.raises(ValueError) as err:
            rf.PipelineConfig(**{field: value})
        assert str(err.value).startswith(message)

    def test_gradient_uniform_weights_and_zero_window_allowed(self):
        cfg = rf.FlowConfig(gradient_window_half=0, gradient_weight_sigma=None)
        assert cfg.gradient_weight_sigma is None


# one instance of each settings class and each data value
FROZEN = {
    "FlowConfig": rf.FlowConfig,
    "BinarizeConfig": rf.BinarizeConfig,
    "EnhanceConfig": rf.EnhanceConfig,
    "PipelineConfig": rf.PipelineConfig,
    "SyntheticSpec": lambda: rf.SyntheticSpec(width=16, height=12),
    "GrayImage": lambda: rf.GrayImage(np.zeros((4, 5), dtype=np.uint8)),
    "BinaryImage": lambda: rf.BinaryImage(np.ones((4, 5), dtype=np.uint8)),
    "FlowField": lambda: rf.FlowField(np.zeros((3, 3)), np.ones((3, 3), dtype=bool), 2, coherence=np.ones((3, 3))),
}
SETTINGS = (rf.FlowConfig, rf.BinarizeConfig, rf.EnhanceConfig, rf.PipelineConfig)
ENTRY_POINTS = (rf.compute_flow_field, rf.compute_flow_field_gradient, rf.binarize_image, rf.enhance_values,
                rf.enhance_image, rf.binarize_image_contour, rf.contour_enhance_values, rf.enhance_image_contour,
                rf.run_iteration, rf.run_pipeline, rf.compare_methods)
# the public surface, sorted; a name added or removed here is a change to the library's API
PUBLIC_NAMES = [
    "BinarizeConfig", "BinaryImage", "ComparisonReport", "ContourPath", "EnhanceConfig", "FlowConfig", "FlowField",
    "GrayImage", "IterationRecord", "PgmFormatError", "PipelineConfig", "PipelineResult", "Point",
    "RotatedDeviationEvaluator", "SyntheticSpec", "angles_at", "angular_distance", "binarize_image",
    "binarize_image_contour", "binary_as_gray", "compare_methods", "compute_flow_field", "compute_flow_field_gradient",
    "contour_enhance_values", "enhance_image", "enhance_image_contour", "enhance_values", "flow_overlay_svg",
    "gaussian_kernel", "generate", "interior_site_mask", "invert", "load_flow_csv", "load_pgm", "patch_variance_grid",
    "render_flow_overlay", "run_iteration", "run_pipeline", "save_comparison_csv", "save_flow_csv", "save_pgm",
    "seeded_normals", "summary_lines", "trace_contour",
]


def test_public_surface_is_pinned():
    assert rf.__all__ == PUBLIC_NAMES == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 44
    for name in PUBLIC_NAMES:
        assert getattr(rf, name) is not None
    # the band kernels run on one point are test oracles, not library entry points
    for name in ("binarize_pixel", "enhance_pixel", "sample_bilinear"):
        assert not hasattr(rf, name)


class TestFrozen:
    @pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
    def test_assigning_any_field_raises(self, make):
        made = make()
        for f in dataclasses.fields(made):
            before = getattr(made, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, f.name, before)
            assert getattr(made, f.name) is before

    def test_a_value_cannot_be_set_after_it_is_checked(self):
        # each assignment was accepted, and the call after it raised ZeroDivisionError, gave an all-invalid
        # flow, a result with no records, smoothed with an unchecked kernel or read 1000x intensities
        image, truth = rf.generate(rf.SyntheticSpec(width=40, height=40, noise_sigma=20.0, rng_seed=1))
        flow_cfg, pipe_cfg, enh_cfg = rf.FlowConfig(), rf.PipelineConfig(iterations=1), rf.EnhanceConfig()
        for made, name, value in ((flow_cfg, "stride", 0), (flow_cfg, "gradient_window_half", -1),
                                  (pipe_cfg, "iterations", 0), (enh_cfg, "kernel_half_length", 1),
                                  (truth, "stride", 0), (image, "pixels", image.pixels.astype(float) * 1000)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, name, value)
        assert rf.compute_flow_field(image, flow_cfg).valid.any()
        assert rf.compute_flow_field_gradient(image, flow_cfg).valid.any()
        assert len(rf.run_pipeline(image, pipe_cfg).records) == 1
        assert rf.binarize_image(image, truth).bits.shape == (40, 40)
        assert image.pixels.dtype == np.uint8
        # a variant is a new instance, checked as it is made
        with pytest.raises(ValueError, match="^stride must be >= 1$"):
            dataclasses.replace(flow_cfg, stride=0)
        with pytest.raises(ValueError, match="^iterations must be >= 1$"):
            dataclasses.replace(pipe_cfg, iterations=0)
        assert dataclasses.replace(flow_cfg, stride=3) == rf.FlowConfig(stride=3)

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=lambda fn: fn.__name__)
    def test_every_entry_point_defaults_to_a_settings_instance(self, entry_point):
        default = inspect.signature(entry_point).parameters["cfg"].default
        assert type(default) in SETTINGS and default == type(default)()


def _uniform_flow(stride=2):
    return rf.FlowField(np.full((8, 8), 0.5), np.ones((8, 8), dtype=bool), stride)


@pytest.mark.parametrize("name, bad, call", [
    pytest.param("kernel_half_length", 9.5, lambda v: rf.EnhanceConfig(kernel_half_length=v), id="enhance-kernel"),
    pytest.param("half_length", 2.5, lambda v: rf.gaussian_kernel(3.0, v), id="gaussian-kernel"),
    pytest.param("gradient window half size", 2.5, lambda v: rf.FlowConfig(gradient_window_half=v),
                 id="gradient-window"),
    pytest.param("stride", 1.5, lambda v: rf.generate(rf.SyntheticSpec(width=16, height=16), stride=v),
                 id="generate-stride"),
    pytest.param("stride", 1.5, _uniform_flow, id="flow-field-stride"),
    pytest.param("width", 10.5, lambda v: rf.SyntheticSpec(width=v, height=16), id="synth-width"),
    pytest.param("height", 10.5, lambda v: rf.SyntheticSpec(width=16, height=v), id="synth-height"),
    pytest.param("stride", 1.5, lambda v: rf.FlowConfig(stride=v), id="flow-stride"),
    pytest.param("tangent_half_length", 2.5, lambda v: rf.FlowConfig(tangent_half_length=v), id="flow-tangent"),
    pytest.param("perp_half_length", 2.5, lambda v: rf.FlowConfig(perp_half_length=v), id="flow-perp"),
    pytest.param("line_half_length", 2.5, lambda v: rf.BinarizeConfig(line_half_length=v), id="binarize-line"),
    pytest.param("iterations", 1.5, lambda v: rf.PipelineConfig(iterations=v), id="pipeline-iterations"),
    pytest.param("half_steps", 2.5, lambda v: rf.trace_contour(_uniform_flow(), rf.Point(8.0, 8.0), v),
                 id="trace-half-steps"),
])
def test_non_integer_size_setting_is_rejected(name, bad, call):
    # a half length, stride, count or side of x.5 built a window, grid or image of neither neighbouring size,
    # or failed later with an IndexError or TypeError; True, an int to isinstance, built one of size 1
    for value in (bad, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            call(value)
    call(np.int64(math.ceil(bad)))  # numpy integers pass


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

    def test_binary_images_the_package_makes_keep_its_bits_and_callers_arrays_are_copied(self, monkeypatch):
        # the iteration's binary holds the sweep's own bits, read-only, neither copied nor scanned
        img, flow = noisy()
        swept = []

        def sweep(*args):
            swept.append(_sweep(*args))
            return swept[-1]

        monkeypatch.setattr(pipeline, "_flow_for", lambda image, cfg: flow)
        monkeypatch.setattr(pipeline, "_sweep", sweep)
        _, binary, enhanced = rf.run_iteration(img)
        assert np.shares_memory(binary.bits, swept[0][0]) and np.shares_memory(enhanced.pixels, swept[0][1])
        for made in (binary, rf.binarize_image(img, flow), rf.binarize_image_contour(img, flow)):
            assert made.bits.dtype == np.uint8 and not made.bits.flags.writeable
        mine = np.ones((2, 3), dtype=np.uint8)
        assert not np.shares_memory(rf.BinaryImage(mine).bits, mine) and mine.flags.writeable


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
        # a flow keeps no lookup table: ``angles_at`` leaves its fields as they were, and a record's flow
        # gives the bytes of a fresh one
        flow = result.records[1].flow
        before = dict(vars(flow))
        xs, ys = np.meshgrid(np.arange(0.0, 128.0, 0.75), np.arange(0.0, 128.0, 1.25))
        again = rf.angles_at(flow, xs, ys)
        assert vars(flow).keys() == before.keys()
        assert all(vars(flow)[k] is v for k, v in before.items())
        fresh = rf.angles_at(rf.FlowField(flow2.angles, flow2.valid, flow2.stride), xs, ys)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again, fresh))

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
        flow = rf.FlowConfig(stride=3, gradient_window_half=5, coherence_threshold=0.2)
        report = rf.compare_methods(img, cfg=rf.PipelineConfig(flow_method="gradient", flow=flow))
        proj = rf.compute_flow_field(img, flow)
        grad = rf.compute_flow_field_gradient(img, flow)
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

    def test_summary_with_no_site_left_keeps_its_header(self):
        img, truth = noisy()
        with_truth = rf.compare_methods(img, truth=truth, interior_margin=1e308)
        assert with_truth.n_sites == 0
        assert rf.summary_lines(with_truth) == ["mae_projection,mae_gradient,n_sites", ",,0"]
        assert rf.summary_lines(dataclasses.replace(with_truth, truth=None)) == ["mean_disagreement,n_sites", ",0"]

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

        monkeypatch.setattr(pipeline, "compute_flow_field", no_flow)
        monkeypatch.setattr(pipeline, "compute_flow_field_gradient", no_flow)
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


def test_every_caller_reaches_both_flows_through_the_pipeline_names_with_the_flow_settings(monkeypatch, tmp_path):
    # a dispatch that captured the two functions once would skip a wrapper bound to either name later, as a
    # tracer binds its wrappers
    img = rf.generate(rf.SyntheticSpec(width=48, height=48, noise_sigma=20.0, rng_seed=4))[0]
    calls = []
    for name in ("compute_flow_field", "compute_flow_field_gradient"):
        def recording(image, cfg, name=name, method=getattr(pipeline, name)):
            calls.append((name, cfg))
            return method(image, cfg)

        monkeypatch.setattr(pipeline, name, recording)
    flow = rf.FlowConfig(stride=4, gradient_window_half=3, coherence_threshold=0.2)
    both = [("compute_flow_field", flow), ("compute_flow_field_gradient", flow)]

    for method in pipeline.FLOW_METHODS:
        rf.run_iteration(img, rf.PipelineConfig(flow_method=method, flow=flow))
    assert calls == both and all(cfg is flow for _, cfg in calls)
    calls.clear()
    rf.compare_methods(img, cfg=rf.PipelineConfig(flow=flow))
    assert calls == both and all(cfg is flow for _, cfg in calls)
    calls.clear()
    rf.save_pgm(img, tmp_path / "in.pgm")
    for method in pipeline.FLOW_METHODS:
        argv = ["flow", str(tmp_path / "in.pgm"), "--out", str(tmp_path / f"{method}.csv"), "--method", method,
                "--stride", "4", "--grad-window-half", "3", "--coherence-threshold", "0.2"]
        assert run_cli(argv) == 0
    assert calls == both
