import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeflow as rf
from ridgeflow.cli import _COMMANDS, _FLAGS, _pipeline_config, _settings, build_parser, run_cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def sample(tmp_path):
    spec = rf.SyntheticSpec(width=64, height=64, pattern="parallel",
                            orientation=math.radians(30), period=8.0,
                            noise_sigma=10.0, rng_seed=5)
    img, truth = rf.generate(spec)
    img_path = tmp_path / "in.pgm"
    truth_path = tmp_path / "truth.csv"
    rf.save_pgm(img, img_path)
    rf.save_flow_csv(truth, truth_path)
    return img_path, truth_path


class TestExitCodes:
    def test_flow_happy_path(self, sample, tmp_path):
        img_path, _ = sample
        out = tmp_path / "flow.csv"
        assert run_cli(["flow", str(img_path), "--out", str(out)]) == 0
        field = rf.load_flow_csv(out)
        assert field.valid.any()

    def test_missing_input_names_path(self, capsys, tmp_path):
        assert run_cli(["flow", str(tmp_path / "missing.pgm"), "--out", "x.csv"]) == 2
        assert "missing.pgm" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, sample, capsys):
        img_path, _ = sample
        assert run_cli(["flow", str(img_path), "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["transmogrify"]) == 1

    def test_malformed_image_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
        assert run_cli(["flow", str(bad), "--out", str(tmp_path / "f.csv")]) == 2
        assert "maxval" in capsys.readouterr().err

    def test_missing_out_flag(self, sample, capsys):
        img_path, _ = sample
        assert run_cli(["flow", str(img_path)]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_viz_nan_flow_is_data_error(self, sample, tmp_path, capsys):
        img_path, _ = sample
        flow_csv = tmp_path / "nan.csv"
        flow_csv.write_text("x,y,theta_radians,valid\n0,0,nan,1\n2,0,0.1,1\n", encoding="ascii")
        svg_out = tmp_path / "o.svg"
        assert run_cli(["viz", str(img_path), "--flow", str(flow_csv), "--out", str(svg_out)]) == 2
        assert "nan.csv: valid angles must be finite" in capsys.readouterr().err
        assert not svg_out.exists()

    def test_bad_valid_flag_and_nan_coherence_is_data_error(self, sample, tmp_path, capsys):
        img_path, _ = sample
        flow_csv = tmp_path / "flag.csv"
        flow_csv.write_text("x,y,theta_radians,valid,coherence\n0,0,0.1,7,nan\n", encoding="ascii")
        svg_out = tmp_path / "o.svg"
        assert run_cli(["viz", str(img_path), "--flow", str(flow_csv), "--out", str(svg_out)]) == 2
        assert "flag.csv:2: malformed row" in capsys.readouterr().err
        assert not svg_out.exists()

    def test_short_flow_row_is_data_error(self, sample, tmp_path, capsys):
        img_path, _ = sample
        flow_csv = tmp_path / "short.csv"
        flow_csv.write_text("x,y,theta_radians,valid\n0,0,0.1\n", encoding="ascii")
        rc = run_cli(["viz", str(img_path), "--flow", str(flow_csv), "--out", str(tmp_path / "o.svg")])
        assert rc == 2
        assert "short.csv:2: malformed row" in capsys.readouterr().err

    def test_misplaced_flow_site_is_data_error(self, sample, tmp_path, capsys):
        img_path, _ = sample
        flow_csv = tmp_path / "uneven.csv"
        flow_csv.write_text("x,y,theta_radians,valid\n0,0,0.1,1\n2,0,0.1,1\n5,0,0.1,1\n", encoding="ascii")
        svg_out = tmp_path / "o.svg"
        assert run_cli(["viz", str(img_path), "--flow", str(flow_csv), "--out", str(svg_out)]) == 2
        assert "uneven.csv:4: site (5, 0) should be (4, 0)" in capsys.readouterr().err
        assert not svg_out.exists()

    def test_shifted_flow_grid_is_data_error(self, sample, tmp_path, capsys):
        img_path, truth_path = sample
        header, *rows = truth_path.read_text(encoding="ascii").splitlines()
        moved = [f"{float(x) + 7:g},{float(y) + 5:g},{rest}" for x, y, rest in (r.split(",", 2) for r in rows)]
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("\n".join([header] + moved) + "\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"shifted.csv:2: site \(7, 5\) should be \(0, 0\)"):
            rf.load_flow_csv(shifted)
        out = tmp_path / "cmp.csv"
        assert run_cli(["compare", str(img_path), "--truth", str(shifted), "--out", str(out)]) == 2
        assert "shifted.csv:2: site (7, 5) should be (0, 0)" in capsys.readouterr().err
        assert not out.exists()

    def test_viz_flow_of_other_image_is_data_error(self, sample, tmp_path, capsys):
        img_path, _ = sample
        _, other = rf.generate(rf.SyntheticSpec(width=32, height=40))
        flow_csv = tmp_path / "other.csv"
        rf.save_flow_csv(other, flow_csv)
        svg_out = tmp_path / "o.svg"
        assert run_cli(["viz", str(img_path), "--flow", str(flow_csv), "--out", str(svg_out)]) == 2
        err = capsys.readouterr().err
        assert "flow grid 16x20 (stride 2) does not match image 64x64, which needs a 32x32 grid" in err
        assert not svg_out.exists()

    def test_negative_gradient_window_is_data_error(self, sample, tmp_path, capsys):
        img_path, _ = sample
        argv = ["flow", str(img_path), "--out", str(tmp_path / "f.csv"), "--method", "gradient"]
        assert run_cli(argv + ["--grad-window-half", "-1"]) == 2
        assert "window half size" in capsys.readouterr().err
        assert run_cli(argv + ["--grad-weight-sigma", "0"]) == 2
        assert "weight sigma" in capsys.readouterr().err


    def test_non_finite_settings_are_data_errors(self, sample, tmp_path, capsys):
        img_path, _ = sample
        out = tmp_path / "f.csv"
        assert run_cli(["flow", str(img_path), "--out", str(out), "--bg-var-threshold", "nan"]) == 2
        assert "background_variance_threshold must be finite" in capsys.readouterr().err
        assert not out.exists()
        syn = tmp_path / "s.pgm"
        assert run_cli(["synth", "--out", str(syn), "--noise-sigma", "nan"]) == 2
        assert "noise_sigma must be finite" in capsys.readouterr().err
        assert not syn.exists()

    @pytest.mark.parametrize("argv, stage, error, message", [
        (["pipeline", "IN", "--kernel-half", "100000000", "--out-prefix", "OUT/"], "run_pipeline",
         MemoryError("Unable to allocate 5.96 TiB for an array with shape (2, 200000001, 4096) and data type float64"),
         "ridgeflow pipeline: error: out of memory: Unable to allocate 5.96 TiB"),
        (["synth", "--out", "OUT.pgm", "--width", "100000", "--height", "100000"], "generate", MemoryError(),
         "ridgeflow synth: error: out of memory\n"),
    ], ids=["pipeline", "synth"])
    def test_out_of_memory_is_data_error(self, sample, tmp_path, capsys, monkeypatch, argv, stage, error, message):
        # the stage raises as a huge allocation would; no test allocates one
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"ridgeflow.cli.{stage}", out_of_memory)
        img_path, _ = sample
        argv = [str(img_path) if a == "IN" else a.replace("OUT", str(tmp_path / "out")) for a in argv]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["flow", "IN", "--stride", "100000000000000000000", "--out", "OUT.csv"],
        ["flow", "IN", "--method", "gradient", "--stride", "100000000000000000000", "--out", "OUT.csv"],
        ["synth", "--out", "OUT.pgm", "--truth-out", "OUT.csv", "--stride", "100000000000000000000"],
        ["viz", "IN", "--flow", "HUGE", "--out", "OUT.svg"],
    ], ids=["flow", "gradient-flow", "synth", "viz"])
    def test_stride_past_int64_is_data_error(self, sample, tmp_path, capsys, argv):
        img_path, _ = sample
        huge = tmp_path / "huge.csv"  # sites 1e93 apart
        huge.write_text("x,y,theta_radians,valid\n0,0,0,0\n0,1e93,1,1\n", encoding="ascii")
        subs = {"IN": str(img_path), "HUGE": str(huge)}
        argv = [subs.get(a, a.replace("OUT", str(tmp_path / "out"))) for a in argv]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ridgeflow {argv[0]}: error: ") and err.count("\n") == 1
        assert "puts grid sites past the int64 range" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv, message", [
        (["flow", "IN", "--coarse-step-denom", "0"], "--coarse-step-denom must be nonzero"),
        (["flow", "IN", "--fine-step-denom", "0"], "--fine-step-denom must be nonzero"),
        (["flow", "IN", "--fine-half-range-denom", "0"], "--fine-half-range-denom must be nonzero"),
        (["enhance", "IN", "--sigma", "inf"], "gaussian_sigma must be finite"),
        (["enhance", "IN", "--sigma", "1e308"], "kernel_half_length must be >= ceil(2 * gaussian_sigma)"),
        (["flow", "IN", "--method", "gradient", "--grad-weight-sigma", "inf"], "gradient weight sigma must be positive and finite"),
        (["flow", "IN", "--method", "gradient", "--grad-weight-sigma", "1e-200"],
         "gradient_weight_sigma 1e-200 is too small: 2 * gradient_weight_sigma**2 underflows to 0"),
        (["synth", "--stride", "0"], "stride must be >= 1"),
        (["synth", "--orientation-deg", "inf"], "orientation must be finite, got inf"),
        (["enhance", "IN", "--sigma", "1e-300"], "gaussian_sigma 1e-300 is too small: 2 * gaussian_sigma**2 underflows to 0"),
    ])
    def test_bad_setting_is_data_error_naming_it(self, sample, tmp_path, capsys, argv, message):
        img_path, _ = sample
        out = tmp_path / "out"
        argv = [str(img_path) if a == "IN" else a for a in argv]
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert f"ridgeflow {argv[0]}: error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestSubcommands:
    def test_synth_writes_image_and_truth(self, tmp_path):
        out = tmp_path / "s.pgm"
        truth = tmp_path / "s.csv"
        rc = run_cli(["synth", "--out", str(out), "--truth-out", str(truth),
                      "--pattern", "concentric", "--width", "72", "--height", "48",
                      "--noise-sigma", "12", "--seed", "9"])
        assert rc == 0
        img = rf.load_pgm(out)
        assert (img.width, img.height) == (72, 48)
        assert rf.load_flow_csv(truth).grid_width == 36

    def test_binarize_and_enhance(self, sample, tmp_path):
        img_path, _ = sample
        bin_out = tmp_path / "b.pgm"
        enh_out = tmp_path / "e.pgm"
        assert run_cli(["binarize", str(img_path), "--out", str(bin_out)]) == 0
        assert run_cli(["enhance", str(img_path), "--out", str(enh_out)]) == 0
        bits = rf.load_pgm(bin_out).pixels
        assert set(np.unique(bits)) <= {0, 255}
        assert rf.load_pgm(enh_out).width == 64

    def test_invert_polarity_flips_classification(self, sample, tmp_path):
        img_path, _ = sample
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        assert run_cli(["binarize", str(img_path), "--out", str(a)]) == 0
        assert run_cli(["binarize", str(img_path), "--out", str(b), "--invert-polarity"]) == 0
        ba = rf.load_pgm(a).pixels
        bb = rf.load_pgm(b).pixels
        assert (bb[ba == 0] == 255).all()

    def test_pipeline_writes_expected_files(self, sample, tmp_path):
        img_path, _ = sample
        prefix = str(tmp_path / "r") + "/"
        rc = run_cli(["pipeline", str(img_path), "--iterations", "2", "--out-prefix", prefix])
        assert rc == 0
        for name in ("flow_1.csv", "bin_1.pgm", "enh_1.pgm", "flow_2.csv", "bin_2.pgm", "enh_2.pgm"):
            assert (tmp_path / "r" / name).exists(), name

    def test_compare_prints_summary(self, sample, tmp_path, capsys):
        img_path, truth_path = sample
        out = tmp_path / "cmp.csv"
        rc = run_cli(["compare", str(img_path), "--truth", str(truth_path),
                      "--out", str(out), "--interior-margin", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mae_projection,mae_gradient,n_sites"
        assert len(lines[1].split(",")) == 3
        assert out.exists()

    def test_viz_segment_count_matches_valid_sites(self, sample, tmp_path):
        img_path, _ = sample
        flow_out = tmp_path / "f.csv"
        svg_out = tmp_path / "o.svg"
        assert run_cli(["flow", str(img_path), "--out", str(flow_out)]) == 0
        assert run_cli(["viz", str(img_path), "--flow", str(flow_out), "--out", str(svg_out)]) == 0
        field = rf.load_flow_csv(flow_out)
        svg = svg_out.read_text()
        assert svg.count("<line ") == int(field.valid.sum())

    def test_viz_empty_flow_has_no_segments(self, tmp_path):
        img = rf.GrayImage(np.full((64, 64), 80, dtype=np.int64))
        img_path = tmp_path / "flat.pgm"
        rf.save_pgm(img, img_path)
        svg_out = tmp_path / "o.svg"
        assert run_cli(["viz", str(img_path), "--out", str(svg_out)]) == 0
        assert "<line " not in svg_out.read_text()

    def test_viz_uniform_flow_draws_horizontal_segments(self, tmp_path):
        img = rf.GrayImage(np.full((8, 8), 10, dtype=np.int64))
        flow = rf.FlowField(np.zeros((4, 4)), np.ones((4, 4), dtype=bool), 2)
        svg_path = tmp_path / "h.svg"
        rf.render_flow_overlay(img, flow, svg_path)
        import re

        for m in re.finditer(r'y1="([0-9.]+)" x2="[0-9.]+" y2="([0-9.]+)"', svg_path.read_text()):
            assert m.group(1) == m.group(2)


class TestConfigEcho:
    def test_print_config_round_trips_values(self, sample, capsys):
        img_path, _ = sample
        rc = run_cli(["flow", str(img_path), "--out", "ignored.csv",
                      "--stride", "3", "--tangent-half", "6", "--bg-var-threshold", "12.5",
                      "--print-config"])
        assert rc == 0
        out = capsys.readouterr().out
        pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert pairs["stride"] == "3"
        assert pairs["tangent_half"] == "6"
        assert pairs["bg_var_threshold"] == "12.5"
        assert pairs["method"] == "projection"
        assert sorted(pairs) == list(pairs)

    def test_print_config_skips_execution(self, tmp_path, capsys):
        # input file does not exist; --print-config must exit 0 before touching it
        rc = run_cli(["flow", str(tmp_path / "absent.pgm"), "--out", "x.csv", "--print-config"])
        assert rc == 0


class TestDefaults:
    def test_default_print_config_matches_golden(self, capsys):
        blocks = (GOLDEN / "print_config.txt").read_text(encoding="ascii").split("$ ridgeflow ")[1:]
        assert len(blocks) == 7
        for block in blocks:
            command, expected = block.split("\n", 1)
            assert run_cli(command.split()) == 0
            assert capsys.readouterr().out == expected, command

    @pytest.mark.parametrize("command", ["flow", "binarize", "enhance", "pipeline", "compare", "viz"])
    def test_no_flags_build_the_default_config(self, command):
        assert _pipeline_config(build_parser().parse_args([command, "x"])) == rf.PipelineConfig()


_sizes = st.integers(1, 2**40)


@st.composite
def _pipeline_configs(draw):
    """A valid ``PipelineConfig`` of values the flags can spell: steps of pi/N, and a fine half range of 0 or pi/N."""
    coarse = draw(st.integers(1, 2**20))
    fine = draw(st.integers(coarse, 2**21))
    half_range = draw(st.just(0.0) | st.integers(2 * coarse, 2**22).map(lambda n: math.pi / n))
    sigma = draw(st.floats(1e-150, 1e150))
    enhance = rf.EnhanceConfig(gaussian_sigma=sigma, kernel_half_length=math.ceil(2 * sigma) + draw(st.integers(0, 9)))
    flow = rf.FlowConfig(tangent_half_length=draw(_sizes), perp_half_length=draw(_sizes), coarse_step=math.pi / coarse,
                         fine_step=math.pi / fine, fine_half_range=half_range, stride=draw(_sizes),
                         background_variance_threshold=draw(st.floats(0, allow_infinity=False)),
                         use_half_line_rule=draw(st.booleans()), gradient_window_half=draw(st.integers(0, 2**40)),
                         gradient_weight_sigma=draw(st.none() | st.floats(1e-150, 1e150)),
                         coherence_threshold=draw(st.floats(allow_nan=False, allow_infinity=False)))
    return rf.PipelineConfig(iterations=draw(_sizes), path_mode=draw(st.sampled_from(["linear", "contour"])),
                             flow_method=draw(st.sampled_from(["projection", "gradient"])), flow=flow,
                             binarize=rf.BinarizeConfig(line_half_length=draw(_sizes)), enhance=enhance)


@st.composite
def _specs(draw):
    """A valid ``SyntheticSpec`` whose orientation lies in [0, pi), as the flags give it."""
    amplitude = draw(st.floats(0, 127.5))
    return rf.SyntheticSpec(width=draw(_sizes), height=draw(_sizes),
                            pattern=draw(st.sampled_from(["parallel", "concentric", "half_plane_stripe"])),
                            orientation=draw(st.floats(0, math.pi, exclude_max=True)),
                            period=draw(st.floats(4, 1e300)), amplitude=amplitude,
                            offset=draw(st.floats(amplitude, 255 - amplitude)),
                            noise_sigma=draw(st.floats(0, 1e300)), rng_seed=draw(st.integers(-2**70, 2**70)))


def _argv(command: str, values) -> list[str]:
    """The flags of ``command`` that set ``values``, each written with its row's ``text``."""
    argv = [command]
    for row in _FLAGS:
        if row.group in _COMMANDS[command].groups:
            value = values
            for name in row.field.split("."):
                value = getattr(value, name)
            text = row.text(value)
            if row.parse is None:  # a switch is given or left out
                argv += [row.flag] if text == "True" else []
            else:  # after "=", a negative value is not read as an option
                argv.append(f"{row.flag}={text}")
    return argv


class TestFlagTable:
    @settings(max_examples=200, deadline=None)
    @given(cfg=_pipeline_configs(), spec=_specs())
    def test_every_setting_round_trips_through_its_flag(self, cfg, spec):
        """Each of the 26 settable values, written as its flag's text and parsed back, is the value drawn,
        ``gradient_weight_sigma=None`` and ``fine_half_range=0`` among them. The orientation alone is converted
        inexactly, from radians to degrees and back, so it comes back within one ulp."""
        parser = build_parser()
        assert _pipeline_config(parser.parse_args(_argv("pipeline", cfg) + ["x"])) == cfg
        args = parser.parse_args(_argv("synth", spec) + [f"--width={spec.width}", f"--height={spec.height}"])
        got = _settings(args, rf.SyntheticSpec(width=args.width, height=args.height))
        assert abs(got.orientation - spec.orientation) <= math.ulp(spec.orientation)
        assert dataclasses.replace(got, orientation=spec.orientation) == spec


class TestReproducibility:
    def test_identical_invocations_identical_bytes(self, sample, tmp_path):
        img_path, truth_path = sample
        outs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            assert run_cli(["flow", str(img_path), "--out", str(d / "f.csv")]) == 0
            assert run_cli(["viz", str(img_path), "--flow", str(d / "f.csv"), "--out", str(d / "o.svg")]) == 0
            assert run_cli(["pipeline", str(img_path), "--iterations", "1",
                            "--out-prefix", str(d) + "/"]) == 0
            outs.append(d)
        for name in ("f.csv", "o.svg", "flow_1.csv", "bin_1.pgm", "enh_1.pgm"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestRuntimeDependencies:
    """numpy is the only runtime dependency: nothing imports scipy, and the
    run imports no ``numpy.ma``, which costs start-up time and traced memory."""

    @staticmethod
    def _python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
                              cwd=cwd, env=dict(os.environ, PYTHONPATH=path), check=False)

    def test_a_flow_loads_no_scipy_and_no_masked_arrays(self, tmp_path):
        code = (
            "import sys\n"
            "import ridgeflow, ridgeflow.cli\n"
            "img, _ = ridgeflow.generate(ridgeflow.SyntheticSpec(width=64, height=64))\n"
            "ridgeflow.compute_flow_field(img)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = self._python(code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_gradient_contour_pipeline_runs_with_scipy_blocked(self, sample, tmp_path):
        img_path, _ = sample
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ridgeflow.cli import main\n"
            "main()\n"
        )
        proc = self._python(code, "pipeline", str(img_path), "--method", "gradient", "--path", "contour",
                            "--iterations", "1", "--out-prefix", "run/", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name in ("flow_1.csv", "bin_1.pgm", "enh_1.pgm"):
            assert (tmp_path / "run" / name).stat().st_size > 0, name
