"""Command-line frontend: flow, binarize, enhance, pipeline, compare, synth, viz.

Exit status: 0 on success, 1 on usage errors (usage text on stderr), 2 on
runtime/data errors, running out of memory among them. Flag defaults are those of ``PipelineConfig()`` and, for
``synth``, ``SyntheticSpec``. ``--print-config`` dumps the effective flag
values as a sorted key=value listing and exits without running the subcommand.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .binarize import BinarizeConfig, _binarize_image
from .enhance import EnhanceConfig, _enhance
from .flowfield import load_flow_csv, save_flow_csv
from .image import GrayImage, binary_as_gray, invert, load_pgm, save_pgm
from .pipeline import (FLOW_METHODS, PATHS, PipelineConfig, _flow_for, compare_methods, run_pipeline,
                       save_comparison_csv, summary_lines)
from .projection import FlowConfig
from .synth import PATTERNS, SyntheticSpec, generate
from .viz import render_flow_overlay


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _add_flow_flags(p: argparse.ArgumentParser, d: PipelineConfig) -> None:
    f = d.flow
    p.add_argument("--stride", type=int, default=f.stride, help="grid stride in pixels")
    p.add_argument("--tangent-half", type=int, default=f.tangent_half_length, help="tangent segment half length")
    p.add_argument("--perp-half", type=int, default=f.perp_half_length, help="perpendicular segment half length")
    p.add_argument("--coarse-step-denom", type=int, default=round(math.pi / f.coarse_step), help="coarse angular step = pi/N")
    p.add_argument("--fine-step-denom", type=int, default=round(math.pi / f.fine_step), help="fine angular step = pi/N")
    p.add_argument("--fine-half-range-denom", type=int, default=round(math.pi / f.fine_half_range),
                   help="fine search half range = pi/N")
    p.add_argument("--bg-var-threshold", type=float, default=f.background_variance_threshold,
                   help="background patch-variance threshold")
    p.add_argument("--no-half-line-rule", action="store_true", help="use full-segment deviations only")
    p.add_argument("--method", choices=FLOW_METHODS, default=d.flow_method)
    p.add_argument("--grad-window-half", type=int, default=f.gradient_window_half, help="structure tensor window half size")
    p.add_argument("--grad-weight-sigma", type=float, default=f.gradient_weight_sigma,
                   help="structure tensor Gaussian weight sigma")
    p.add_argument("--coherence-threshold", type=float, default=f.coherence_threshold, help="tensor coherence validity cutoff")


def _add_binarize_flags(p: argparse.ArgumentParser, d: PipelineConfig) -> None:
    p.add_argument("--bin-half", type=int, default=d.binarize.line_half_length, help="binarization segment half length")
    p.add_argument("--invert-polarity", action="store_true", help="treat bright lines as ridges")
    p.add_argument("--path", choices=list(PATHS), default=d.path_mode, help="sampling path geometry")


def _add_enhance_flags(p: argparse.ArgumentParser, d: PipelineConfig) -> None:
    p.add_argument("--sigma", type=float, default=d.enhance.gaussian_sigma, help="smoothing Gaussian sigma")
    p.add_argument("--kernel-half", type=int, default=d.enhance.kernel_half_length, help="smoothing kernel half length")


def build_parser() -> argparse.ArgumentParser:
    d = PipelineConfig()
    parser = _Parser(prog="ridgeflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="estimate an orientation flow field", parents=[], add_help=True)
    p_flow.add_argument("input", help="input PGM image")
    p_flow.add_argument("--out", help="output flow CSV path")
    _add_flow_flags(p_flow, d)

    p_bin = sub.add_parser("binarize", help="classify pixels into ridge/valley")
    p_bin.add_argument("input")
    p_bin.add_argument("--out", help="output PGM (0 = ridge, 255 = valley)")
    _add_flow_flags(p_bin, d)
    _add_binarize_flags(p_bin, d)

    p_enh = sub.add_parser("enhance", help="directionally smooth an image")
    p_enh.add_argument("input")
    p_enh.add_argument("--out", help="output PGM")
    _add_flow_flags(p_enh, d)
    _add_binarize_flags(p_enh, d)
    _add_enhance_flags(p_enh, d)

    p_pipe = sub.add_parser("pipeline", help="iterate flow -> binarize -> enhance")
    p_pipe.add_argument("input")
    p_pipe.add_argument("--out-prefix", help="prefix for flow_K.csv, bin_K.pgm, enh_K.pgm outputs")
    p_pipe.add_argument("--iterations", type=int, default=d.iterations)
    _add_flow_flags(p_pipe, d)
    _add_binarize_flags(p_pipe, d)
    _add_enhance_flags(p_pipe, d)

    p_cmp = sub.add_parser("compare", help="projection vs gradient flow on one image")
    p_cmp.add_argument("input")
    p_cmp.add_argument("--truth", help="ground-truth flow CSV")
    p_cmp.add_argument("--out", help="per-site comparison CSV")
    p_cmp.add_argument("--interior-margin", type=float, help="skip sites within this many pixels of the border")
    _add_flow_flags(p_cmp, d)

    p_syn = sub.add_parser("synth", help="generate a synthetic ridge pattern")
    p_syn.add_argument("--out", help="output PGM path")
    p_syn.add_argument("--truth-out", help="ground-truth flow CSV path")
    p_syn.add_argument("--pattern", choices=list(PATTERNS), default=SyntheticSpec.pattern)
    p_syn.add_argument("--width", type=int, default=128)
    p_syn.add_argument("--height", type=int, default=128)
    p_syn.add_argument("--period", type=float, default=SyntheticSpec.period)
    p_syn.add_argument("--orientation-deg", type=float, default=math.degrees(SyntheticSpec.orientation),
                       help="ridge direction in degrees")
    p_syn.add_argument("--amplitude", type=float, default=SyntheticSpec.amplitude)
    p_syn.add_argument("--offset", type=float, default=SyntheticSpec.offset)
    p_syn.add_argument("--noise-sigma", type=float, default=SyntheticSpec.noise_sigma)
    p_syn.add_argument("--seed", type=int, default=SyntheticSpec.rng_seed)
    p_syn.add_argument("--stride", type=int, default=d.flow.stride, help="truth grid stride")

    p_viz = sub.add_parser("viz", help="render a flow field over its image as SVG")
    p_viz.add_argument("input")
    p_viz.add_argument("--flow", help="flow CSV to draw; computed with the flags below when omitted")
    p_viz.add_argument("--out", help="output SVG path")
    _add_flow_flags(p_viz, d)

    for p in (p_flow, p_bin, p_enh, p_pipe, p_cmp, p_syn, p_viz):
        p.add_argument("--print-config", action="store_true", help="print effective flag values and exit")
    return parser


def _flow_config(args) -> FlowConfig:
    for flag in ("coarse_step_denom", "fine_step_denom", "fine_half_range_denom"):
        if getattr(args, flag) == 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be nonzero")
    return FlowConfig(
        tangent_half_length=args.tangent_half,
        perp_half_length=args.perp_half,
        coarse_step=math.pi / args.coarse_step_denom,
        fine_step=math.pi / args.fine_step_denom,
        fine_half_range=math.pi / args.fine_half_range_denom,
        stride=args.stride,
        background_variance_threshold=args.bg_var_threshold,
        use_half_line_rule=not args.no_half_line_rule,
        gradient_window_half=args.grad_window_half,
        gradient_weight_sigma=args.grad_weight_sigma,
        coherence_threshold=args.coherence_threshold,
    )


def _pipeline_config(args) -> PipelineConfig:
    d = PipelineConfig()
    return PipelineConfig(
        iterations=getattr(args, "iterations", d.iterations),
        path_mode=getattr(args, "path", d.path_mode),
        flow_method=args.method,
        flow=_flow_config(args),
        binarize=BinarizeConfig(line_half_length=getattr(args, "bin_half", d.binarize.line_half_length)),
        enhance=EnhanceConfig(gaussian_sigma=getattr(args, "sigma", d.enhance.gaussian_sigma),
                              kernel_half_length=getattr(args, "kernel_half", d.enhance.kernel_half_length)),
    )


def _require_out(args, attr: str, parser_hint: str) -> str:
    value = getattr(args, attr)
    if not value:
        raise ValueError(f"{parser_hint} requires --{attr.replace('_', '-')}")
    return value


def _classify(image: GrayImage, args):
    """Config, flow and binary image, honoring --path and --invert-polarity."""
    cfg = _pipeline_config(args)
    flow = _flow_for(image, cfg)
    source = invert(image) if args.invert_polarity else image
    return cfg, flow, _binarize_image(source, flow, cfg.binarize, PATHS[cfg.path_mode])


def _cmd_flow(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out", "flow")
    field = _flow_for(image, _pipeline_config(args))
    save_flow_csv(field, out)
    return 0


def _cmd_binarize(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out", "binarize")
    save_pgm(binary_as_gray(_classify(image, args)[2]), out)
    return 0


def _cmd_enhance(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out", "enhance")
    cfg, flow, binary = _classify(image, args)
    save_pgm(GrayImage._of_bytes(_enhance(image, binary, flow, PATHS[cfg.path_mode], cfg.enhance, True)), out)
    return 0


def _cmd_pipeline(args) -> int:
    image = load_pgm(args.input)
    prefix = _require_out(args, "out_prefix", "pipeline")
    cfg = _pipeline_config(args)
    source = invert(image) if args.invert_polarity else image
    result = run_pipeline(source, cfg)
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    for k, rec in enumerate(result.records, start=1):
        save_flow_csv(rec.flow, f"{prefix}flow_{k}.csv")
        save_pgm(binary_as_gray(rec.binary), f"{prefix}bin_{k}.pgm")
        enhanced = invert(rec.enhanced) if args.invert_polarity else rec.enhanced
        save_pgm(enhanced, f"{prefix}enh_{k}.pgm")
    return 0


def _cmd_compare(args) -> int:
    image = load_pgm(args.input)
    truth = load_flow_csv(args.truth) if args.truth else None
    report = compare_methods(image, truth, _pipeline_config(args), interior_margin=args.interior_margin)
    if args.out:
        save_comparison_csv(report, args.out)
    for line in summary_lines(report):
        print(line)
    return 0


def _cmd_synth(args) -> int:
    out = _require_out(args, "out", "synth")
    spec = SyntheticSpec(
        width=args.width,
        height=args.height,
        pattern=args.pattern,
        orientation=math.radians(args.orientation_deg) % math.pi,
        period=args.period,
        amplitude=args.amplitude,
        offset=args.offset,
        noise_sigma=args.noise_sigma,
        rng_seed=args.seed,
    )
    image, truth = generate(spec, stride=args.stride)
    save_pgm(image, out)
    if args.truth_out:
        save_flow_csv(truth, args.truth_out)
    return 0


def _cmd_viz(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out", "viz")
    flow = load_flow_csv(args.flow) if args.flow else _flow_for(image, _pipeline_config(args))
    render_flow_overlay(image, flow, out)
    return 0


_COMMANDS = {
    "flow": _cmd_flow,
    "binarize": _cmd_binarize,
    "enhance": _cmd_enhance,
    "pipeline": _cmd_pipeline,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
    "viz": _cmd_viz,
}


def _print_config(args) -> None:
    skip = {"command", "print_config"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            value = ""
        print(f"{key}={value}")


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        err.parser.print_usage(sys.stderr)
        print(f"{err.parser.prog}: error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exit_:  # --help
        return int(exit_.code or 0)
    if args.print_config:
        _print_config(args)
        return 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as err:
        print(f"ridgeflow {args.command}: error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # numpy names the allocation it could not make
        print(f"ridgeflow {args.command}: error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
