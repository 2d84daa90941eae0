"""Command-line frontend: flow, binarize, enhance, pipeline, compare, synth, viz.

Exit status: 0 on success, 1 on usage errors (usage text on stderr), 2 on
runtime/data errors, running out of memory among them. Each flag that sets a
value defaults to that value in ``PipelineConfig()`` or, for ``synth``,
``SyntheticSpec``. A step or range given as pi/N takes N = inf for 0, and
``--grad-weight-sigma none`` gives uniform weights. ``--print-config`` dumps
the effective flag values as a sorted key=value listing and exits without
running the subcommand.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from dataclasses import replace
from functools import reduce
from typing import Any, Callable, NamedTuple

from .binarize import _binarize_image
from .enhance import _enhance
from .flowfield import load_flow_csv, save_flow_csv
from .image import GrayImage, binary_as_gray, invert, load_pgm, save_pgm
from .pipeline import (FLOW_METHODS, PATHS, PipelineConfig, _flow_for, compare_methods, run_pipeline,
                       save_comparison_csv, summary_lines)
from .synth import PATTERNS, SyntheticSpec, generate
from .viz import render_flow_overlay


class _Command(NamedTuple):
    """A subcommand: what runs it, its help, and the groups of ``_FLAGS`` rows whose flags it takes."""
    run: Callable[[Any], int]
    help: str
    groups: tuple[str, ...]


class _Flag(NamedTuple):
    """One settable value's flag, which each subcommand whose ``_COMMANDS`` row holds ``group`` takes.

    ``parse`` is argparse's ``type``, so text it cannot read is a usage error; ``None`` makes a switch.
    ``value`` turns what it read into the value of ``field`` after parsing, so a value the settings reject is
    a data error. ``text`` writes a value of the field as the flag's text; the flag's default is the text of
    the field's default.
    """
    group: str
    flag: str
    field: str  # dotted, from the settings object
    parse: Callable[[str], Any] | None = int
    value: Callable[[Any], Any] = lambda v: v
    text: Callable[[Any], str] = str
    choices: tuple | None = None
    help: str | None = None


def _or_word(parse: Callable[[str], Any], word: str) -> Callable[[str], Any]:
    """``parse``, except that ``word`` reads as itself."""
    def read(text: str):
        return text if text == word else parse(text)
    read.__name__ = f"{parse.__name__} or {word!r}"  # the type argparse names in a usage error
    return read


def _pi_over(flag: str, field: str, help: str) -> _Flag:
    """A step or range of the orientation search, set as pi/N."""
    def value(n):
        if n == 0:
            raise ValueError(f"{flag} must be nonzero")
        return math.pi / float(n)
    return _Flag("flow", flag, field, _or_word(int, "inf"), value,
                 lambda step: "inf" if step == 0 else str(round(math.pi / step)), help=help)


# one row per settable value of PipelineConfig and SyntheticSpec, but synth's --width and --height
_FLAGS = (
    _Flag("pipeline", "--iterations", "iterations"),
    _Flag("flow", "--stride", "flow.stride", help="grid stride in pixels"),
    _Flag("flow", "--tangent-half", "flow.tangent_half_length", help="tangent segment half length"),
    _Flag("flow", "--perp-half", "flow.perp_half_length", help="perpendicular segment half length"),
    _pi_over("--coarse-step-denom", "flow.coarse_step", "coarse angular step = pi/N"),
    _pi_over("--fine-step-denom", "flow.fine_step", "fine angular step = pi/N"),
    _pi_over("--fine-half-range-denom", "flow.fine_half_range", "fine search half range = pi/N; inf for no fine phase"),
    _Flag("flow", "--bg-var-threshold", "flow.background_variance_threshold", float,
          help="background patch-variance threshold"),
    _Flag("flow", "--no-half-line-rule", "flow.use_half_line_rule", None, operator.not_, lambda on: str(not on),
          help="use full-segment deviations only"),
    _Flag("flow", "--method", "flow_method", str, choices=FLOW_METHODS),
    _Flag("flow", "--grad-window-half", "flow.gradient_window_half", help="structure tensor window half size"),
    _Flag("flow", "--grad-weight-sigma", "flow.gradient_weight_sigma", _or_word(float, "none"),
          lambda s: None if s == "none" else s, lambda s: "none" if s is None else str(s),
          help="structure tensor Gaussian weight sigma; none for uniform weights"),
    _Flag("flow", "--coherence-threshold", "flow.coherence_threshold", float, help="tensor coherence validity cutoff"),
    _Flag("binarize", "--bin-half", "binarize.line_half_length", help="binarization segment half length"),
    _Flag("binarize", "--path", "path_mode", str, choices=tuple(PATHS), help="sampling path geometry"),
    _Flag("enhance", "--sigma", "enhance.gaussian_sigma", float, help="smoothing Gaussian sigma"),
    _Flag("enhance", "--kernel-half", "enhance.kernel_half_length", help="smoothing kernel half length"),
    _Flag("synth", "--pattern", "pattern", str, choices=PATTERNS),
    _Flag("synth", "--period", "period", float),
    # a non-finite angle is passed on as read, for SyntheticSpec to name
    _Flag("synth", "--orientation-deg", "orientation", float,
          lambda deg: math.radians(deg) % math.pi if math.isfinite(deg) else deg,
          lambda theta: str(math.degrees(theta)), help="ridge direction in degrees"),
    _Flag("synth", "--amplitude", "amplitude", float),
    _Flag("synth", "--offset", "offset", float),
    _Flag("synth", "--noise-sigma", "noise_sigma", float),
    _Flag("synth", "--seed", "rng_seed"),
)


def _settings(args, base):
    """``base`` with the field of each row the subcommand takes set from its flag in ``args``."""
    changes: dict[str, dict[str, Any]] = {}
    for row in _FLAGS:
        if row.group in _COMMANDS[args.command].groups:
            owner, _, name = row.field.rpartition(".")
            changes.setdefault(owner, {})[name] = row.value(getattr(args, row.flag[2:].replace("-", "_")))
    top = changes.pop("", {})
    return replace(base, **top, **{owner: replace(getattr(base, owner), **kw) for owner, kw in changes.items()})


def build_parser() -> argparse.ArgumentParser:
    d = PipelineConfig()
    parser = argparse.ArgumentParser(prog="ridgeflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=command.help) for name, command in _COMMANDS.items()}
    p["flow"].add_argument("--out", help="output flow CSV path")
    p["binarize"].add_argument("--out", help="output PGM (0 = ridge, 255 = valley)")
    p["enhance"].add_argument("--out", help="output PGM")
    p["pipeline"].add_argument("--out-prefix", help="prefix for flow_K.csv, bin_K.pgm, enh_K.pgm outputs")
    for command in ("binarize", "enhance", "pipeline"):
        p[command].add_argument("--invert-polarity", action="store_true", help="treat bright lines as ridges")
    p["compare"].add_argument("--truth", help="ground-truth flow CSV")
    p["compare"].add_argument("--out", help="per-site comparison CSV")
    p["compare"].add_argument("--interior-margin", type=float, help="skip sites within this many pixels of the border")
    p["synth"].add_argument("--out", help="output PGM path")
    p["synth"].add_argument("--truth-out", help="ground-truth flow CSV path")
    p["synth"].add_argument("--width", type=int, default=128)
    p["synth"].add_argument("--height", type=int, default=128)
    p["synth"].add_argument("--stride", type=int, default=d.flow.stride, help="truth grid stride")
    p["viz"].add_argument("--flow", help="flow CSV to draw; computed with the flags below when omitted")
    p["viz"].add_argument("--out", help="output SVG path")
    for command in p:
        if command != "synth":  # synth makes its image; every other subcommand reads one
            p[command].add_argument("input", help="input PGM image")
        for row in (row for row in _FLAGS if row.group in _COMMANDS[command].groups):
            if row.parse is None:
                p[command].add_argument(row.flag, action="store_true", help=row.help)
            else:  # argparse reads a text default as it reads a given one
                default = reduce(getattr, row.field.split("."), SyntheticSpec if command == "synth" else d)
                p[command].add_argument(row.flag, type=row.parse, choices=row.choices, help=row.help,
                                        default=row.text(default))
        p[command].add_argument("--print-config", action="store_true", help="print effective flag values and exit")
    return parser


def _pipeline_config(args) -> PipelineConfig:
    return _settings(args, PipelineConfig())


def _require_out(args, attr: str) -> str:
    value = getattr(args, attr)
    if not value:
        raise ValueError(f"{args.command} requires --{attr.replace('_', '-')}")
    return value


def _classify(image: GrayImage, args):
    """Config, flow and binary image, honoring --path and --invert-polarity."""
    cfg = _pipeline_config(args)
    flow = _flow_for(image, cfg)
    source = invert(image) if args.invert_polarity else image
    return cfg, flow, _binarize_image(source, flow, cfg.binarize, PATHS[cfg.path_mode])


def _cmd_flow(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out")
    field = _flow_for(image, _pipeline_config(args))
    save_flow_csv(field, out)
    return 0


def _cmd_binarize(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out")
    save_pgm(binary_as_gray(_classify(image, args)[2]), out)
    return 0


def _cmd_enhance(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out")
    cfg, flow, binary = _classify(image, args)
    save_pgm(GrayImage._of_bytes(_enhance(image, binary, flow, PATHS[cfg.path_mode], cfg.enhance, True)), out)
    return 0


def _cmd_pipeline(args) -> int:
    image = load_pgm(args.input)
    prefix = _require_out(args, "out_prefix")
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
    out = _require_out(args, "out")
    spec = _settings(args, SyntheticSpec(width=args.width, height=args.height))
    image, truth = generate(spec, stride=args.stride)
    save_pgm(image, out)
    if args.truth_out:
        save_flow_csv(truth, args.truth_out)
    return 0


def _cmd_viz(args) -> int:
    image = load_pgm(args.input)
    out = _require_out(args, "out")
    flow = load_flow_csv(args.flow) if args.flow else _flow_for(image, _pipeline_config(args))
    render_flow_overlay(image, flow, out)
    return 0


# one row per subcommand, from which the parser and, with _FLAGS, each run's settings are built
_COMMANDS = {
    "flow": _Command(_cmd_flow, "estimate an orientation flow field", ("flow",)),
    "binarize": _Command(_cmd_binarize, "classify pixels into ridge/valley", ("flow", "binarize")),
    "enhance": _Command(_cmd_enhance, "directionally smooth an image", ("flow", "binarize", "enhance")),
    "pipeline": _Command(_cmd_pipeline, "iterate flow -> binarize -> enhance",
                         ("pipeline", "flow", "binarize", "enhance")),
    "compare": _Command(_cmd_compare, "projection vs gradient flow on one image", ("flow",)),
    "synth": _Command(_cmd_synth, "generate a synthetic ridge pattern", ("synth",)),
    "viz": _Command(_cmd_viz, "render a flow field over its image as SVG", ("flow",)),
}


def _print_config(args) -> None:
    for key, value in sorted(vars(args).items()):
        if key not in ("command", "print_config"):
            print(f"{key}={'' if value is None else value}")


def run_cli(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse has printed the help (0) or the usage and its error (2)
        return 1 if exit_.code == 2 else int(exit_.code or 0)
    if args.print_config:
        _print_config(args)
        return 0
    try:
        return _COMMANDS[args.command].run(args)
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
