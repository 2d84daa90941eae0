"""Print one sha256 over ridgeflow's outputs, to check a refactor changes no byte.

Run from the repository root with ``PYTHONPATH=src python tests/output_digest.py``
on two checkouts and compare the printed digests. It covers, for the three
synthetic patterns at two sizes and grid strides 1-3: the synthetic image and
its truth flow, both flow methods, both pipeline paths at three settings of
the binarize and enhance half lengths, the standalone stages
(``binarize_image``, ``binarize_image_contour``, ``enhance_values``,
``contour_enhance_values``, ``enhance_image`` and ``enhance_image_contour``)
at the same settings, ``binarize_pixel`` and ``enhance_pixel`` of
``oracles`` (the band kernels run on one point, which the library does not
export) at pixel centres, sub-pixel, off-raster and NaN points for a few
angles, ``trace_contour`` from a few seeds with and without bounds, the flow CSV bytes,
the comparison CSV and summary lines with and without truth, and the
interior site mask; then projection flows at the default settings of a
parallel and a concentric image large enough that every coarse angle's map
spans several row bands, with gradient flows of both at strides 1-3 and
four window settings, whose tensor sums span several bands of site rows,
and a projection flow of an image whose sites all lie below its
flat top, so the search's first band of sites starts far below the canvas
top; then the files and standard output of a set of CLI
runs, each path of binarize and enhance among them. There is no golden
value: float bytes may differ across platforms and library builds, so the
script prints numpy's version and the CPU dispatch targets it runs with to
standard error, and only the digest to standard output.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import ridgeflow as rf
from ridgeflow.cli import run_cli

from oracles import binarize_pixel, enhance_pixel

SIZES = ((48, 51), (67, 64))
STRIDES = (1, 2, 3)
# (binarize, enhance half lengths, Gaussian sigma): the defaults, then the
# binarize half longer than the enhance half, and both short
HALF_LENGTHS = ((4, 9, 3.0), (6, 4, 2.0), (1, 2, 1.0))
PATTERNS = ("parallel", "concentric", "half_plane_stripe")
# Every coarse angle's sites at this size span two to four bands of
# ``projection._MAP_BAND_PIXELS`` (most fine angles' sites two or more), so a
# slip in the 2s canvas rows that neighbouring bands both read changes the
# digest.
BANDED_SIZE = (256, 200)
# (window half, weight sigma) of the gradient flows of the banded images: the
# defaults, the centre tap alone, uniform weights, and a wide window whose
# Gaussian keeps only its middle taps. At stride 1 the tensor sums of this
# size take seven bands of ``image.BAND_PIXELS`` sites.
GRADIENT_WINDOWS = ((8, 4.0), (0, 4.0), (3, None), (12, 0.3))
# Ridges at 3pi/4 under 200 flat rows: the fine calls, near pi/4, begin two
# or more map bands below the canvas top, and read none of the rows above.
DEEP_SIZE, DEEP_FLAT_ROWS = (256, 320), 200


def _flow(h, flow: rf.FlowField) -> None:
    h.update(f"flow {flow.angles.shape} {flow.stride}".encode())
    h.update(flow.angles.tobytes())
    h.update(flow.valid.tobytes())
    if flow.coherence is not None:
        h.update(flow.coherence.tobytes())


def _library(h, tmp: Path) -> None:
    for pattern in PATTERNS:
        for width, height in SIZES:
            for stride in STRIDES:
                spec = rf.SyntheticSpec(width=width, height=height, pattern=pattern, orientation=0.7,
                                        noise_sigma=20.0, rng_seed=width + stride)
                image, truth = rf.generate(spec, stride)
                h.update(f"case {pattern} {width}x{height} stride {stride}".encode())
                h.update(image.pixels.tobytes())
                _flow(h, truth)
                cfg = rf.PipelineConfig(flow=rf.FlowConfig(stride=stride))
                proj = rf.compute_flow_field(image, cfg.flow)
                _flow(h, proj)
                _flow(h, rf.compute_flow_field_gradient(image, cfg.flow))
                for (kb, ke, sigma), path in itertools.product(HALF_LENGTHS, ("linear", "contour")):
                    run_cfg = replace(cfg, path_mode=path, binarize=rf.BinarizeConfig(kb),
                                      enhance=rf.EnhanceConfig(gaussian_sigma=sigma, kernel_half_length=ke))
                    for rec in rf.run_pipeline(image, run_cfg).records:
                        _flow(h, rec.flow)
                        h.update(rec.binary.bits.tobytes())
                        h.update(rec.enhanced.pixels.tobytes())
                for kb, ke, sigma in HALF_LENGTHS:
                    binary = rf.binarize_image_contour(image, proj, rf.BinarizeConfig(kb))
                    h.update(binary.bits.tobytes())
                    ecfg = rf.EnhanceConfig(gaussian_sigma=sigma, kernel_half_length=ke)
                    h.update(rf.enhance_values(image, binary, proj, ecfg).tobytes())
                    h.update(rf.contour_enhance_values(image, binary, proj, ecfg).tobytes())
                    linear = rf.binarize_image(image, proj, rf.BinarizeConfig(kb))
                    h.update(linear.bits.tobytes())
                    h.update(rf.enhance_image(image, linear, proj, ecfg).pixels.tobytes())
                    h.update(rf.enhance_image_contour(image, binary, proj, ecfg).pixels.tobytes())
                    _single_points(h, image, linear, rf.BinarizeConfig(kb), ecfg)
                _traces(h, proj, width, height)
                csv = tmp / "flow.csv"
                rf.save_flow_csv(proj, csv)
                h.update(csv.read_bytes())
                _flow(h, rf.load_flow_csv(csv))
                for ref in (truth, None):
                    report = rf.compare_methods(image, ref, cfg, interior_margin=8.0)
                    rf.save_comparison_csv(report, tmp / "cmp.csv")
                    h.update((tmp / "cmp.csv").read_bytes())
                    h.update("\n".join(rf.summary_lines(report)).encode())
                h.update(rf.interior_site_mask(truth, width, height, 8.0).tobytes())


def _single_points(h, image: rf.GrayImage, binary: rf.BinaryImage, bcfg, ecfg) -> None:
    """``binarize_pixel`` and ``enhance_pixel`` at pixel centres, sub-pixel, off-raster and NaN points."""
    w, ht = image.width, image.height
    points = [(0.0, 0.0), (w - 1.0, ht - 1.0), (w // 2, ht // 3), (3.25, 4.5), (w - 1.5, 2.75),
              (-0.5, 3.0), (w + 2.0, ht / 2), (3.0, ht - 0.5), (math.nan, 5.0)]
    for (x, y), theta in itertools.product(points, (0.0, 0.7, math.pi / 2, 2.5)):
        p = rf.Point(float(x), float(y))
        value = enhance_pixel(image, binary, p, theta, ecfg)
        h.update(f"pixel {p} {theta!r} {binarize_pixel(image, p, theta, bcfg)} {value!r}".encode())


def _traces(h, flow: rf.FlowField, width: int, height: int) -> None:
    """``trace_contour`` from a few seeds, with and without bounds."""
    for seed, bounds in itertools.product([(2.0, 3.0), (width / 2, height / 2), (width - 1.25, 0.5)],
                                          (None, (width, height))):
        path = rf.trace_contour(flow, rf.Point(*seed), 12, bounds)
        h.update(f"trace {seed} {bounds} {path.seed_index} {[(q.x, q.y) for q in path.points]!r}".encode())


def _banded(h) -> None:
    width, height = BANDED_SIZE
    for pattern in ("parallel", "concentric"):
        spec = rf.SyntheticSpec(width=width, height=height, pattern=pattern, orientation=0.7,
                                noise_sigma=40.0, rng_seed=7)
        image, _ = rf.generate(spec)
        h.update(f"banded {pattern} {width}x{height}".encode())
        h.update(image.pixels.tobytes())
        _flow(h, rf.compute_flow_field(image))
        for stride, (half, sigma) in itertools.product(STRIDES, GRADIENT_WINDOWS):
            h.update(f"gradient stride {stride} window {half} sigma {sigma}".encode())
            cfg = rf.FlowConfig(stride=stride, gradient_window_half=half, gradient_weight_sigma=sigma)
            _flow(h, rf.compute_flow_field_gradient(image, cfg))
    width, height = DEEP_SIZE
    spec = rf.SyntheticSpec(width=width, height=height, pattern="parallel", orientation=3 * math.pi / 4,
                            noise_sigma=40.0, rng_seed=7)
    pixels = rf.generate(spec)[0].pixels.copy()
    pixels[:DEEP_FLAT_ROWS] = 128
    h.update(f"deep {width}x{height}".encode())
    h.update(pixels.tobytes())
    _flow(h, rf.compute_flow_field(rf.GrayImage(pixels)))


def _cli(h, tmp: Path) -> None:
    runs = [
        ["synth", "--out", "in.pgm", "--truth-out", "truth.csv", "--width", "64", "--height", "67",
         "--pattern", "concentric", "--noise-sigma", "20", "--seed", "3"],
        ["flow", "in.pgm", "--out", "flow.csv"],
        ["flow", "in.pgm", "--out", "flow_gradient.csv", "--method", "gradient"],
        ["flow", "in.pgm", "--out", "flow_full.csv", "--no-half-line-rule", "--stride", "3"],
        ["binarize", "in.pgm", "--out", "bin.pgm"],
        ["binarize", "in.pgm", "--out", "bin_contour.pgm", "--path", "contour"],
        ["binarize", "in.pgm", "--out", "bin_inverted.pgm", "--invert-polarity"],
        ["enhance", "in.pgm", "--out", "enh.pgm"],
        ["enhance", "in.pgm", "--out", "enh_contour.pgm", "--path", "contour"],
        ["enhance", "in.pgm", "--out", "enh_contour_inverted.pgm", "--path", "contour", "--invert-polarity"],
        ["pipeline", "in.pgm", "--out-prefix", "lin/"],
        ["pipeline", "in.pgm", "--out-prefix", "con/", "--path", "contour", "--iterations", "1"],
        ["pipeline", "in.pgm", "--out-prefix", "con_halves/", "--path", "contour", "--bin-half", "6",
         "--kernel-half", "4", "--sigma", "2"],
        ["compare", "in.pgm", "--truth", "truth.csv", "--out", "cmp.csv", "--interior-margin", "8"],
        ["compare", "in.pgm"],
        ["viz", "in.pgm", "--out", "viz.svg"],
        ["viz", "in.pgm", "--flow", "truth.csv", "--out", "viz_truth.svg"],
    ]
    for argv in runs:
        argv = [str(tmp / a) if a.endswith((".pgm", ".csv", ".svg", "/")) else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = run_cli(argv)
        if rc != 0:
            raise SystemExit(f"ridgeflow {' '.join(argv)} exited {rc}")
        h.update(f"{argv[0]} {rc}\n{stdout.getvalue()}".encode())
    for f in sorted(p for p in tmp.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(tmp)).encode())
        h.update(f.read_bytes())


def _numpy_build() -> str:
    """numpy's version and the CPU dispatch targets it runs with, either of which may change float bytes."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__}, CPU dispatch targets {targets}"


def main() -> None:
    print(_numpy_build(), file=sys.stderr)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as lib, tempfile.TemporaryDirectory() as cli:
        _library(h, Path(lib))
        _banded(h)
        _cli(h, Path(cli))
    print(h.hexdigest())


if __name__ == "__main__":
    main()
