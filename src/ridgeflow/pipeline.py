"""Iterative flow -> binarize -> enhance scheme and the method comparison harness.

Each iteration recomputes the orientation flow on its input image, binarizes
with it, then smooths along the flow; the enhanced image feeds the next
iteration. Binarization happens before enhancement inside an iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binarize import BinarizeConfig, _line_path
from .contour import _trace_path
from .enhance import EnhanceConfig, _sweep
from .flowfield import FlowField, angular_distance, check_flow_grid, interior_site_mask
from .gradient import compute_flow_field_gradient
from .image import BinaryImage, GrayImage, _check_sizes
from .projection import FlowConfig, compute_flow_field

PATHS = {"linear": _line_path, "contour": _trace_path}  # the sampling path of each ``path_mode``
FLOW_METHODS = ("projection", "gradient")


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen, as each stage's settings are: a variant is made with ``dataclasses.replace``, which checks it again."""
    iterations: int = 2
    path_mode: str = "linear"
    flow_method: str = "projection"
    flow: FlowConfig = FlowConfig()
    binarize: BinarizeConfig = BinarizeConfig()
    enhance: EnhanceConfig = EnhanceConfig()

    def __post_init__(self):
        _check_sizes(1, "iterations must be >= 1", iterations=self.iterations)
        for name, kind in (("flow", FlowConfig), ("binarize", BinarizeConfig), ("enhance", EnhanceConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be an instance of {kind.__name__}, got {getattr(self, name)!r}")
        if self.path_mode not in tuple(PATHS):  # not the dict, whose lookup raises TypeError for a list
            raise ValueError(f"path_mode must be one of {tuple(PATHS)}")
        if self.flow_method not in FLOW_METHODS:
            raise ValueError(f"flow_method must be one of {FLOW_METHODS}")


@dataclass(eq=False)
class IterationRecord:
    flow: FlowField
    binary: BinaryImage
    enhanced: GrayImage


@dataclass(eq=False)
class PipelineResult:
    records: list[IterationRecord]

    @property
    def final_flow(self) -> FlowField:
        return self.records[-1].flow

    @property
    def final_binary(self) -> BinaryImage:
        return self.records[-1].binary

    @property
    def final_enhanced(self) -> GrayImage:
        return self.records[-1].enhanced


def _flow_for(image: GrayImage, cfg: PipelineConfig) -> FlowField:
    # the module-global names, looked up at each call, so a wrapper bound to either name is the one called
    return (compute_flow_field if cfg.flow_method == "projection" else compute_flow_field_gradient)(image, cfg.flow)


def run_iteration(image: GrayImage, cfg: PipelineConfig = PipelineConfig()) -> tuple[FlowField, BinaryImage, GrayImage]:
    """One pass: flow, then binarize with it and enhance the input image, in one shared sweep."""
    flow = _flow_for(image, cfg)
    bits, enhanced = _sweep(image, flow, PATHS[cfg.path_mode], cfg.binarize, cfg.enhance)
    return flow, BinaryImage._of_bits(bits), GrayImage._of_bytes(enhanced)


def run_pipeline(image: GrayImage, cfg: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Run ``cfg.iterations`` passes, feeding each enhanced image onward."""
    records = []
    current = image
    for _ in range(cfg.iterations):
        flow, binary, enhanced = run_iteration(current, cfg)
        records.append(IterationRecord(flow, binary, enhanced))
        current = enhanced
    return PipelineResult(records)


# ---------------------------------------------------------------------------
# Method comparison


@dataclass(eq=False)
class ComparisonReport:
    """Projection vs gradient flow on one grid, optionally against a truth field.

    MAEs are computed over sites where both methods are valid (the comparable
    set), further restricted to truth validity and the interior margin when
    given; they are None when no site is left.
    """

    projection: FlowField
    gradient: FlowField
    truth: FlowField | None
    mae_projection: float | None
    mae_gradient: float | None
    mean_disagreement: float | None
    n_sites: int


def compare_methods(
    image: GrayImage,
    truth: FlowField | None = None,
    cfg: PipelineConfig = PipelineConfig(),
    interior_margin: float | None = None,
) -> ComparisonReport:
    if interior_margin is not None and not math.isfinite(interior_margin):
        raise ValueError(f"interior_margin must be finite, got {interior_margin}")
    if truth is not None:  # before the two flows, which are the costly part
        check_flow_grid(truth, image.width, image.height)
        if truth.stride != cfg.flow.stride:
            raise ValueError(f"truth field stride {truth.stride} does not match the flow stride {cfg.flow.stride}")
    proj = compute_flow_field(image, cfg.flow)
    grad = compute_flow_field_gradient(image, cfg.flow)

    comparable = proj.valid & grad.valid
    if interior_margin is not None:
        comparable &= interior_site_mask(proj, image.width, image.height, interior_margin)
    if truth is not None:
        comparable &= truth.valid
    n = int(comparable.sum())
    if not n:
        return ComparisonReport(proj, grad, truth, None, None, None, 0)
    tp = proj.angles[comparable]
    tg = grad.angles[comparable]
    mean_dis = float(angular_distance(tp, tg).mean())
    if truth is None:
        return ComparisonReport(proj, grad, truth, None, None, mean_dis, n)
    tt = truth.angles[comparable]
    mae_p = float(angular_distance(tp, tt).mean())
    mae_g = float(angular_distance(tg, tt).mean())
    return ComparisonReport(proj, grad, truth, mae_p, mae_g, mean_dis, n)


def save_comparison_csv(report: ComparisonReport, path) -> None:
    """Per-site detail rows, written one grid row at a time; empty cells where a quantity is undefined."""
    proj, grad, truth = report.projection, report.gradient, report.truth
    xs = [f"{x:g}" for x in proj.site_xs().tolist()]
    with Path(path).open("w", encoding="ascii") as f:
        f.write("site_x,site_y,theta_projection,theta_gradient,theta_truth,err_projection,err_gradient\n")
        for iy, y in enumerate(proj.site_ys().tolist()):
            p, g = (proj.angles[iy], proj.valid[iy]), (grad.angles[iy], grad.valid[iy])
            if truth is None:
                columns = [p, g] + [(p[0], np.zeros_like(p[1]))] * 3  # truth and errors undefined everywhere
            else:
                t = (truth.angles[iy], truth.valid[iy])
                columns = [p, g, t, (angular_distance(p[0], t[0]), p[1] & t[1]),
                           (angular_distance(g[0], t[0]), g[1] & t[1])]
            cells = [[f"{a:.6f}" if ok else "" for a, ok in zip(v.tolist(), m.tolist())] for v, m in columns]
            f.write("".join(",".join([x, f"{y:g}", *row]) + "\n" for x, *row in zip(xs, *cells)))


def summary_lines(report: ComparisonReport) -> list[str]:
    """A header and one row: the two MAEs when truth is given, else the methods' mean disagreement; empty cells
    where no site is left."""
    names = ["mae_projection", "mae_gradient"] if report.truth is not None else ["mean_disagreement"]
    cells = ["" if v is None else f"{v:.6f}" for v in (getattr(report, name) for name in names)]
    return [",".join(names + ["n_sites"]), ",".join(cells + [str(report.n_sites)])]
