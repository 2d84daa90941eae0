"""Iterative flow -> binarize -> enhance scheme and the method comparison harness.

Each iteration recomputes the orientation flow on its input image, binarizes
with it, then smooths along the flow; the enhanced image feeds the next
iteration. Binarization happens before enhancement inside an iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .binarize import BinarizeConfig, binarize_image
from .contour import binarize_image_contour, enhance_image_contour
from .enhance import EnhanceConfig, enhance_image
from .flowfield import FlowField, angular_distance, check_flow_grid, interior_site_mask
from .gradient import check_window, compute_flow_field_gradient
from .image import BinaryImage, GrayImage
from .projection import FlowConfig, compute_flow_field

PATH_MODES = ("linear", "contour")
FLOW_METHODS = ("projection", "gradient")


@dataclass
class PipelineConfig:
    iterations: int = 2
    path_mode: str = "linear"
    flow_method: str = "projection"
    flow: FlowConfig = field(default_factory=FlowConfig)
    binarize: BinarizeConfig = field(default_factory=BinarizeConfig)
    enhance: EnhanceConfig = field(default_factory=EnhanceConfig)
    gradient_window_half: int = 8
    gradient_weight_sigma: float | None = 4.0
    coherence_threshold: float = 0.1

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.path_mode not in PATH_MODES:
            raise ValueError(f"path_mode must be one of {PATH_MODES}")
        if self.flow_method not in FLOW_METHODS:
            raise ValueError(f"flow_method must be one of {FLOW_METHODS}")
        check_window(self.gradient_window_half, self.gradient_weight_sigma)
        if not math.isfinite(self.coherence_threshold):
            raise ValueError(f"coherence_threshold must be finite, got {self.coherence_threshold}")


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
    if cfg.flow_method == "projection":
        return compute_flow_field(image, cfg.flow)
    return compute_flow_field_gradient(
        image,
        cfg.flow,
        window_half=cfg.gradient_window_half,
        weight_sigma=cfg.gradient_weight_sigma,
        coherence_threshold=cfg.coherence_threshold,
    )


def run_iteration(image: GrayImage, cfg: PipelineConfig | None = None) -> tuple[FlowField, BinaryImage, GrayImage]:
    """One pass: flow, then binarize with it, then enhance the input image."""
    cfg = cfg or PipelineConfig()
    flow = _flow_for(image, cfg)
    if cfg.path_mode == "contour":
        binary = binarize_image_contour(image, flow, cfg.binarize)
        enhanced = enhance_image_contour(image, binary, flow, cfg.enhance)
    else:
        binary = binarize_image(image, flow, cfg.binarize)
        enhanced = enhance_image(image, binary, flow, cfg.enhance)
    return flow, binary, enhanced


def run_pipeline(image: GrayImage, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Run ``cfg.iterations`` passes, feeding each enhanced image onward."""
    cfg = cfg or PipelineConfig()
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
    cfg: PipelineConfig | None = None,
    interior_margin: float | None = None,
) -> ComparisonReport:
    cfg = cfg or PipelineConfig()
    if interior_margin is not None and not math.isfinite(interior_margin):
        raise ValueError(f"interior_margin must be finite, got {interior_margin}")
    if truth is not None:  # before the two flows, which are the costly part
        check_flow_grid(truth, image.width, image.height)
        if truth.stride != cfg.flow.stride:
            raise ValueError(f"truth field stride {truth.stride} does not match the flow stride {cfg.flow.stride}")
    proj = _flow_for(image, replace(cfg, flow_method="projection"))
    grad = _flow_for(image, replace(cfg, flow_method="gradient"))

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
    """Per-site detail rows; empty cells where a quantity is undefined."""
    proj, grad, truth = report.projection, report.gradient, report.truth
    columns = [(proj.angles, proj.valid), (grad.angles, grad.valid)]
    if truth is None:
        columns += [(proj.angles, np.zeros_like(proj.valid))] * 3  # truth and errors undefined everywhere
    else:
        columns += [
            (truth.angles, truth.valid),
            (angular_distance(proj.angles, truth.angles), proj.valid & truth.valid),
            (angular_distance(grad.angles, truth.angles), grad.valid & truth.valid),
        ]
    lines = ["site_x,site_y,theta_projection,theta_gradient,theta_truth,err_projection,err_gradient"]
    xs = proj.site_xs()
    for iy, y in enumerate(proj.site_ys()):
        for ix, x in enumerate(xs):
            cells = [f"{v[iy, ix]:.6f}" if ok[iy, ix] else "" for v, ok in columns]
            lines.append(",".join([f"{x:g}", f"{y:g}"] + cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def summary_lines(report: ComparisonReport) -> list[str]:
    if report.mae_projection is not None:
        return [
            "mae_projection,mae_gradient,n_sites",
            f"{report.mae_projection:.6f},{report.mae_gradient:.6f},{report.n_sites}",
        ]
    dis = "" if report.mean_disagreement is None else f"{report.mean_disagreement:.6f}"
    return ["mean_disagreement,n_sites", f"{dis},{report.n_sites}"]
