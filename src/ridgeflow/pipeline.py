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
from .flowfield import FlowField, angular_distance, interior_site_mask
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

    Angular errors are NaN where undefined. MAEs are computed over sites where
    both methods are valid (the comparable set), further restricted to truth
    validity and the interior margin when given.
    """

    xs: np.ndarray
    ys: np.ndarray
    theta_projection: np.ndarray
    valid_projection: np.ndarray
    theta_gradient: np.ndarray
    valid_gradient: np.ndarray
    theta_truth: np.ndarray | None
    valid_truth: np.ndarray | None
    err_projection: np.ndarray | None
    err_gradient: np.ndarray | None
    disagreement: np.ndarray
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
    proj = _flow_for(image, replace(cfg, flow_method="projection"))
    grad = _flow_for(image, replace(cfg, flow_method="gradient"))

    gh, gw = proj.angles.shape
    xs = np.tile(proj.site_xs(), gh)
    ys = np.repeat(proj.site_ys(), gw)
    tp = proj.angles.ravel()
    vp = proj.valid.ravel()
    tg = grad.angles.ravel()
    vg = grad.valid.ravel()

    comparable = vp & vg
    if interior_margin is not None:
        comparable &= interior_site_mask(proj, image.width, image.height, interior_margin).ravel()
    disagreement = np.where(comparable, angular_distance(tp, tg), np.nan)

    if truth is not None:
        if truth.angles.shape != proj.angles.shape or truth.stride != proj.stride:
            raise ValueError("truth field grid does not match the computed grid")
        tt = truth.angles.ravel()
        vt = truth.valid.ravel()
        scored = comparable & vt
        ep = np.where(vp & vt, angular_distance(tp, tt), np.nan)
        eg = np.where(vg & vt, angular_distance(tg, tt), np.nan)
        n = int(scored.sum())
        mae_p = float(angular_distance(tp[scored], tt[scored]).mean()) if n else None
        mae_g = float(angular_distance(tg[scored], tt[scored]).mean()) if n else None
        mean_dis = float(disagreement[scored].mean()) if n else None
        return ComparisonReport(
            xs, ys, tp, vp, tg, vg, tt, vt, ep, eg, disagreement, mae_p, mae_g, mean_dis, n
        )

    n = int(comparable.sum())
    mean_dis = float(disagreement[comparable].mean()) if n else None
    return ComparisonReport(
        xs, ys, tp, vp, tg, vg, None, None, None, None, disagreement, None, None, mean_dis, n
    )


def _cell(value: float | None, defined: bool) -> str:
    return f"{value:.6f}" if defined else ""


def save_comparison_csv(report: ComparisonReport, path) -> None:
    """Per-site detail rows; empty cells where a quantity is undefined."""
    lines = ["site_x,site_y,theta_projection,theta_gradient,theta_truth,err_projection,err_gradient"]
    for i in range(report.xs.size):
        cells = [
            f"{report.xs[i]:g}",
            f"{report.ys[i]:g}",
            _cell(report.theta_projection[i], bool(report.valid_projection[i])),
            _cell(report.theta_gradient[i], bool(report.valid_gradient[i])),
        ]
        if report.theta_truth is not None:
            cells.append(_cell(report.theta_truth[i], bool(report.valid_truth[i])))
            cells.append(_cell(report.err_projection[i], not math.isnan(report.err_projection[i])))
            cells.append(_cell(report.err_gradient[i], not math.isnan(report.err_gradient[i])))
        else:
            cells.extend(["", "", ""])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def summary_lines(report: ComparisonReport) -> list[str]:
    if report.mae_projection is not None:
        return [
            "mae_projection,mae_gradient,n_sites",
            f"{report.mae_projection:.6f},{report.mae_gradient:.6f},{report.n_sites}",
        ]
    dis = "" if report.mean_disagreement is None else f"{report.mean_disagreement:.6f}"
    return ["mean_disagreement,n_sites", f"{dis},{report.n_sites}"]
