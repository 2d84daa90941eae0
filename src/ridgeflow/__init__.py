"""Ridge orientation flow estimation, directional binarization and enhancement.

The core estimator finds, per location, the angle whose short perpendicular
cross-sections have the smallest mean standard deviation of intensity; the
ridge direction is that angle plus pi/2. A structure-tensor baseline, a
binarizer, a flow-guided smoother, contour tracing, an iterative pipeline
and a synthetic-pattern harness round out the toolkit.
"""

from .binarize import BinarizeConfig, binarize_image
from .contour import (
    ContourPath,
    binarize_image_contour,
    contour_enhance_values,
    enhance_image_contour,
    trace_contour,
)
from .enhance import EnhanceConfig, enhance_image, enhance_values
from .flowfield import (
    FlowField,
    angles_at,
    angular_distance,
    interior_site_mask,
    load_flow_csv,
    save_flow_csv,
)
from .gradient import compute_flow_field_gradient
from .image import (
    BinaryImage,
    GrayImage,
    PgmFormatError,
    Point,
    binary_as_gray,
    invert,
    load_pgm,
    save_pgm,
)
from .pipeline import (
    ComparisonReport,
    IterationRecord,
    PipelineConfig,
    PipelineResult,
    compare_methods,
    run_iteration,
    run_pipeline,
    save_comparison_csv,
    summary_lines,
)
from .projection import FlowConfig, compute_flow_field, patch_variance_grid
from .synth import SyntheticSpec, generate
from .viz import render_flow_overlay

__all__ = [
    "BinarizeConfig",
    "BinaryImage",
    "ComparisonReport",
    "ContourPath",
    "EnhanceConfig",
    "FlowConfig",
    "FlowField",
    "GrayImage",
    "IterationRecord",
    "PgmFormatError",
    "PipelineConfig",
    "PipelineResult",
    "Point",
    "SyntheticSpec",
    "angles_at",
    "angular_distance",
    "binarize_image",
    "binarize_image_contour",
    "binary_as_gray",
    "compare_methods",
    "compute_flow_field",
    "compute_flow_field_gradient",
    "contour_enhance_values",
    "enhance_image",
    "enhance_image_contour",
    "enhance_values",
    "generate",
    "interior_site_mask",
    "invert",
    "load_flow_csv",
    "load_pgm",
    "patch_variance_grid",
    "render_flow_overlay",
    "run_iteration",
    "run_pipeline",
    "save_comparison_csv",
    "save_flow_csv",
    "save_pgm",
    "summary_lines",
    "trace_contour",
]
