"""Independent helpers shared by the test modules.

These deliberately re-derive values with plain loops/formulas rather than
calling back into the code paths they check. The single-point entry points
are the exception: they run the library's band kernels on one point, so a
test can ask for one pixel's value and compare it with the image stages'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy import ndimage

import ridgeflow as rf
from ridgeflow.binarize import BinarizeConfig, _check_binary, _line_path, _nearest, _ridge
from ridgeflow.contour import _trace_path
from ridgeflow.enhance import EnhanceConfig, _blend, gaussian_kernel
from ridgeflow.flowfield import FlowField, _grid_sites, angles_at, check_flow_grid
from ridgeflow.gradient import _window_weights
from ridgeflow.image import GrayImage, Point, band_rows, bilinear_many, rotate_raster
from ridgeflow.projection import (
    _MAP_BAND_PIXELS,
    _STAT_OFFSET,
    FlowConfig,
    _search_orientations,
    _span_deviation,
    patch_variance_grid,
)

INTERIOR_MARGIN = 16  # tangent + perpendicular half lengths at defaults


# ---------------------------------------------------------------------------
# Helpers that only tests use, moved out of ``ridgeflow.image``


@dataclass
class LineSegment:
    """2*half_length+1 sample sites spaced evenly along a direction."""

    center: rf.Point
    angle: float
    half_length: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.half_length < 1:
            raise ValueError("half_length must be >= 1")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")


def line_points(seg: LineSegment) -> list[rf.Point]:
    """Sample sites of ``seg``, ordered; index ``half_length`` is the center."""
    ux = math.cos(seg.angle) * seg.spacing
    uy = math.sin(seg.angle) * seg.spacing
    cx, cy = seg.center
    return [rf.Point(cx + k * ux, cy + k * uy) for k in range(-seg.half_length, seg.half_length + 1)]


def rotate_image(image: rf.GrayImage, alpha: float) -> tuple[rf.GrayImage, np.ndarray]:
    """Rotate so lines at angle ``alpha`` become horizontal rows.

    Returns the rotated image and a validity mask; masked-out pixels were
    mapped from outside the source raster and hold value 0.
    """
    if not 0.0 <= alpha < math.pi:
        raise ValueError("alpha must lie in [0, pi)")
    rr = canvas(rotate_raster(image.as_float(), alpha).values)
    return rf.GrayImage.from_float(rr.values), rr.valid


def canvas(values: np.ndarray) -> SimpleNamespace:
    """A rotated canvas, NaN where a sample has no value, as the references read it.

    ``values`` holds 0.0 where the canvas is NaN, and ``valid`` is False there.
    """
    valid = ~np.isnan(values)
    return SimpleNamespace(values=np.where(valid, values, 0.0), valid=valid)


def squared_intensities(image: rf.GrayImage) -> np.ndarray:
    """Element-wise squared intensities, for one-pass variance Var = E[I^2] - E[I]^2."""
    f = image.as_float()
    return f * f


# ---------------------------------------------------------------------------
# Single-point entry points that only tests use, moved out of
# ``ridgeflow.image``, ``ridgeflow.flowfield``, ``ridgeflow.binarize``,
# ``ridgeflow.enhance`` and ``ridgeflow.contour``: the band kernels run on one point


def sample_bilinear(image: GrayImage, p: Point) -> float:
    """Bilinear intensity at ``p``; NaN when the sample needs out-of-raster pixels."""
    return float(bilinear_many(image.pixels, np.array([p[0]]), np.array([p[1]]))[0])


def angle_at(flow: FlowField, p: Point) -> float | None:
    """Interpolated orientation at a single point, or None where undefined."""
    theta, ok = angles_at(flow, np.array([p[0]]), np.array([p[1]]))
    return float(theta[0]) if bool(ok[0]) else None


def binarize_pixel(image: GrayImage, p: Point, theta: float, cfg: BinarizeConfig = BinarizeConfig()) -> int:
    """Bit at ``p`` given orientation ``theta`` (pi-periodic); a non-finite ``theta`` gives no orientation."""
    xs, ys = (np.array([c], dtype=np.float64) for c in p)
    theta = np.array([theta if math.isfinite(theta) else math.nan])
    return 0 if _ridge(image.pixels, _line_path, None, xs, ys, theta, cfg.line_half_length)[0] else 1


def enhance_pixel(
    image: GrayImage, binary: rf.BinaryImage, p: Point, theta: float, cfg: EnhanceConfig = EnhanceConfig()
) -> float:
    """Smoothed intensity at ``p`` (pre-rounding); where ``theta`` is not finite, the bilinear sample at ``p``,
    as the image stages pass an undefined pixel through, and NaN outside the raster, as ``sample_bilinear``."""
    _check_binary(image, binary)
    xs, ys = (np.array([c], dtype=np.float64) for c in p)
    sample = float(bilinear_many(image.pixels, xs, ys)[0])
    if math.isnan(sample) or not math.isfinite(theta):
        return sample
    weights = gaussian_kernel(cfg.gaussian_sigma, cfg.kernel_half_length)
    return float(_blend(image.pixels, binary.bits, _line_path, None, xs, ys, np.array([theta]), weights)[0])


def binarize_pixel_contour(image: GrayImage, p: Point, flow: FlowField, cfg: BinarizeConfig | None = None) -> int:
    """Like binarize_pixel, but the along-ridge mean follows the contour.

    The orthogonal mean stays on the straight perpendicular at the seed's
    orientation.
    """
    check_flow_grid(flow, image.width, image.height)
    xs, ys = (np.array([c], dtype=np.float64) for c in p)
    half = (cfg or BinarizeConfig()).line_half_length
    theta, defined = angles_at(flow, xs, ys)
    return 0 if _ridge(image.pixels, _trace_path, flow, xs, ys, np.where(defined, theta, np.nan), half)[0] else 1


def enhance_pixel_contour(
    image: GrayImage, binary: rf.BinaryImage, p: Point, flow: FlowField, cfg: EnhanceConfig | None = None
) -> float:
    """Like enhance_pixel, but the Gaussian runs along the contour through ``p``; its bilinear sample
    where the orientation there is undefined.

    NaN where ``p`` is outside the raster, as for ``enhance_pixel``.
    """
    cfg = cfg or EnhanceConfig()
    _check_binary(image, binary)
    check_flow_grid(flow, image.width, image.height)
    xs, ys = (np.array([c], dtype=np.float64) for c in p)
    sample = float(bilinear_many(image.pixels, xs, ys)[0])
    theta, defined = angles_at(flow, xs, ys)
    if math.isnan(sample) or not defined[0]:
        return sample
    weights = gaussian_kernel(cfg.gaussian_sigma, cfg.kernel_half_length)
    return float(_blend(image.pixels, binary.bits, _trace_path, flow, xs, ys, theta, weights)[0])


# ---------------------------------------------------------------------------
# The direct-sampling evaluator and the scalar helpers built on it, moved out
# of ``ridgeflow.projection``. The direct evaluator samples the source image
# along every segment; it is the reference for the rotated evaluator.


def _segment_deviation(vals: np.ndarray) -> np.ndarray:
    """One-pass std over the last axis, NaN-aware; NaN where <2 samples."""
    ok = ~np.isnan(vals)
    s1 = np.where(ok, vals, 0.0).sum(axis=-1)
    s2 = np.where(ok, vals * vals, 0.0).sum(axis=-1)
    return _span_deviation(ok.sum(axis=-1), s1, s2)


def _perp_deviations(img: np.ndarray, qx: np.ndarray, qy: np.ndarray, alpha: float, cfg: FlowConfig) -> np.ndarray:
    """Deviation at each q for the perpendicular of ``alpha``; NaN undefined."""
    s = cfg.perp_half_length
    offs = np.arange(-s, s + 1, dtype=np.float64)
    vx = -math.sin(alpha)
    vy = math.cos(alpha)
    X = qx[..., None] + offs * vx + _STAT_OFFSET
    Y = qy[..., None] + offs * vy + _STAT_OFFSET
    vals = bilinear_many(img, X, Y)
    full = _segment_deviation(vals)
    if not cfg.use_half_line_rule:
        return full
    lo = _segment_deviation(vals[..., : s + 1])
    hi = _segment_deviation(vals[..., s:])
    return np.fmin(np.fmin(full, lo), hi)


def _mean_deviation_direct(img: np.ndarray, px: np.ndarray, py: np.ndarray, alpha: float, cfg: FlowConfig) -> np.ndarray:
    t = cfg.tangent_half_length
    offs = np.arange(-t, t + 1, dtype=np.float64)
    ux = math.cos(alpha)
    uy = math.sin(alpha)
    qx = px[..., None] + offs * ux
    qy = py[..., None] + offs * uy
    sig = _perp_deviations(img, qx, qy, alpha, cfg)
    ok = ~np.isnan(sig)
    n = ok.sum(axis=-1)
    s1 = np.where(ok, sig, 0.0).sum(axis=-1)
    return np.where(n > 0, s1 / np.maximum(n, 1), np.nan)


# ---------------------------------------------------------------------------
# Scalar operations (direct sampling; these are the reference definitions)


def perpendicular_deviation(image: GrayImage, q: Point, alpha: float, cfg: FlowConfig | None = None) -> float | None:
    """Min-rule standard deviation across the perpendicular segment at ``q``.

    The perpendicular of ``alpha`` through q is split into two halves that
    both include q; the result is the smallest defined deviation among the
    two halves and the full segment. None when no sub-segment has two
    in-bounds samples.
    """
    cfg = cfg or FlowConfig()
    v = _perp_deviations(image.as_float(), np.asarray([q[0]], dtype=np.float64), np.asarray([q[1]], dtype=np.float64), alpha, cfg)[0]
    return None if math.isnan(v) else float(v)


def mean_perpendicular_deviation(image: GrayImage, p: Point, alpha: float, cfg: FlowConfig | None = None) -> float | None:
    """Mean of the defined perpendicular deviations along the tangent at ``p``."""
    cfg = cfg or FlowConfig()
    v = _mean_deviation_direct(image.as_float(), np.asarray([p[0]], dtype=np.float64), np.asarray([p[1]], dtype=np.float64), alpha, cfg)[0]
    return None if math.isnan(v) else float(v)


def dominant_orientation(image: GrayImage, p: Point, cfg: FlowConfig | None = None) -> float | None:
    """Coarse-to-fine argmin of the mean deviation at ``p``, plus pi/2.

    Ties prefer the smaller coarse angle and the earlier fine candidate.
    None when every candidate angle is undefined at ``p``.
    """
    cfg = cfg or FlowConfig()
    ev = DirectDeviationEvaluator(image, cfg)
    theta = _search_orientations(ev.mean_deviation, np.asarray([p[0]], dtype=np.float64), np.asarray([p[1]], dtype=np.float64), cfg)
    return None if math.isnan(theta[0]) else float(theta[0])


# ---------------------------------------------------------------------------
# Batch evaluators


class DirectDeviationEvaluator:
    """Evaluates the mean deviation by sampling the source image directly."""

    def __init__(self, image: GrayImage, cfg: FlowConfig):
        self._img = image.as_float()
        self._cfg = cfg

    def mean_deviation(self, alpha: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _mean_deviation_direct(
            self._img, np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64), float(alpha), self._cfg
        )


# ---------------------------------------------------------------------------
# The whole-image Sobel gradient and the scalar structure tensor, moved out
# of ``ridgeflow.gradient``; the reference for the window sums of
# ``compute_flow_field_gradient``, which the scipy convolution below gives
# byte for byte.


@dataclass(eq=False)
class GradientField:
    """Per-pixel intensity derivatives, units of intensity per pixel."""

    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        if self.gx.shape != self.gy.shape or self.gx.ndim != 2:
            raise ValueError("gx and gy must be 2-D arrays of equal shape")

    @property
    def width(self) -> int:
        return self.gx.shape[1]

    @property
    def height(self) -> int:
        return self.gx.shape[0]


def gradient(image: GrayImage) -> GradientField:
    """3x3 Sobel derivatives with replicated borders, scaled by 1/8, of the whole image."""
    if image.width < 3 or image.height < 3:
        raise ValueError(f"image must be at least 3x3 pixels, got {image.width}x{image.height}")
    f = np.pad(image.as_float(), 1, mode="edge")
    gx = (
        (f[:-2, 2:] + 2.0 * f[1:-1, 2:] + f[2:, 2:])
        - (f[:-2, :-2] + 2.0 * f[1:-1, :-2] + f[2:, :-2])
    ) / 8.0
    gy = (
        (f[2:, :-2] + 2.0 * f[2:, 1:-1] + f[2:, 2:])
        - (f[:-2, :-2] + 2.0 * f[:-2, 1:-1] + f[:-2, 2:])
    ) / 8.0
    return GradientField(gx, gy)


@dataclass
class StructureTensor:
    """Symmetric 2x2 sum of gradient outer products (a21 = a12 implied)."""

    a11: float
    a12: float
    a22: float



def second_moment_matrix(
    grad: GradientField, p: Point, window_half: int = 8, weight_sigma: float | None = 4.0
) -> StructureTensor:
    """Weighted gradient outer-product sums over the window centered at ``p``.

    ``weight_sigma=None`` gives uniform weights. Windows are clipped at the
    raster borders (missing cells simply contribute nothing).
    """
    cx = int(math.floor(p[0] + 0.5))
    cy = int(math.floor(p[1] + 0.5))
    x0 = max(cx - window_half, 0)
    x1 = min(cx + window_half, grad.width - 1)
    y0 = max(cy - window_half, 0)
    y1 = min(cy + window_half, grad.height - 1)
    if x0 > x1 or y0 > y1:
        return StructureTensor(0.0, 0.0, 0.0)
    w = _window_weights(window_half, weight_sigma)[
        y0 - cy + window_half : y1 - cy + window_half + 1,
        x0 - cx + window_half : x1 - cx + window_half + 1,
    ]
    gx = grad.gx[y0 : y1 + 1, x0 : x1 + 1]
    gy = grad.gy[y0 : y1 + 1, x0 : x1 + 1]
    return StructureTensor(
        float((w * gx * gx).sum()), float((w * gx * gy).sum()), float((w * gy * gy).sum())
    )


def tensor_orientation(t: StructureTensor) -> tuple[float, float]:
    """(dominant eigenvector angle in [0, pi), coherence in [0, 1]).

    The angle is the closed-form 0.5 * atan2(2*a12, a11 - a22); coherence is
    (l1 - l2) / (l1 + l2), defined as 0 for a near-zero tensor.
    """
    theta = 0.5 * math.atan2(2.0 * t.a12, t.a11 - t.a22)
    theta %= math.pi
    if theta >= math.pi:
        theta = 0.0
    trace = t.a11 + t.a22
    if trace < 1e-12:
        return theta, 0.0
    spread = math.hypot(t.a11 - t.a22, 2.0 * t.a12)
    return theta, min(spread / trace, 1.0)


def reference_site_sums(a: np.ndarray, b: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """One window sum of the structure tensor as it used to be computed: a full-resolution
    zero-padded ``ndimage.convolve`` of ``a * b``, then the stride grid sites picked."""
    xs, ys = _grid_sites(a.shape[1], a.shape[0], stride)
    return ndimage.convolve(a * b, kernel, mode="constant", cval=0.0)[np.ix_(ys, xs)]


def reference_tensor_sums(grad: GradientField, kernel: np.ndarray, stride: int) -> tuple[np.ndarray, ...]:
    """The a11, a12 and a22 window sums of ``compute_flow_field_gradient`` at the stride grid sites."""
    return tuple(reference_site_sums(a, b, kernel, stride)
                 for a, b in ((grad.gx, grad.gx), (grad.gx, grad.gy), (grad.gy, grad.gy)))


def reference_pixel_tensor_sums(pixels: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """``gradient._tensor_sums`` from the whole-image Sobel gradient and three scipy convolutions."""
    return np.stack(reference_tensor_sums(gradient(GrayImage(pixels)), kernel, stride))


# ---------------------------------------------------------------------------
# The whole-canvas rotation, kept verbatim as the reference for the
# in-source, windowed ``image.rotate_raster``.


@dataclass(eq=False)
class ReferenceRotatedRaster:
    """Image resampled so source lines at ``angle`` run along output rows."""

    values: np.ndarray  # float64, 0.0 where invalid
    valid: np.ndarray  # bool, False where mapped from outside the source
    angle: float
    src_center: tuple[float, float]
    dst_center: tuple[float, float]
    source_offset: tuple[float, float] = (0.0, 0.0)

    def to_rotated(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map source coordinates into this raster's coordinates."""
        c = math.cos(self.angle)
        s = math.sin(self.angle)
        dx = np.asarray(xs, dtype=np.float64) - self.src_center[0] - self.source_offset[0]
        dy = np.asarray(ys, dtype=np.float64) - self.src_center[1] - self.source_offset[1]
        return self.dst_center[0] + c * dx + s * dy, self.dst_center[1] - s * dx + c * dy


def reference_rotate_raster(
    values: np.ndarray, angle: float, source_offset: tuple[float, float] = (0.0, 0.0)
) -> ReferenceRotatedRaster:
    """Rotate a float raster about its center by -angle (bilinear resampling).

    The output canvas covers the rotated bounding box; pixels that map from
    outside the source are flagged invalid and set to 0. Rows are resampled
    in bands, so the sampling temporaries stay small. ``source_offset``
    shifts every source sample position by a constant amount, letting callers
    force interpolation even for lattice-preserving angles.
    """
    h, w = values.shape
    c = math.cos(angle)
    s = math.sin(angle)
    out_w = max(1, math.ceil(w * abs(c) + h * abs(s) - 1e-9))
    out_h = max(1, math.ceil(w * abs(s) + h * abs(c) - 1e-9))
    src_center = ((w - 1) / 2.0, (h - 1) / 2.0)
    dst_center = ((out_w - 1) / 2.0, (out_h - 1) / 2.0)
    out = np.empty((out_h, out_w))
    valid = np.empty((out_h, out_w), dtype=bool)
    dx = (np.arange(out_w, dtype=np.float64) - dst_center[0])[None, :]
    for rows in band_rows(out_w, out_h):
        dy = (np.arange(rows.start, rows.stop, dtype=np.float64) - dst_center[1])[:, None]
        sx = src_center[0] + source_offset[0] + c * dx - s * dy
        sy = src_center[1] + source_offset[1] + s * dx + c * dy
        sampled = bilinear_many(values, sx, sy)
        ok = ~np.isnan(sampled)
        valid[rows] = ok
        out[rows] = np.where(ok, sampled, 0.0)
    return ReferenceRotatedRaster(out, valid, angle, src_center, dst_center, source_offset)


def manual_bilinear(arr: np.ndarray, x: float, y: float) -> float:
    """Plain-python bilinear sample; NaN outside the raster."""
    h, w = arr.shape
    if x < 0 or x > w - 1 or y < 0 or y > h - 1:
        return float("nan")
    x0 = min(int(math.floor(x)), w - 1)
    y0 = min(int(math.floor(y)), h - 1)
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    return float(
        arr[y0, x0] * (1 - fx) * (1 - fy)
        + arr[y0, x1] * fx * (1 - fy)
        + arr[y1, x0] * (1 - fx) * fy
        + arr[y1, x1] * fx * fy
    )


def reference_bilinear_many(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``image.bilinear_many`` as it was before its in-place rewrite: np.clip, fresh temporaries.

    Finite coordinates only; a NaN coordinate makes an invalid index here.
    """
    eps = 1e-9
    h, w = values.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = (xs >= -eps) & (xs <= w - 1.0 + eps) & (ys >= -eps) & (ys <= h - 1.0 + eps)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    fx = np.floor(xc)
    fy = np.floor(yc)
    x0 = fx.astype(np.intp)
    y0 = fy.astype(np.intp)
    fx = xc - fx
    fy = yc - fy
    gx = 1.0 - fx
    gy = 1.0 - fy
    dx = (x0 < w - 1).astype(np.intp)
    dy = (y0 < h - 1) * w
    corner = y0 * w + x0
    flat = values.ravel()
    v = flat.take(corner) * gx * gy
    v += flat.take(corner + dx) * fx * gy
    corner += dy
    v += flat.take(corner) * gx * fy
    corner += dx
    v += flat.take(corner) * fx * fy
    return np.where(inside, v, np.nan)


def reference_angles_at(flow: rf.FlowField, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """``flowfield.angles_at`` as it was before the site table: per corner a
    bounds test, clipped 2-D indexing and cos/sin of the doubled site angle.
    The blend gives an orientation where nx^2 + ny^2 >= 1e-12; the angle is
    NaN everywhere else.

    A non-finite point casts to an arbitrary index whose corners fail the
    bounds test; numpy warns about that cast and the infinite weights.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    gx = xs / flow.stride
    gy = ys / flow.stride
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = gx - x0
    fy = gy - y0

    gw, gh = flow.grid_width, flow.grid_height
    vx = np.zeros(xs.shape, dtype=np.float64)
    vy = np.zeros(xs.shape, dtype=np.float64)
    wsum = np.zeros(xs.shape, dtype=np.float64)
    for ddx, ddy, wgt in (
        (0, 0, (1.0 - fx) * (1.0 - fy)),
        (1, 0, fx * (1.0 - fy)),
        (0, 1, (1.0 - fx) * fy),
        (1, 1, fx * fy),
    ):
        cx = x0 + ddx
        cy = y0 + ddy
        ok = (cx >= 0) & (cx < gw) & (cy >= 0) & (cy < gh)
        cxc = np.clip(cx, 0, gw - 1)
        cyc = np.clip(cy, 0, gh - 1)
        ok &= flow.valid[cyc, cxc]
        w = np.where(ok, wgt, 0.0)
        doubled = 2.0 * flow.angles[cyc, cxc]
        vx += w * np.cos(doubled)
        vy += w * np.sin(doubled)
        wsum += w

    with np.errstate(invalid="ignore", divide="ignore"):
        nx = vx / wsum
        ny = vy / wsum
    defined = nx * nx + ny * ny >= 1e-12
    theta = np.where(defined, 0.5 * np.arctan2(np.where(defined, ny, 0.0), np.where(defined, nx, 1.0)), 0.0)
    theta = np.where(defined, np.mod(theta, math.pi), 0.0)
    theta = np.where(theta >= math.pi, 0.0, theta)
    return np.where(defined, theta, np.nan), defined


# ---------------------------------------------------------------------------
# The whole-array directional kernels of ``binarize`` and ``enhance``, as they
# were before the kernels summed one tap at a time: each gathers all 2k+1
# taps at once and reduces over the leading axis. They take paths that
# return whole (2k+1,) + xs.shape arrays: ``reference_line_path`` or
# ``reference_trace_batch`` here, the contour path as it was before it was
# traced lazily.


def reference_line_path(flow, xs, ys, theta, defined, half: int, bounds):
    """The straight sampling path: ``half`` unit steps each way along ``theta``, kept where the seed's
    orientation is defined.

    Paths are described in the contour module docstring.
    """
    offs = np.arange(-half, half + 1, dtype=np.float64)
    offs = offs.reshape((offs.size,) + (1,) * np.ndim(xs))
    return xs + offs * np.cos(theta), ys + offs * np.sin(theta), defined


def reference_trace_batch(
    flow: FlowField,
    xs: np.ndarray,
    ys: np.ndarray,
    theta: np.ndarray,
    defined: np.ndarray,
    half_steps: int,
    bounds: tuple[int, int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace contours for many seeds at once; the contour sampling path.

    ``theta`` and ``defined`` are the seeds' orientations as ``angles_at``
    gives them. Returns (px, py, ok), each shaped (2*half_steps+1,) +
    xs.shape; row half_steps is the seed. ok marks points actually reached
    before an early stop; a seed without an orientation keeps no point.
    """
    k = half_steps
    px = np.zeros((2 * k + 1,) + xs.shape)
    py = np.zeros((2 * k + 1,) + xs.shape)
    ok = np.zeros((2 * k + 1,) + xs.shape, dtype=bool)
    px[k] = xs
    py[k] = ys
    ok[k] = defined

    for direction in (+1, -1):
        cur_x = xs.copy()
        cur_y = ys.copy()
        dir_x = direction * np.cos(theta)
        dir_y = direction * np.sin(theta)
        alive = defined
        for step in range(1, k + 1):
            if step > 1:
                th, step_defined = angles_at(flow, cur_x, cur_y)
                alive = alive & step_defined
                cx = np.cos(th)
                sy = np.sin(th)
                sign = np.where(cx * dir_x + sy * dir_y >= 0.0, 1.0, -1.0)
                dir_x = sign * cx
                dir_y = sign * sy
            nx = cur_x + dir_x
            ny = cur_y + dir_y
            if bounds is not None:
                w, h = bounds
                alive = alive & (nx >= 0.0) & (nx <= w - 1.0) & (ny >= 0.0) & (ny <= h - 1.0)
            row = k + direction * step
            px[row] = nx
            py[row] = ny
            ok[row] = alive
            cur_x = np.where(alive, nx, cur_x)
            cur_y = np.where(alive, ny, cur_y)
    return px, py, ok


def reference_path_mean(img: np.ndarray, path, flow, xs, ys, theta, defined, half: int) -> np.ndarray:
    """Mean of the in-bounds samples that ``path`` keeps; NaN if none."""
    h, w = img.shape
    px, py, ok = path(flow, xs, ys, theta, defined, half, (w, h))
    vals = bilinear_many(img, px, py)
    use = ok & ~np.isnan(vals)
    n = use.sum(axis=0)
    s = np.where(use, vals, 0.0).sum(axis=0)
    return np.where(n > 0, s / np.maximum(n, 1), np.nan)


def reference_masked_blend(
    img: np.ndarray, bits: np.ndarray, path, flow, xs, ys, theta, defined, cfg: rf.EnhanceConfig
) -> np.ndarray:
    """Gaussian-weighted mean over the samples of ``path`` that share the seed's class."""
    h, w = img.shape
    k = cfg.kernel_half_length
    wcol = gaussian_kernel(cfg.gaussian_sigma, k).reshape((2 * k + 1,) + (1,) * np.ndim(xs))
    px, py, ok = path(flow, xs, ys, theta, defined, k, (w, h))
    vals = bilinear_many(img, px, py)
    inb = ok & ~np.isnan(vals)

    # binary class at the nearest pixel of each sample
    xi = _nearest(px, w)
    yi = _nearest(py, h)
    center_x = _nearest(xs, w)
    center_y = _nearest(ys, h)
    same = bits[yi, xi] == bits[center_y, center_x]

    use = inb & same
    num = (np.where(use, vals, 0.0) * wcol).sum(axis=0)
    den = (np.where(use, wcol, 0.0)).sum(axis=0)
    center_val = img[center_y, center_x]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = num / den
    return np.where(den > 0, out, center_val)


def two_pass_std(vals) -> float:
    vals = np.asarray([v for v in vals if not math.isnan(v)], dtype=np.float64)
    if vals.size < 2:
        return float("nan")
    m = vals.mean()
    return float(math.sqrt(((vals - m) ** 2).mean()))


def parallel_spec(orientation: float, noise: float = 0.0, seed: int = 0, size: int = 128, **kw) -> rf.SyntheticSpec:
    return rf.SyntheticSpec(
        width=size, height=size, pattern="parallel", orientation=orientation,
        period=8.0, noise_sigma=noise, rng_seed=seed, **kw,
    )


def suite_specs(noise: float = 0.0, size: int = 128) -> list[rf.SyntheticSpec]:
    """16-orientation suite at k*pi/16, seeds tied to k."""
    return [parallel_spec(k * math.pi / 16, noise=noise, seed=1000 + k, size=size) for k in range(16)]


def flow_mae(flow: rf.FlowField, truth: rf.FlowField, width: int, height: int,
             margin: float = INTERIOR_MARGIN, extra_mask=None) -> float:
    sel = flow.valid & truth.valid & rf.interior_site_mask(flow, width, height, margin)
    if extra_mask is not None:
        sel &= extra_mask
    return float(rf.angular_distance(flow.angles[sel], truth.angles[sel]).mean())


def inner_pixel_mask(height: int, width: int, margin: int = INTERIOR_MARGIN) -> np.ndarray:
    m = np.zeros((height, width), dtype=bool)
    m[margin:-margin, margin:-margin] = True
    return m


def _prefix_span_deviation(n: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    nf = np.maximum(n, 1)
    mean = s1 / nf
    var = s2 / nf - mean * mean
    var = np.where(var < 1e-9, 0.0, var)
    return np.where(n >= 2, np.sqrt(var), np.nan)


def quantized(values: np.ndarray) -> np.ndarray:
    """Rotated samples rounded to multiples of 1/256, as the search reads them, so its column sums are exact."""
    return np.rint(values * 256.0) * (1.0 / 256.0)


class PerSitePrefixEvaluator:
    """Per-site prefix-sum evaluator, the reference for the dense-map fast path.

    Same rotation and sample rounding as ``RotatedDeviationEvaluator``, but
    every site makes its own 2t+1 column lookups, each taking up to three
    span statistics from the column prefix sums of counts, values and
    squared values.
    """

    def __init__(self, image: rf.GrayImage, cfg: rf.FlowConfig):
        self._img = image.as_float()
        self._cfg = cfg

    def mean_deviation(self, alpha: float, xs, ys) -> np.ndarray:
        cfg = self._cfg
        rr = reference_rotate_raster(self._img, float(alpha), (_STAT_OFFSET, _STAT_OFFSET))
        h, w = rr.values.shape
        v = quantized(np.where(rr.valid, rr.values, 0.0))
        pn = np.zeros((h + 1, w))
        p1 = np.zeros((h + 1, w))
        p2 = np.zeros((h + 1, w))
        pn[1:] = np.cumsum(rr.valid, axis=0)
        p1[1:] = np.cumsum(v, axis=0)
        p2[1:] = np.cumsum(v * v, axis=0)

        def span_deviation(cols, y0, y1):
            a = np.clip(y0, 0, h)
            b = np.maximum(np.clip(y1 + 1, 0, h), a)
            return _prefix_span_deviation(pn[b, cols] - pn[a, cols], p1[b, cols] - p1[a, cols], p2[b, cols] - p2[a, cols])

        rx, ry = rr.to_rotated(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        cx = np.floor(rx + 0.5).astype(np.int64)
        cy = np.floor(ry + 0.5).astype(np.int64)
        t = cfg.tangent_half_length
        s = cfg.perp_half_length
        sig_sum = np.zeros(cx.shape)
        sig_cnt = np.zeros(cx.shape, dtype=np.int64)
        for i in range(-t, t + 1):
            col = cx + i
            col_ok = (col >= 0) & (col < w)
            colc = np.clip(col, 0, w - 1)
            sig = span_deviation(colc, cy - s, cy + s)
            if cfg.use_half_line_rule:
                stacked = np.stack([sig, span_deviation(colc, cy - s, cy), span_deviation(colc, cy, cy + s)])
                all_nan = np.isnan(stacked).all(axis=0)
                sig = np.nanmin(np.where(np.isnan(stacked), np.inf, stacked), axis=0)
                sig = np.where(all_nan, np.nan, sig)
            ok = col_ok & ~np.isnan(sig)
            sig_sum += np.where(ok, sig, 0.0)
            sig_cnt += ok
        return np.where(sig_cnt > 0, sig_sum / np.maximum(sig_cnt, 1), np.nan)


def check_band_reads(reads, row, col, shape: tuple[int, int], cfg: rf.FlowConfig,
                     band_pixels: int = _MAP_BAND_PIXELS) -> None:
    """Assert how ``projection._site_mean_deviations`` read the canvas of ``shape`` for the map sites (``row``, ``col``).

    ``reads`` holds the (rows, columns) slice pair of each read. A site at
    map row r, column c needs the canvas rows r - 2s .. r and columns
    c - 2t .. c, unclipped, past the canvas too. Each read is at most a map
    band and 2s rows tall, spans exactly the rows and the columns its sites
    need (the sites whose rows lie inside it); every site is served by a
    read; and no row that no site needs is read.
    """
    t, s = cfg.tangent_half_length, cfg.perp_half_length
    row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
    r0, r1 = row - 2 * s, row + 1
    c0, c1 = col - 2 * t, col + 1
    top = int(r0.min())  # needed[i] is canvas row top + i
    needed = np.zeros(int(r1.max()) - top + 1, dtype=np.int64)
    np.add.at(needed, r0 - top, 1)
    np.add.at(needed, r1 - top, -1)
    needed = np.cumsum(needed[:-1]) > 0
    served = np.zeros(row.size, dtype=bool)
    step = max(1, band_pixels // (shape[1] + 2 * t))
    for rows, cols in reads:
        assert 0 < rows.stop - rows.start <= step + 2 * s, (rows, step, s)
        mine = (r0 >= rows.start) & (r1 <= rows.stop)
        assert mine.any(), rows
        assert (rows.start, rows.stop) == (r0[mine].min(), r1[mine].max()), rows
        assert (cols.start, cols.stop) == (c0[mine].min(), c1[mine].max()), cols
        assert needed[rows.start - top : rows.stop - top].all(), rows
        served |= mine & (c0 >= cols.start) & (c1 <= cols.stop)
    assert served.all()


def canvas_reader(values: np.ndarray, reads: list):
    """A ``read`` for ``projection._site_mean_deviations`` of the canvas ``values``, NaN past its edge.

    Each (rows, columns) slice pair it is asked for is appended to ``reads``.
    """
    h, w = values.shape

    def read(rows: slice, cols: slice) -> np.ndarray:
        reads.append((rows, cols))
        out = np.full((rows.stop - rows.start, cols.stop - cols.start), np.nan)
        (a, b), (c, d) = (max(rows.start, 0), min(rows.stop, h)), (max(cols.start, 0), min(cols.stop, w))
        if a < b and c < d:
            out[a - rows.start : b - rows.start, c - cols.start : d - cols.start] = values[a:b, c:d]
        return out

    return read


# ---------------------------------------------------------------------------
# The offset-major search with a per-angle map cache, kept verbatim as the
# reference for the angle-major, cache-free search in ``projection``. The
# cache was needed because a fine angle can be reached from two coarse
# optima and this search asks for it once per offset.


def reference_mean_deviation_map(rr, cfg: rf.FlowConfig) -> np.ndarray:
    """Whole-canvas mean-deviation map of the rounded samples, built in bands of map rows from
    prefix sums that start at the canvas top."""
    t = cfg.tangent_half_length
    s = cfg.perp_half_length
    h, w = rr.values.shape

    def prefix(v: np.ndarray) -> np.ndarray:
        # row j holds the column sums over canvas rows [0, j - 2s), clipped
        p = np.empty((h + 4 * s + 1, w))
        p[: 2 * s + 1] = 0.0
        np.cumsum(v, axis=0, out=p[2 * s + 1 : 2 * s + 1 + h])
        p[2 * s + 1 + h :] = p[2 * s + h]
        return p

    v = quantized(rr.values)
    pn, p1, p2 = prefix(rr.valid), prefix(v), prefix(v * v)

    def runs(length: int, r0: int, r1: int) -> np.ndarray:
        """Deviations of the runs of ``length`` rows from canvas rows r0-2s .. r1-2s-1."""
        a = slice(r0, r1)
        b = slice(r0 + length, r1 + length)
        return _span_deviation(pn[b] - pn[a], p1[b] - p1[a], p2[b] - p2[a])

    out_w = w + 2 * t
    out = np.empty((h + 2 * s, out_w))
    for rows in band_rows(out_w, out.shape[0], _MAP_BAND_PIXELS):
        r0, r1 = rows.start, rows.stop
        sig = runs(2 * s + 1, r0, r1)
        if cfg.use_half_line_rule:
            half = runs(s + 1, r0, r1 + s)
            np.fmin(sig, half[: r1 - r0], out=sig)
            np.fmin(sig, half[s:], out=sig)
        ok = ~np.isnan(sig)
        padded = np.zeros((r1 - r0, w + 4 * t))
        np.copyto(padded[:, 2 * t : 2 * t + w], sig, where=ok)
        sig_sum = out[rows]
        sig_sum[...] = 0.0
        for i in range(2 * t + 1):
            sig_sum += padded[:, i : i + out_w]
        cnt = np.zeros((r1 - r0, w + 4 * t + 1), dtype=np.int64)
        cnt[:, 2 * t + 1 : 2 * t + 1 + w] = ok
        np.cumsum(cnt, axis=1, out=cnt)
        sig_cnt = cnt[:, 2 * t + 1 :] - cnt[:, :out_w]
        np.divide(sig_sum, np.maximum(sig_cnt, 1), out=sig_sum)
        np.copyto(sig_sum, np.nan, where=sig_cnt == 0)
    return out


class CachedRotatedEvaluator:
    """Dense-map evaluator that keeps the rotation geometry and the map of every angle it built."""

    def __init__(self, image: rf.GrayImage, cfg: rf.FlowConfig):
        self._img = image.as_float()
        self._cfg = cfg
        self._cache = {}

    def _map(self, alpha: float):
        hit = self._cache.get(alpha)
        if hit is None:
            rr = reference_rotate_raster(self._img, alpha, (_STAT_OFFSET, _STAT_OFFSET))
            hit = self._cache[alpha] = (replace(rr, values=None, valid=None), reference_mean_deviation_map(rr, self._cfg))
        return hit

    def mean_deviation(self, alpha: float, xs, ys) -> np.ndarray:
        geometry, mu = self._map(float(alpha))
        rx, ry = geometry.to_rotated(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        col = np.floor(rx + 0.5).astype(np.int64) + self._cfg.tangent_half_length
        row = np.floor(ry + 0.5).astype(np.int64) + self._cfg.perp_half_length
        inside = (row >= 0) & (row < mu.shape[0]) & (col >= 0) & (col < mu.shape[1])
        out = np.full(col.shape, np.nan)
        out[inside] = mu[row[inside], col[inside]]
        return out


def reference_search_orientations(mean_deviation, px: np.ndarray, py: np.ndarray, cfg: rf.FlowConfig):
    """Coarse argmin then fine refinement, offset by offset; returns (theta, defined) arrays."""
    n_sites = px.shape[0]
    if n_sites == 0:
        return np.zeros(0), np.zeros(0, dtype=bool)

    coarse = cfg.coarse_angles()
    mu = np.stack([mean_deviation(a, px, py) for a in coarse])
    filled = np.where(np.isnan(mu), np.inf, mu)
    defined = ~np.isinf(filled).all(axis=0)
    best_idx = np.argmin(filled, axis=0)  # ties -> smaller angle
    best_alpha = coarse[best_idx]
    best_mu = filled[best_idx, np.arange(n_sites)]

    offsets = cfg.fine_offsets()
    cand_mu = np.full((len(offsets), n_sites), np.inf)
    cand_alpha = np.zeros((len(offsets), n_sites))
    for oi, off in enumerate(offsets):
        alphas = np.mod(best_alpha + off, math.pi)
        cand_alpha[oi] = alphas
        if off == 0.0:
            cand_mu[oi] = best_mu
            continue
        for a in np.unique(alphas[defined]):
            sel = defined & (alphas == a)
            vals = mean_deviation(float(a), px[sel], py[sel])
            cand_mu[oi, sel] = np.where(np.isnan(vals), np.inf, vals)
    # argmin over candidates; exact mu ties resolve toward the smaller angle
    min_mu = cand_mu.min(axis=0)
    tie_alpha = np.where(cand_mu == min_mu, cand_alpha, np.inf)
    alpha_star = np.where(defined, tie_alpha.min(axis=0), 0.0)
    theta = np.mod(alpha_star + math.pi / 2.0, math.pi)
    return np.where(defined, theta, 0.0), defined


def reference_flow_field(image: rf.GrayImage, cfg: rf.FlowConfig, evaluator=CachedRotatedEvaluator) -> rf.FlowField:
    """``compute_flow_field`` with the offset-major search and ``evaluator``, by default the cached one."""
    foreground = patch_variance_grid(image, cfg) >= cfg.background_variance_threshold
    gy, gx = np.nonzero(foreground)
    theta, ok = reference_search_orientations(
        evaluator(image, cfg).mean_deviation,
        (gx * cfg.stride).astype(np.float64), (gy * cfg.stride).astype(np.float64), cfg,
    )
    angles = np.zeros(foreground.shape)
    valid = np.zeros(foreground.shape, dtype=bool)
    angles[gy, gx] = theta
    valid[gy, gx] = ok
    return rf.FlowField(angles, valid, cfg.stride)
