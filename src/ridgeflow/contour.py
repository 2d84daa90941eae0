"""Iso-brightness contour tracing and contour-path binarization/enhancement.

A contour is grown from a seed pixel by unit steps along the local
orientation; each step's sign is chosen to keep a non-negative dot product
with the previous step, resolving the pi-periodic ambiguity. With a uniform
flow field the contour degenerates to the straight line used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarize import _TIE_EPS, BinarizeConfig, BinaryImage, _directional_mean
from .enhance import EnhanceConfig, gaussian_kernel
from .flowfield import FlowField, angle_at, angles_at, check_flow_grid
from .image import GrayImage, Point, bilinear_many, row_bands


@dataclass
class ContourPath:
    """Unit-step polyline through a seed point; ``points[seed_index]`` is the seed."""

    points: list[Point]
    seed_index: int


def _trace_batch(
    flow: FlowField,
    xs: np.ndarray,
    ys: np.ndarray,
    half_steps: int,
    bounds: tuple[int, int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace contours for many seeds at once.

    Returns (px, py, ok), each shaped (2*half_steps+1, n); row half_steps is
    the seed. ok marks points actually reached before an early stop.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    n = xs.size
    k = half_steps
    px = np.zeros((2 * k + 1, n))
    py = np.zeros((2 * k + 1, n))
    ok = np.zeros((2 * k + 1, n), dtype=bool)
    px[k] = xs
    py[k] = ys
    ok[k] = True

    theta0, def0 = angles_at(flow, xs, ys)
    for direction in (+1, -1):
        cur_x = xs.copy()
        cur_y = ys.copy()
        dir_x = direction * np.cos(theta0)
        dir_y = direction * np.sin(theta0)
        alive = def0.copy()
        for step in range(1, k + 1):
            if step > 1:
                th, defined = angles_at(flow, cur_x, cur_y)
                alive = alive & defined
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


def trace_contour(
    flow: FlowField, p: Point, half_steps: int, bounds: tuple[int, int] | None = None
) -> ContourPath:
    """Contour through ``p``, at most ``half_steps`` unit steps each way.

    Tracing in a direction stops where the orientation is undefined or,
    when ``bounds`` (width, height) is given, where the next point would
    leave the raster.
    """
    if half_steps < 1:
        raise ValueError("half_steps must be >= 1")
    px, py, ok = _trace_batch(flow, np.array([p[0]]), np.array([p[1]]), half_steps, bounds)
    rows = np.flatnonzero(ok[:, 0])
    points = [Point(float(px[r, 0]), float(py[r, 0])) for r in rows]
    seed_index = int(np.searchsorted(rows, half_steps))
    for a, b, c in zip(points, points[1:], points[2:]):
        # consecutive steps never reverse, by construction
        assert (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y) >= -1e-9
    return ContourPath(points, seed_index)


def binarize_pixel_contour(
    image: GrayImage, p: Point, flow: FlowField, cfg: BinarizeConfig | None = None
) -> int:
    """Like binarize_pixel, but the along-ridge mean follows the contour.

    The orthogonal mean stays on the straight perpendicular at the seed's
    orientation.
    """
    cfg = cfg or BinarizeConfig()
    theta = angle_at(flow, p)
    if theta is None:
        return 1
    img = image.as_float()
    px, py, ok = _trace_batch(
        flow, np.array([p[0]]), np.array([p[1]]), cfg.line_half_length, (image.width, image.height)
    )
    vals = bilinear_many(img, px[:, 0], py[:, 0])
    use = ok[:, 0] & ~np.isnan(vals)
    if not use.any():
        return 1
    g = float(vals[use].mean())
    h = _directional_mean(img, np.float64(p[0]), np.float64(p[1]), theta + math.pi / 2.0, cfg.line_half_length)
    if math.isnan(h):
        return 1
    return 0 if g < h - _TIE_EPS else 1


def _contour_blend(
    img: np.ndarray,
    bits: np.ndarray,
    flow: FlowField,
    xs: np.ndarray,
    ys: np.ndarray,
    cfg: EnhanceConfig,
) -> np.ndarray:
    """Gaussian blend over contour samples sharing the seed's binary class."""
    h, w = img.shape
    k = cfg.kernel_half_length
    weights = gaussian_kernel(cfg.gaussian_sigma, k)[:, None]
    px, py, ok = _trace_batch(flow, xs, ys, k, (w, h))
    vals = bilinear_many(img, px, py)
    inb = ok & ~np.isnan(vals)

    xi = np.clip(np.floor(px + 0.5).astype(np.int64), 0, w - 1)
    yi = np.clip(np.floor(py + 0.5).astype(np.int64), 0, h - 1)
    cxi = np.clip(np.floor(np.asarray(xs).ravel() + 0.5).astype(np.int64), 0, w - 1)
    cyi = np.clip(np.floor(np.asarray(ys).ravel() + 0.5).astype(np.int64), 0, h - 1)
    same = bits[yi, xi] == bits[cyi, cxi]

    use = inb & same
    num = (np.where(use, vals, 0.0) * weights).sum(axis=0)
    den = np.where(use, weights, 0.0).sum(axis=0)
    center_val = img[cyi, cxi]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = num / den
    return np.where(den > 0, out, center_val)


def enhance_pixel_contour(
    image: GrayImage, binary: BinaryImage, p: Point, flow: FlowField, cfg: EnhanceConfig | None = None
) -> float:
    cfg = cfg or EnhanceConfig()
    theta = angle_at(flow, p)
    if theta is None:
        return float(bilinear_many(image.as_float(), np.array([p[0]]), np.array([p[1]]))[0])
    return float(_contour_blend(image.as_float(), binary.bits, flow, np.array([p[0]]), np.array([p[1]]), cfg)[0])


def binarize_image_contour(image: GrayImage, flow: FlowField, cfg: BinarizeConfig | None = None) -> BinaryImage:
    cfg = cfg or BinarizeConfig()
    check_flow_grid(flow, image.width, image.height)
    img = image.as_float()
    ridge = np.empty((image.height, image.width), dtype=bool)
    for rows, X, Y in row_bands(image.width, image.height):
        theta, defined = angles_at(flow, X, Y)
        px, py, ok = _trace_batch(flow, X, Y, cfg.line_half_length, (image.width, image.height))
        vals = bilinear_many(img, px, py)
        use = ok & ~np.isnan(vals)
        n = use.sum(axis=0)
        g = np.where(n > 0, np.where(use, vals, 0.0).sum(axis=0) / np.maximum(n, 1), np.nan)
        g = g.reshape(X.shape)
        h = _directional_mean(img, X, Y, theta + math.pi / 2.0, cfg.line_half_length)
        ridge[rows] = defined & ~np.isnan(g) & ~np.isnan(h) & (g < h - _TIE_EPS)
    return BinaryImage(np.where(ridge, 0, 1).astype(np.int64))


def contour_enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> np.ndarray:
    cfg = cfg or EnhanceConfig()
    if (binary.height, binary.width) != (image.height, image.width):
        raise ValueError(
            f"binary dimensions {binary.width}x{binary.height} do not match "
            f"image {image.width}x{image.height}"
        )
    check_flow_grid(flow, image.width, image.height)
    img = image.as_float()
    out = np.empty_like(img)
    for rows, X, Y in row_bands(image.width, image.height):
        _, defined = angles_at(flow, X, Y)
        blended = _contour_blend(img, binary.bits, flow, X.ravel(), Y.ravel(), cfg).reshape(X.shape)
        out[rows] = np.where(defined, blended, img[rows])
    return out


def enhance_image_contour(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> GrayImage:
    return GrayImage.from_float(contour_enhance_values(image, binary, flow, cfg))
