"""Iso-brightness contour tracing and contour-path binarization/enhancement.

A contour is grown from a seed pixel by unit steps along the local
orientation; each step's sign is chosen to keep a non-negative dot product
with the previous step, resolving the pi-periodic ambiguity. With a uniform
flow field the contour degenerates to the straight line used elsewhere.

The contour variants differ from plain binarization and enhancement only in
where the samples come from. Binarize and enhance take a sampling path, a
function ``(flow, xs, ys, theta, defined, half, bounds) -> (px, py, ok)``
with the 2*half+1 steps on the leading axis: the straight line
(``binarize._line_path``) or the traced contour (``_trace_batch`` here).
Each entry point below passes the contour path to the shared kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binarize import BinarizeConfig, BinaryImage, _binarize_image, _binarize_pixel
from .enhance import EnhanceConfig, _enhance_pixel, _enhance_values
from .flowfield import FlowField, angles_at
from .image import GrayImage, Point


@dataclass
class ContourPath:
    """Unit-step polyline through a seed point; ``points[seed_index]`` is the seed."""

    points: list[Point]
    seed_index: int


def _trace_batch(
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
    before an early stop.
    """
    k = half_steps
    px = np.zeros((2 * k + 1,) + xs.shape)
    py = np.zeros((2 * k + 1,) + xs.shape)
    ok = np.zeros((2 * k + 1,) + xs.shape, dtype=bool)
    px[k] = xs
    py[k] = ys
    ok[k] = True

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
    xs = np.array([p[0]], dtype=np.float64)
    ys = np.array([p[1]], dtype=np.float64)
    px, py, ok = _trace_batch(flow, xs, ys, *angles_at(flow, xs, ys), half_steps, bounds)
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
    return _binarize_pixel(image, p, angles_at(flow, [p[0]], [p[1]]), cfg, _trace_batch, flow)


def enhance_pixel_contour(
    image: GrayImage, binary: BinaryImage, p: Point, flow: FlowField, cfg: EnhanceConfig | None = None
) -> float:
    """Like enhance_pixel, but the Gaussian runs along the contour through ``p``.

    NaN where ``p`` is outside the raster, as for ``enhance_pixel``.
    """
    return _enhance_pixel(image, binary, p, angles_at(flow, [p[0]], [p[1]]), cfg, _trace_batch, flow)


def binarize_image_contour(image: GrayImage, flow: FlowField, cfg: BinarizeConfig | None = None) -> BinaryImage:
    """Like binarize_image, but each along-ridge mean follows the contour."""
    return _binarize_image(image, flow, cfg, _trace_batch)


def contour_enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> np.ndarray:
    """Like enhance_values, but each Gaussian runs along the contour."""
    return _enhance_values(image, binary, flow, cfg, _trace_batch)


def enhance_image_contour(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> GrayImage:
    return GrayImage.from_float(contour_enhance_values(image, binary, flow, cfg))
