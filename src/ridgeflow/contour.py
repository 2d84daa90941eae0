"""Iso-brightness contour tracing and contour-path binarization/enhancement.

A contour is grown from a seed pixel by unit steps along the local
orientation; each step's sign is chosen to keep a non-negative dot product
with the previous step, resolving the pi-periodic ambiguity. With a uniform
flow field the contour degenerates to the straight line used elsewhere.

The contour variants differ from plain binarization and enhancement only in
where the samples come from. A sampling path is a generator
``(flow, xs, ys, theta, defined, half, bounds)`` yielding ``(o, px, py, ok)``
once for each tap o in -half..half, in any order: the tap's coordinates
(shaped like ``xs``) and whether it is kept (an array of that shape, or a
bool), valid until the next tap is asked for. The taps within k of the seed
do not depend on ``half`` >= k, so one walk serves both stages.
``binarize._sample_taps`` stores each tap's sample by o, and the mean and
the masked blend read them in order -k..k. The paths are the straight line
(``binarize._line_path``) and the traced contour (``_trace_path`` here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binarize import BinarizeConfig, BinaryImage, _binarize_image, _binarize_pixel
from .enhance import EnhanceConfig, _enhance_pixel, _sweep
from .flowfield import FlowField, angles_at
from .image import GrayImage, Point


@dataclass
class ContourPath:
    """Unit-step polyline through a seed point; ``points[seed_index]`` is the seed."""

    points: list[Point]
    seed_index: int


def _trace_path(flow: FlowField, xs, ys, theta, defined, half_steps: int, bounds: tuple[int, int] | None):
    """Trace contours for many seeds at once, one step per tap asked for; the contour sampling path.

    ``theta`` and ``defined`` are the seeds' orientations as ``angles_at``
    gives them. Yields the seed, taps +1..+half_steps, then -1..-half_steps;
    ok marks points actually reached before an early stop.
    """
    yield 0, xs, ys, True
    cur_x, cur_y = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    # the per-step buffers, reused by every step; (dir_x, dir_y) and (cx, sy) swap after each turn
    nx, ny, dir_x, dir_y, cx, sy = (np.empty_like(cur_x) for _ in range(6))
    alive, mask = np.empty(cur_x.shape, dtype=bool), np.empty(cur_x.shape, dtype=bool)
    for direction in (+1, -1):
        np.copyto(cur_x, xs)
        np.copyto(cur_y, ys)
        np.multiply(np.cos(theta, out=dir_x), direction, out=dir_x)
        np.multiply(np.sin(theta, out=dir_y), direction, out=dir_y)
        np.copyto(alive, defined)
        for step in range(1, half_steps + 1):
            if step > 1:
                th, step_defined = angles_at(flow, cur_x, cur_y)
                alive &= step_defined
                np.cos(th, out=cx)
                np.sin(th, out=sy)
                # turn the local orientation to follow the last step (negating is exact, as * -1 is)
                dir_x *= cx
                dir_y *= sy
                dir_x += dir_y
                flip = np.logical_not(np.greater_equal(dir_x, 0.0, out=mask), out=mask)
                np.negative(cx, out=cx, where=flip)
                np.negative(sy, out=sy, where=flip)
                dir_x, dir_y, cx, sy = cx, sy, dir_x, dir_y
            np.add(cur_x, dir_x, out=nx)
            np.add(cur_y, dir_y, out=ny)
            if bounds is not None:
                w, h = bounds
                for c, hi in ((nx, w - 1.0), (ny, h - 1.0)):
                    alive &= np.greater_equal(c, 0.0, out=mask)
                    alive &= np.less_equal(c, hi, out=mask)
            yield direction * step, nx, ny, alive
            np.copyto(cur_x, nx, where=alive)
            np.copyto(cur_y, ny, where=alive)


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
    taps = _trace_path(flow, xs, ys, *angles_at(flow, xs, ys), half_steps, bounds)
    reached = sorted((o, Point(float(px[0]), float(py[0]))) for o, px, py, ok in taps if np.all(ok))
    points = [q for _, q in reached]
    seed_index = [o for o, _ in reached].index(0)
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
    return _binarize_pixel(image, p, angles_at(flow, [p[0]], [p[1]]), cfg, _trace_path, flow)


def enhance_pixel_contour(
    image: GrayImage, binary: BinaryImage, p: Point, flow: FlowField, cfg: EnhanceConfig | None = None
) -> float:
    """Like enhance_pixel, but the Gaussian runs along the contour through ``p``.

    NaN where ``p`` is outside the raster, as for ``enhance_pixel``.
    """
    return _enhance_pixel(image, binary, p, angles_at(flow, [p[0]], [p[1]]), cfg, _trace_path, flow)


def binarize_image_contour(image: GrayImage, flow: FlowField, cfg: BinarizeConfig | None = None) -> BinaryImage:
    """Like binarize_image, but each along-ridge mean follows the contour."""
    return _binarize_image(image, flow, cfg, _trace_path)


def contour_enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> np.ndarray:
    """Like enhance_values, but each Gaussian runs along the contour."""
    return _sweep(image, flow, _trace_path, None, cfg or EnhanceConfig(), binary)[1]


def enhance_image_contour(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> GrayImage:
    return GrayImage.from_float(contour_enhance_values(image, binary, flow, cfg))
