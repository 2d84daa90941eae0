"""Iso-brightness contour tracing and contour-path binarization/enhancement.

A contour is grown from a seed pixel by unit steps along the local
orientation; each step's sign is chosen to keep a non-negative dot product
with the previous step, resolving the pi-periodic ambiguity. With a uniform
flow field the contour degenerates to the straight line used elsewhere.

The contour variants differ from plain binarization and enhancement only in
where the samples come from. A sampling path is a generator
``(sites, xs, ys, theta, half, bounds)`` yielding ``(o, px, py, ok)``
once for each tap o in -half..half, in any order: the tap's coordinates
(shaped like ``xs``) and whether it is kept (an array of that shape, or a
bool), valid until the next tap is asked for. ``theta`` is NaN where a seed
has no orientation, and a path keeps none of its taps (the line's are at
NaN): its means are NaN, a valley, and its blend gives back the pixel. The
taps within k of the seed do not depend on ``half`` >= k, so one walk serves
both stages. ``sites`` is what ``angles_at`` reads: a flow, or the table of
the site rows that a row band's paths reach (``flowfield._band_sites``),
built once per band. One sampler, ``binarize._taps``, samples every tap,
the orthogonal line's too; the pipeline sweep files them in a table by o,
and the kernels ``binarize._ridge`` and ``enhance._blend`` take them
through ``binarize._in_order``, in order -k..k.
``pipeline.PATHS`` names the paths: the straight line (``binarize._line_path``)
and the traced contour (``_trace_path`` here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binarize import BinarizeConfig, BinaryImage, _binarize_image
from .enhance import EnhanceConfig, _enhance
from .flowfield import FlowField, _band_sites, angles_at
from .image import GrayImage, Point, _check_sizes


@dataclass
class ContourPath:
    """Unit-step polyline through a seed point; ``points[seed_index]`` is the seed."""

    points: list[Point]
    seed_index: int


def _trace_path(sites, xs, ys, theta, half_steps: int, bounds: tuple[int, int] | None):
    """Trace contours for many seeds at once, one step per tap asked for; the contour sampling path.

    ``theta`` is the seeds' orientations, NaN where none. Yields taps
    -1..-half_steps, the seed, then +1..+half_steps, so a reader that takes
    the taps in order -k..k holds only the k - 1 taps before -k; ok marks
    points actually reached before an early stop, none for a NaN seed.
    """
    oriented = ~np.isnan(theta)
    cur_x, cur_y = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    # the per-step buffers, reused by every step; (dir_x, dir_y) and (cx, sy) swap after each turn
    nx, ny, dir_x, dir_y, cx, sy = (np.empty_like(cur_x) for _ in range(6))
    alive, mask = np.empty(cur_x.shape, dtype=bool), np.empty(cur_x.shape, dtype=bool)
    for direction in (-1, +1):
        if direction > 0:
            yield 0, xs, ys, oriented
        np.copyto(cur_x, xs)
        np.copyto(cur_y, ys)
        np.multiply(np.cos(theta, out=dir_x), direction, out=dir_x)
        np.multiply(np.sin(theta, out=dir_y), direction, out=dir_y)
        np.copyto(alive, oriented)
        for step in range(1, half_steps + 1):
            if step > 1:
                th, step_defined = angles_at(sites, cur_x, cur_y)
                alive &= step_defined
                np.cos(th, out=cx)
                np.sin(th, out=sy)
                # turn the local orientation to follow the last step: * -1.0 where the (finite) dot product is < 0
                dir_x *= cx
                dir_y *= sy
                dir_x += dir_y
                turn = np.subtract(np.multiply(np.greater_equal(dir_x, 0.0, out=mask), 2.0, out=nx), 1.0, out=nx)
                cx *= turn
                sy *= turn
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
    _check_sizes(1, "half_steps must be >= 1", half_steps=half_steps)
    xs = np.array([p[0]], dtype=np.float64)
    ys = np.array([p[1]], dtype=np.float64)
    # one table of the site rows within half_steps of the seed's serves every step; a non-finite seed reads none
    row = int(np.nan_to_num(np.floor(ys[0])))
    sites = _band_sites(flow, slice(row, row + 1), half_steps)
    taps = _trace_path(sites, xs, ys, angles_at(sites, xs, ys)[0], half_steps, bounds)
    reached = sorted((o, Point(float(px[0]), float(py[0]))) for o, px, py, ok in taps if o == 0 or np.all(ok))
    points = [q for _, q in reached]
    seed_index = [o for o, _ in reached].index(0)
    for a, b, c in zip(points, points[1:], points[2:]):
        # consecutive steps never reverse, by construction
        assert (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y) >= -1e-9
    return ContourPath(points, seed_index)


def binarize_image_contour(image: GrayImage, flow: FlowField, cfg: BinarizeConfig = BinarizeConfig()) -> BinaryImage:
    """Like binarize_image, but each along-ridge mean follows the contour."""
    return _binarize_image(image, flow, cfg, _trace_path)


def contour_enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig = EnhanceConfig()
) -> np.ndarray:
    """Like enhance_values, but each Gaussian runs along the contour."""
    return _enhance(image, binary, flow, _trace_path, cfg, False)


def enhance_image_contour(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig = EnhanceConfig()
) -> GrayImage:
    return GrayImage._of_bytes(_enhance(image, binary, flow, _trace_path, cfg, True))
