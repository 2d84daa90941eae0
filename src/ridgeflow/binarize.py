"""Ridge/valley classification by comparing directional mean intensities.

A pixel is a ridge (bit 0) when the mean intensity along its dominant
orientation is strictly lower than the mean along the orthogonal direction;
everything else, including ties and pixels without a defined orientation,
is a valley (bit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, angles_at, check_flow_grid
from .image import BinaryImage, GrayImage, Point, bilinear_many, row_bands


# Decision margin: means closer than this count as a tie (valley). Intensity
# means differ by whole units where the classification is meaningful, while
# summation rounding perturbs them by ~1e-13, so mathematically tied means
# stay ties no matter how a remap or evaluation order shuffles the rounding.
_TIE_EPS = 1e-9


@dataclass
class BinarizeConfig:
    line_half_length: int = 4

    def __post_init__(self):
        if self.line_half_length < 1:
            raise ValueError("line_half_length must be >= 1")


def _line_path(flow, xs, ys, theta, defined, half: int, bounds):
    """The straight sampling path: ``half`` unit steps each way along ``theta``, all kept.

    Paths are described in the contour module docstring.
    """
    offs = range(-half, half + 1)
    c = np.cos(theta)
    s = np.sin(theta)
    return (xs + o * c for o in offs), (ys + o * s for o in offs), [True] * len(offs)


def _path_mean(img: np.ndarray, path, flow, xs, ys, theta, defined, half: int) -> np.ndarray:
    """Mean of the in-bounds samples that ``path`` keeps, summed tap by tap in path order; NaN if none."""
    h, w = img.shape
    n = np.zeros(np.shape(xs), dtype=np.intp)
    s = np.zeros(np.shape(xs))
    for px, py, ok in zip(*path(flow, xs, ys, theta, defined, half, (w, h))):
        vals = bilinear_many(img, px, py)
        use = ok & ~np.isnan(vals)
        n += use
        s += np.where(use, vals, 0.0)
    return np.where(n > 0, s / np.maximum(n, 1), np.nan)


def _is_ridge(img: np.ndarray, path, flow, xs, ys, theta, defined, half: int) -> np.ndarray:
    """Ridge mask: the mean along ``path`` is below the straight orthogonal mean."""
    g = _path_mean(img, path, flow, xs, ys, theta, defined, half)
    h = _path_mean(img, _line_path, flow, xs, ys, theta + math.pi / 2.0, defined, half)
    return defined & ~np.isnan(g) & ~np.isnan(h) & (g < h - _TIE_EPS)


def _binarize_pixel(image: GrayImage, p: Point, angles, cfg: BinarizeConfig | None, path, flow) -> int:
    """Bit at ``p``; ``angles`` is (theta, defined), each of shape (1,)."""
    cfg = cfg or BinarizeConfig()
    xs = np.array([p[0]], dtype=np.float64)
    ys = np.array([p[1]], dtype=np.float64)
    ridge = _is_ridge(image.as_float(), path, flow, xs, ys, *angles, cfg.line_half_length)
    return 0 if ridge[0] else 1


def binarize_pixel(image: GrayImage, p: Point, theta: float, cfg: BinarizeConfig | None = None) -> int:
    """Bit at ``p`` given orientation ``theta`` (pi-periodic)."""
    return _binarize_pixel(image, p, (np.array([theta]), np.array([True])), cfg, _line_path, None)


def _binarize_image(image: GrayImage, flow: FlowField, cfg: BinarizeConfig | None, path) -> BinaryImage:
    """Classify every pixel along ``path``, in row bands."""
    cfg = cfg or BinarizeConfig()
    check_flow_grid(flow, image.width, image.height)
    img = image.as_float()
    ridge = np.empty((image.height, image.width), dtype=bool)
    for rows, X, Y in row_bands(image.width, image.height):
        theta, defined = angles_at(flow, X, Y)
        ridge[rows] = _is_ridge(img, path, flow, X, Y, theta, defined, cfg.line_half_length)
    return BinaryImage(~ridge)


def binarize_image(image: GrayImage, flow: FlowField, cfg: BinarizeConfig | None = None) -> BinaryImage:
    """Per-pixel classification with orientations interpolated from ``flow``.

    Pixels with no defined orientation are classified as valley (1).
    """
    return _binarize_image(image, flow, cfg, _line_path)
